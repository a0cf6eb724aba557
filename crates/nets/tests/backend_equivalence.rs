//! Cross-backend and cross-thread-count guarantees for the net layer:
//! the same greedy net falls out of the dense and the sparse oracle, and
//! ladder and ring construction are deterministic under any worker count.

use ron_core::RingFamily;
use ron_metric::{gen, par, BallOracle, LineMetric, Metric, Node, Space};
use ron_nets::{NestedNets, Net};

/// `Net::build` at a fixed radius is a pure function of the oracle's
/// answers, so the dense and sparse backends must produce the identical
/// member set.
#[test]
fn nets_identical_across_backends() {
    let dense = Space::new(gen::uniform_cube(72, 2, 19));
    let sparse = Space::new_sparse(gen::uniform_cube(72, 2, 19));
    let min_dist = dense.index().min_distance();
    assert_eq!(min_dist, sparse.index().min_distance());
    let mut radius = min_dist;
    while radius < dense.index().diameter() * 2.0 {
        let a = Net::build(&dense, radius, &[]);
        let b = Net::build(&sparse, radius, &[]);
        assert_eq!(a.members(), b.members(), "radius {radius}");
        let seeds = [Node::new(0)];
        let a = Net::build(&dense, radius, &seeds);
        let b = Net::build(&sparse, radius, &seeds);
        assert_eq!(a.members(), b.members(), "seeded, radius {radius}");
        radius *= 2.0;
    }
}

/// The sparse-backend ladder satisfies every net invariant on all four
/// generator families (its level count may exceed the dense ladder's by
/// one — the sparse diameter is an upper bound — but each level must be a
/// valid net and the ladder must stay nested).
#[test]
fn sparse_ladder_is_valid_on_every_family() {
    fn check<M: ron_metric::Metric, I: BallOracle>(space: &Space<M, I>) {
        let nets = NestedNets::build(space);
        assert_eq!(nets.net(0).len(), space.len(), "G_0 = V");
        assert_eq!(nets.net(nets.levels() - 1).len(), 1, "singleton top");
        for (j, net) in nets.iter() {
            net.verify(space)
                .unwrap_or_else(|e| panic!("level {j}: {e}"));
        }
        for j in 0..nets.levels() - 1 {
            let finer = nets.net(j);
            for &m in nets.net(j + 1).members() {
                assert!(finer.contains(m), "nesting broken at {j}");
            }
        }
    }
    check(&Space::new_sparse(gen::uniform_cube(64, 2, 3)));
    check(&Space::new_sparse(gen::clustered(48, 2, 5, 0.02, 9)));
    check(&Space::new_sparse(gen::perturbed_grid(6, 2, 0.2, 4)));
    check(&Space::new_sparse(LineMetric::exponential(24).unwrap()));
}

/// Ladder construction under the parallel executor is byte-identical to
/// single-threaded construction, on both backends.
#[test]
fn parallel_ladders_are_identical() {
    let dense = Space::new(gen::uniform_cube(64, 2, 27));
    let sparse = Space::new_sparse(gen::uniform_cube(64, 2, 27));
    let d1 = par::with_threads(1, || NestedNets::build(&dense));
    let d4 = par::with_threads(4, || NestedNets::build(&dense));
    let s1 = par::with_threads(1, || NestedNets::build(&sparse));
    let s4 = par::with_threads(4, || NestedNets::build(&sparse));
    assert_eq!(d1.levels(), d4.levels());
    assert_eq!(s1.levels(), s4.levels());
    for j in 0..d1.levels() {
        assert_eq!(d1.net(j).members(), d4.net(j).members(), "dense level {j}");
    }
    for j in 0..s1.levels() {
        assert_eq!(s1.net(j).members(), s4.net(j).members(), "sparse level {j}");
    }
}

/// At the minimum distance no node is strictly within the radius of
/// another, so the net is every node, seeded or not, on both backends.
#[test]
fn min_distance_net_is_every_node() {
    fn check<M: Metric, I: BallOracle>(space: &Space<M, I>) {
        let all: Vec<Node> = space.nodes().collect();
        let r = space.index().min_distance();
        let seeds = [Node::new(space.len() - 1), Node::new(0)];
        for seeds in [&[][..], &seeds[..]] {
            let net = Net::build(space, r, seeds);
            assert_eq!(net.members(), &all[..], "seeds {seeds:?}");
            assert!(all.iter().all(|&v| net.contains(v)));
        }
    }
    check(&Space::new(gen::uniform_cube(48, 2, 7)));
    check(&Space::new_sparse(gen::uniform_cube(48, 2, 7)));
    check(&Space::new(gen::perturbed_grid(6, 2, 0.0, 1)));
    check(&Space::new_sparse(gen::perturbed_grid(6, 2, 0.0, 1)));
    check(&Space::new_sparse(LineMetric::new(vec![0.0, 2.5]).unwrap()));
    check(&Space::new_sparse(LineMetric::new(vec![4.0]).unwrap()));
}

/// The sparse ladder and the rings scattered from it are identical on 1
/// and on 5 workers: the seed marks and the ring balls are gathered in
/// parallel but merged in a fixed order.
#[test]
fn sparse_ladder_and_rings_identical_across_threads() {
    fn build<M: Metric>(space: &Space<M, ron_metric::NetTreeIndex<M>>) -> (NestedNets, RingFamily) {
        let nets = NestedNets::build(space);
        let rings = RingFamily::from_nets(space, &nets, |_, r| Some(4.0 * r));
        (nets, rings)
    }
    for seed in [3u64, 11] {
        let space = Space::new_sparse(gen::perturbed_grid(20, 2, 0.3, seed));
        let (n1, r1) = par::with_threads(1, || build(&space));
        let (n5, r5) = par::with_threads(5, || build(&space));
        assert_eq!(n1.levels(), n5.levels());
        for j in 0..n1.levels() {
            assert_eq!(n1.net(j).members(), n5.net(j).members(), "level {j}");
        }
        assert_eq!(r1, r5, "rings, seed {seed}");
    }
}
