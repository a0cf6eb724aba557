//! Ring construction is deterministic under any worker count and
//! identical across ball-query backends at matching ladder radii.

use ron_core::{par, RingFamily};
use ron_metric::{gen, Metric, Space};
use ron_nets::NestedNets;

#[test]
fn parallel_ring_builds_are_identical() {
    let space = Space::new(gen::uniform_cube(80, 2, 13));
    let nets = NestedNets::build(&space);
    let one = par::with_threads(1, || {
        RingFamily::from_nets(&space, &nets, |_, r| Some(2.0 * r))
    });
    let four = par::with_threads(4, || {
        RingFamily::from_nets(&space, &nets, |_, r| Some(2.0 * r))
    });
    assert_eq!(one, four);
    assert_eq!(one.total_pointers(), four.total_pointers());
}

#[test]
fn sparse_backend_rings_match_dense_at_same_radii() {
    // Compare level by level: build each ring family from an explicit
    // radius table so the (possibly one-level-taller) sparse ladder
    // cannot skew the comparison.
    let dense = Space::new(gen::uniform_cube(60, 2, 21));
    let sparse = Space::new_sparse(gen::uniform_cube(60, 2, 21));
    let dense_nets = NestedNets::build(&dense);
    let sparse_nets = NestedNets::build(&sparse);
    let shared = dense_nets.levels().min(sparse_nets.levels());
    let a = RingFamily::from_nets(&dense, &dense_nets, |j, r| (j < shared).then_some(2.0 * r));
    let b = RingFamily::from_nets(&sparse, &sparse_nets, |j, r| {
        (j < shared).then_some(2.0 * r)
    });
    for u in dense.nodes() {
        for j in 0..shared {
            assert_eq!(
                a.ring(u, j).map(|ring| ring.members()),
                b.ring(u, j).map(|ring| ring.members()),
                "ring({u}, {j})"
            );
        }
    }
}

/// The member-centric CSR-arena construction must equal the textbook
/// per-node filter `B_u(r) ∩ G_j`.
fn assert_rings_match_definition<M: Metric>(space: &Space<M>) {
    let nets = NestedNets::build(space);
    let rings = RingFamily::from_nets(space, &nets, |_, r| Some(3.0 * r));
    for u in space.nodes() {
        for (j, net) in nets.iter() {
            let r = 3.0 * net.radius();
            let mut expected = net.members_in_ball(space, u, r);
            expected.sort_unstable();
            let ring = rings.ring(u, j).expect("every level built");
            assert_eq!(ring.members(), &expected[..], "ring({u}, {j})");
        }
    }
}

#[test]
fn inverted_construction_matches_definition_on_all_families() {
    assert_rings_match_definition(&Space::new(gen::uniform_cube(56, 2, 3)));
    assert_rings_match_definition(&Space::new(gen::clustered(56, 2, 4, 0.03, 5)));
    assert_rings_match_definition(&Space::new(gen::perturbed_grid(6, 2, 0.3, 4)));
    assert_rings_match_definition(&Space::new(gen::exponential_line(14)));
}
