//! Property-based tests for the metric substrate.

use proptest::prelude::*;
use ron_metric::{
    cover, gen, par, BallOracle, EuclideanMetric, GridMetric, LineMetric, Metric, MetricExt,
    MetricIndex, NetTreeIndex, Node,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated cube metric satisfies the metric axioms.
    #[test]
    fn uniform_cube_satisfies_axioms(n in 2usize..24, dim in 1usize..4, seed in 0u64..1000) {
        let m = gen::uniform_cube(n, dim, seed);
        prop_assert!(m.validate().is_ok());
    }

    /// Clustered metrics satisfy the metric axioms.
    #[test]
    fn clustered_satisfies_axioms(n in 2usize..24, clusters in 1usize..5, seed in 0u64..1000) {
        let m = gen::clustered(n, 2, clusters, 0.05, seed);
        prop_assert!(m.validate().is_ok());
    }

    /// Arbitrary distinct reals form a valid line metric.
    #[test]
    fn line_metric_axioms(points in prop::collection::btree_set(-1000i64..1000, 2..32)) {
        let coords: Vec<f64> = points.iter().map(|&p| p as f64).collect();
        let line = LineMetric::new(coords).unwrap();
        prop_assert!(line.validate().is_ok());
    }

    /// Ball sizes are monotone in the radius and the counting radii invert them.
    #[test]
    fn ball_size_monotone_and_inverse(
        n in 2usize..32,
        seed in 0u64..500,
        r1 in 0.0f64..2.0,
        r2 in 0.0f64..2.0,
    ) {
        let m = gen::uniform_cube(n, 2, seed);
        let idx = MetricIndex::build(&m);
        let u = Node::new(0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(idx.ball_size(u, lo) <= idx.ball_size(u, hi));
        for k in 1..=n {
            let r = idx.radius_for_count(u, k);
            prop_assert!(idx.ball_size(u, r) >= k);
            if r > 0.0 {
                // Slightly smaller radius must hold fewer than k nodes, as r is
                // the distance of the k-th nearest node.
                prop_assert!(idx.ball_size(u, r * (1.0 - 1e-12)) < k);
            }
        }
    }

    /// Greedy cover: full coverage and center separation on random inputs.
    #[test]
    fn greedy_cover_properties(n in 2usize..32, seed in 0u64..500, r in 0.01f64..1.5) {
        let m = gen::uniform_cube(n, 2, seed);
        let all: Vec<Node> = (0..n).map(Node::new).collect();
        let centers = cover::greedy_cover(&m, &all, r);
        for &u in &all {
            prop_assert!(centers.iter().any(|&c| m.dist(u, c) <= r));
        }
        for (i, &a) in centers.iter().enumerate() {
            for &b in &centers[i + 1..] {
                prop_assert!(m.dist(a, b) > r);
            }
        }
    }

    /// The annulus plus the inner ball equals the outer ball.
    #[test]
    fn annulus_partitions_ball(n in 2usize..32, seed in 0u64..500, r in 0.1f64..1.0) {
        let m = gen::uniform_cube(n, 2, seed);
        let idx = MetricIndex::build(&m);
        let u = Node::new(n / 2);
        let inner = idx.ball_size(u, r);
        let ring = idx.annulus(u, r, 2.0 * r).len();
        let outer = idx.ball_size(u, 2.0 * r);
        prop_assert_eq!(inner + ring, outer);
    }

    /// `r_fraction` is non-increasing as eps shrinks by halving.
    #[test]
    fn cardinality_radii_monotone(n in 2usize..48, seed in 0u64..500) {
        let m = gen::uniform_cube(n, 3, seed);
        let idx = MetricIndex::build(&m);
        for i in 0..n {
            let radii = idx.cardinality_radii(Node::new(i), 5);
            for w in radii.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }
    }

    /// Euclidean distances agree with an explicitly materialized matrix.
    #[test]
    fn explicit_snapshot_agrees(n in 2usize..16, seed in 0u64..200) {
        let m = gen::uniform_cube(n, 2, seed);
        let e = ron_metric::ExplicitMetric::from_metric(&m).unwrap();
        for i in 0..n {
            for j in 0..n {
                let (u, v) = (Node::new(i), Node::new(j));
                prop_assert!((m.dist(u, v) - e.dist(u, v)).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn euclidean_triangle_inequality_dense_check() {
    let m = EuclideanMetric::new(
        (0..20)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()])
            .collect(),
    )
    .unwrap();
    assert!(m.validate().is_ok());
}

/// The sparse backend must answer every oracle query exactly like the
/// dense index: same balls (order included), same cardinalities, same
/// nearest-where results and call sequences, same radius-for-count, same
/// exact minimum distance — on every generator family the experiments
/// use. The diameter is allowed its documented factor-2 upper bound.
fn assert_oracle_equivalence<M: Metric + Clone>(metric: M) {
    let dense = MetricIndex::build(&metric);
    let tree = NetTreeIndex::build(metric);
    let counts: Vec<usize> = (1..=dense.len()).collect();
    assert_tree_matches_dense(&dense, &tree, &counts);
}

/// [`assert_oracle_equivalence`] for an already-built tree: every node,
/// the given counts, seven radii from 0 to twice the diameter.
fn assert_tree_matches_dense<M: Metric>(
    dense: &MetricIndex,
    tree: &NetTreeIndex<M>,
    counts: &[usize],
) {
    let n = dense.len();
    assert_eq!(BallOracle::len(tree), n);
    assert_eq!(tree.min_distance(), dense.min_distance(), "min distance");
    assert!(BallOracle::diameter_ub(tree) >= dense.diameter());
    assert!(BallOracle::diameter_ub(tree) <= 2.0 * dense.diameter() + 1e-12);
    let radii = [
        0.0,
        dense.min_distance(),
        dense.min_distance() * 1.5,
        dense.diameter() / 3.0,
        dense.diameter() / 2.0,
        dense.diameter(),
        dense.diameter() * 2.0,
    ];
    for u in Node::all(n) {
        assert_queries_match(dense, tree, u, counts.iter().copied(), &radii);
        for eps in [0.1, 0.5, 1.0] {
            assert_eq!(
                BallOracle::r_fraction(tree, u, eps),
                dense.r_fraction(u, eps)
            );
        }
    }
}

/// The queries from `u` on both backends: `radius_for_count` at each
/// count; the ordered ball, its size and the unordered visit (as a set,
/// distance bits included) at each radius; `nearest_where`'s answer and
/// predicate call sequence (each candidate offered once, in
/// `(distance, id)` order).
fn assert_queries_match<M: Metric>(
    dense: &MetricIndex,
    tree: &NetTreeIndex<M>,
    u: Node,
    counts: impl IntoIterator<Item = usize>,
    radii: &[f64],
) {
    for k in counts {
        assert_eq!(
            tree.radius_for_count(u, k),
            dense.radius_for_count(u, k),
            "radius_for_count({u}, {k})"
        );
    }
    for &r in radii {
        let ball = BallOracle::ball(dense, u, r);
        assert_eq!(BallOracle::ball(tree, u, r), ball, "ball({u}, {r})");
        assert_eq!(
            BallOracle::ball_size(tree, u, r),
            dense.ball_size(u, r),
            "ball_size({u}, {r})"
        );
        let bits: Vec<(u64, Node)> = ball.iter().map(|&(d, v)| (d.to_bits(), v)).collect();
        assert_eq!(unordered_sorted(tree, u, r), bits, "unordered B({u}, {r})");
    }
    let mut dense_calls = Vec::new();
    let dense_hit = dense.nearest_where(u, |v| {
        dense_calls.push(v);
        v.index() % 7 == 3
    });
    let mut tree_calls = Vec::new();
    let tree_hit = BallOracle::nearest_where(tree, u, &mut |v| {
        tree_calls.push(v);
        v.index() % 7 == 3
    });
    assert_eq!(tree_hit, dense_hit, "nearest_where({u})");
    assert_eq!(tree_calls, dense_calls, "predicate call order at {u}");
    assert_eq!(BallOracle::nearest_where(tree, u, &mut |_| false), None);
}

#[test]
fn net_tree_matches_dense_on_uniform_cube() {
    for (n, seed) in [(2usize, 9u64), (37, 1), (64, 5)] {
        assert_oracle_equivalence(gen::uniform_cube(n, 2, seed));
    }
    assert_oracle_equivalence(gen::uniform_cube(48, 3, 11));
}

#[test]
fn net_tree_matches_dense_on_clusters() {
    for (n, clusters, seed) in [(40usize, 4usize, 3u64), (56, 7, 8)] {
        assert_oracle_equivalence(gen::clustered(n, 2, clusters, 0.02, seed));
    }
}

#[test]
fn net_tree_matches_dense_on_perturbed_grid() {
    assert_oracle_equivalence(gen::perturbed_grid(7, 2, 0.2, 6));
    assert_oracle_equivalence(gen::perturbed_grid(4, 3, 0.3, 2));
}

#[test]
fn net_tree_matches_dense_on_exponential_line() {
    // The super-polynomial aspect-ratio regime: a deep, skinny ladder.
    for n in [2usize, 3, 17, 32] {
        assert_oracle_equivalence(LineMetric::exponential(n).unwrap());
    }
    assert_oracle_equivalence(LineMetric::uniform(33).unwrap());
}

/// The edges of the reach test's rounding margin: aspect 2^63 (a reach
/// of 1 beside distances of 2^62), the tie-heavy L1 grid and an exact
/// Euclidean grid. Every query equals the dense index's on trees built
/// with 1 and with 5 workers (on the grids, every 13th count and `n`).
#[test]
fn net_tree_matches_dense_at_float_edges() {
    fn check<M: Metric + Clone>(metric: M) {
        let dense = MetricIndex::build(&metric);
        let n = dense.len();
        let step = if n > 64 { 13 } else { 1 };
        let counts: Vec<usize> = (1..=n).step_by(step).chain([n]).collect();
        for threads in [1, 5] {
            let tree = par::with_threads(threads, || NetTreeIndex::build(metric.clone()));
            assert_tree_matches_dense(&dense, &tree, &counts);
        }
    }
    check(LineMetric::exponential(64).unwrap());
    check(GridMetric::new(16, 2).unwrap());
    check(gen::perturbed_grid(12, 2, 0.0, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized cross-check of the two backends on random cubes.
    #[test]
    fn net_tree_matches_dense_randomized(n in 2usize..28, seed in 0u64..400) {
        let metric = gen::uniform_cube(n, 2, seed);
        let dense = MetricIndex::build(&metric);
        let tree = NetTreeIndex::build(metric);
        prop_assert_eq!(tree.min_distance(), dense.min_distance());
        for i in 0..n {
            let u = Node::new(i);
            for k in 1..=n {
                prop_assert_eq!(tree.radius_for_count(u, k), dense.radius_for_count(u, k));
            }
            let r = dense.diameter() * 0.4;
            prop_assert_eq!(BallOracle::ball(&tree, u, r), BallOracle::ball(&dense, u, r));
        }
    }

    /// The dense index build is bit-identical for every worker count, and
    /// every row is the brute-force `(distance, id)` sort, on the four
    /// generator families and on the tie-heavy uniform line and L1 grid.
    #[test]
    fn parallel_index_build_is_deterministic(n in 2usize..40, seed in 0u64..300) {
        let side = 2 + n / 8;
        let clusters = 1 + seed as usize % 4;
        assert_rows_match_reference(&gen::uniform_cube(n, 2, seed));
        assert_rows_match_reference(&gen::clustered(n, 2, clusters, 0.05, seed));
        assert_rows_match_reference(&gen::perturbed_grid(side, 2, 0.25, seed));
        assert_rows_match_reference(&gen::exponential_line(n));
        assert_rows_match_reference(&LineMetric::uniform(n).unwrap());
        assert_rows_match_reference(&GridMetric::new(side, 2).unwrap());
    }
}

/// Builds the dense index of `metric` on 1 and on 5 workers and checks
/// both against a stable sort of every row's `(distance, id)` pairs,
/// distances compared bit for bit.
fn assert_rows_match_reference<M: Metric>(metric: &M) {
    let n = metric.len();
    let one = par::with_threads(1, || MetricIndex::build(metric));
    let many = par::with_threads(5, || MetricIndex::build(metric));
    for idx in [&one, &many] {
        let mut diameter = 0.0f64;
        for u in Node::all(n) {
            let mut want: Vec<(f64, Node)> = Node::all(n).map(|v| (metric.dist(u, v), v)).collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let row = idx.sorted_from(u);
            let bits = |d: &[f64]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let want_dists: Vec<f64> = want.iter().map(|&(d, _)| d).collect();
            let want_nodes: Vec<Node> = want.iter().map(|&(_, v)| v).collect();
            assert_eq!(bits(row.dists()), bits(&want_dists), "distances from {u}");
            assert_eq!(row.nodes(), want_nodes, "order from {u}");
            diameter = diameter.max(want_dists[n - 1]);
        }
        assert_eq!(idx.diameter(), diameter);
    }
    assert_eq!(one.min_distance(), many.min_distance());
}

/// Bit-identity at the benchmark's own size: the 64 x 64 jittered grid
/// the serve workloads build, a 4096-point uniform line (rows of two
/// monotone runs) and a 64 x 64 L1 grid (heavy ties). Release-only:
/// `cargo test --release -p ron-metric -- --ignored`.
#[test]
#[ignore = "n = 4096, three dense builds: run in release with --ignored"]
fn dense_rows_match_reference_at_4096() {
    assert_rows_match_reference(&gen::perturbed_grid(64, 2, 0.25, 1));
    assert_rows_match_reference(&LineMetric::uniform(4096).unwrap());
    assert_rows_match_reference(&GridMetric::new(64, 2).unwrap());
}

/// The sparse backend against the dense index at the benchmark's size,
/// on the three metrics of [`dense_rows_match_reference_at_4096`]: from
/// every 61st node, seven counts, six radii and `nearest_where`.
/// Release-only: `cargo test --release -p ron-metric -- --ignored`.
#[test]
#[ignore = "n = 4096, dense and sparse builds: run in release with --ignored"]
fn sparse_queries_match_dense_at_4096() {
    fn check<M: Metric + Clone>(metric: M) {
        let dense = MetricIndex::build(&metric);
        let tree = NetTreeIndex::build(metric);
        let n = dense.len();
        assert_eq!(tree.min_distance(), dense.min_distance());
        let (min, diam) = (dense.min_distance(), dense.diameter());
        let radii = [0.0, min, 3.0 * min, diam / 16.0, diam / 4.0, diam];
        for u in Node::all(n).step_by(61) {
            assert_queries_match(&dense, &tree, u, [1, 2, 7, 64, 500, n / 2, n], &radii);
        }
    }
    check(gen::perturbed_grid(64, 2, 0.25, 1));
    check(LineMetric::uniform(4096).unwrap());
    check(GridMetric::new(64, 2).unwrap());
}

/// The visits of `for_each_in_ball_unordered`, sorted into the ordered
/// visit's `(distance, id)` order, with distances as bits.
fn unordered_sorted<O: BallOracle>(o: &O, u: Node, r: f64) -> Vec<(u64, Node)> {
    let mut out = Vec::new();
    o.for_each_in_ball_unordered(u, r, &mut |d, v| out.push((d.to_bits(), v)));
    let mut ids: Vec<Node> = out.iter().map(|&(_, v)| v).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), out.len(), "a node visited twice in B({u}, {r})");
    out.sort_unstable_by(|a, b| {
        f64::from_bits(a.0)
            .total_cmp(&f64::from_bits(b.0))
            .then(a.1.cmp(&b.1))
    });
    out
}

/// On both backends the unordered visit is the ordered ball as a set:
/// each node once, with the same distance bits, at radius 0, the minimum
/// distance, mid-range and beyond the diameter bound.
fn assert_unordered_visit_is_the_ball<M: Metric + Clone>(metric: M) {
    let dense = MetricIndex::build(&metric);
    let tree = NetTreeIndex::build(metric);
    let top = BallOracle::diameter_ub(&tree);
    let radii = [
        0.0,
        dense.min_distance(),
        dense.diameter() / 2.0,
        top,
        2.0 * top,
    ];
    for i in 0..dense.len() {
        let u = Node::new(i);
        for r in radii {
            let mut ordered = Vec::new();
            dense.for_each_in_ball(u, r, &mut |d, v| ordered.push((d.to_bits(), v)));
            assert_eq!(unordered_sorted(&dense, u, r), ordered, "dense B({u}, {r})");
            assert_eq!(unordered_sorted(&tree, u, r), ordered, "sparse B({u}, {r})");
        }
    }
}

#[test]
fn unordered_ball_visit_is_the_ordered_ball() {
    assert_unordered_visit_is_the_ball(gen::uniform_cube(64, 2, 5));
    assert_unordered_visit_is_the_ball(gen::clustered(48, 2, 4, 0.02, 3));
    assert_unordered_visit_is_the_ball(gen::perturbed_grid(7, 2, 0.2, 6));
    assert_unordered_visit_is_the_ball(gen::exponential_line(24));
    assert_unordered_visit_is_the_ball(LineMetric::uniform(33).unwrap());
    // Zero jitter: an exact grid, every ring of the ball a tie.
    assert_unordered_visit_is_the_ball(gen::perturbed_grid(7, 2, 0.0, 1));
}

/// The net tree's closest-pair pass finds the dense index's exact
/// minimum distance bit for bit, ties, two- and three-point spaces and
/// the singleton convention included.
#[test]
fn net_tree_min_distance_is_exact() {
    fn check<M: Metric + Clone>(metric: M) {
        let dense = MetricIndex::build(&metric);
        let tree = NetTreeIndex::build(metric);
        assert_eq!(
            tree.min_distance().to_bits(),
            BallOracle::min_distance(&dense).to_bits(),
            "n = {}",
            dense.len()
        );
    }
    check(gen::uniform_cube(96, 2, 17));
    check(gen::clustered(64, 2, 5, 0.01, 4));
    check(gen::perturbed_grid(9, 2, 0.0, 1));
    check(LineMetric::new(vec![0.0, 2.5]).unwrap());
    check(LineMetric::new(vec![0.0, 2.5, 2.75]).unwrap());
    check(LineMetric::new(vec![5.0]).unwrap());
}
