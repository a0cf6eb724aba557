//! Property-based tests for the routing schemes: delivery and stretch on
//! randomized connected graphs.

use proptest::prelude::*;
use ron_graph::{gen, Apsp};
use ron_metric::Space;
use ron_routing::{over_all_pairs, BasicScheme, SimpleScheme, TwoModeScheme};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Theorem 2.1 delivers every packet within 1 + O(delta) on random
    /// k-NN graphs.
    #[test]
    fn basic_scheme_random_graphs(n in 10usize..28, seed in 0u64..300) {
        let (graph, _) = gen::knn_geometric(n, 2, 3, seed);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let delta = 0.25;
        let scheme = BasicScheme::build(&space, &graph, &apsp, delta);
        let stats = over_all_pairs(&graph, &apsp, |u, v| {
            scheme.route(&graph, u, v)
        });
        let stats = stats.unwrap();
        prop_assert!(stats.max_stretch <= 1.0 + 8.0 * delta);
    }

    /// Theorem 4.1 likewise.
    #[test]
    fn simple_scheme_random_graphs(n in 10usize..24, seed in 0u64..300) {
        let (graph, _) = gen::knn_geometric(n, 2, 3, seed);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let delta = 0.25;
        let scheme = SimpleScheme::build(&space, &graph, &apsp, delta);
        let stats = over_all_pairs(&graph, &apsp, |u, v| {
            scheme.route(&graph, u, v)
        });
        let stats = stats.unwrap();
        prop_assert!(stats.max_stretch <= 1.0 + 8.0 * delta);
    }

    /// Theorem B.1 delivers unconditionally on random ring-with-chords
    /// graphs (exercising both modes).
    #[test]
    fn twomode_scheme_random_rings(n in 8usize..20, chords in 0usize..10, seed in 0u64..200) {
        let graph = gen::ring_with_chords(n.max(3), chords, seed);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = TwoModeScheme::build(&space, &graph, &apsp, 0.25);
        let mut modes = Default::default();
        let stats = over_all_pairs(&graph, &apsp, |u, v| {
            scheme.route(&graph, u, v, &mut modes)
        });
        let stats = stats.unwrap();
        prop_assert!(stats.max_stretch <= 3.0, "stretch {}", stats.max_stretch);
    }
}
