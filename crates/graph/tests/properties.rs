//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use ron_graph::{gen, Apsp};
use ron_metric::{Metric, MetricExt, Node};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// APSP of a random connected geometric graph is a valid metric whose
    /// distances dominate the Euclidean ones.
    #[test]
    fn apsp_is_metric(n in 4usize..24, seed in 0u64..200) {
        let (g, points) = gen::knn_geometric(n, 2, 3, seed);
        let apsp = Apsp::compute(&g);
        let m = apsp.to_metric().unwrap();
        prop_assert!(m.validate().is_ok());
        for i in 0..n {
            for j in 0..n {
                let (u, v) = (Node::new(i), Node::new(j));
                prop_assert!(m.dist(u, v) + 1e-12 >= points.dist(u, v));
            }
        }
    }

    /// Walking first-hop pointers always realizes the shortest distance.
    #[test]
    fn first_hop_walks_are_shortest(n in 4usize..20, seed in 0u64..200) {
        let (g, _) = gen::knn_geometric(n, 2, 2, seed);
        let apsp = Apsp::compute(&g);
        for i in 0..n {
            for j in 0..n {
                let (u, v) = (Node::new(i), Node::new(j));
                let path = apsp.walk_first_hops(&g, u, v).unwrap();
                let len = g.path_length(&path).unwrap();
                prop_assert!((len - apsp.dist(u, v)).abs() < 1e-9);
            }
        }
    }

    /// ID-range trees assign every target and routing reaches the owner.
    #[test]
    fn id_range_tree_total(m in 1usize..12, t in 0usize..40, seed in 0u64..100) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let members: Vec<Node> = (0..m).map(Node::new).collect();
        // Random tree: parent of i is a uniform pick among 0..i.
        let parent: Vec<Option<usize>> = (0..m)
            .map(|i| if i == 0 { None } else { Some(rng.random_range(0..i)) })
            .collect();
        let targets: Vec<u32> = (0..t as u32).collect();
        let tree = ron_graph::IdRangeTree::new(members, parent, targets);
        for id in 0..t as u32 {
            let path = tree.route_from_root(id);
            prop_assert!(path.is_some(), "id {} unroutable", id);
            let owner = tree.responsible(id).unwrap();
            prop_assert_eq!(*path.unwrap().last().unwrap(), owner);
        }
        prop_assert!(tree.max_load() <= t.div_ceil(m.max(1)) + 1);
    }
}
