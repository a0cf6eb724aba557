//! Integration tests spanning the whole stack: graph substrate -> metric
//! -> nets/measures/rings -> labels -> routing -> small worlds.

use rings_of_neighbors::core::zoom::{geometric_scales, ZoomSequence};
use rings_of_neighbors::core::RingFamily;
use rings_of_neighbors::graph::{gen as ggen, Apsp};
use rings_of_neighbors::labels::{CompactScheme, Triangulation};
use rings_of_neighbors::measure::{doubling_measure, NodeMeasure, Packing};
use rings_of_neighbors::metric::{gen, Metric, MetricExt, Node, Space};
use rings_of_neighbors::nets::NestedNets;
use rings_of_neighbors::routing::{over_all_pairs, BasicScheme, SimpleScheme, TwoModeScheme};
use rings_of_neighbors::smallworld::{GreedyModel, QueryStats};

/// Graph -> APSP -> metric -> all three routing schemes, checked against
/// ground-truth distances.
#[test]
fn full_routing_pipeline_on_knn_graph() {
    let (graph, points) = ggen::knn_geometric(48, 2, 3, 77);
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("connected"));
    // The graph metric dominates the Euclidean metric it came from.
    for u in space.nodes() {
        for v in space.nodes() {
            assert!(space.dist(u, v) + 1e-9 >= points.dist(u, v));
        }
    }
    let delta = 0.25;
    let basic = BasicScheme::build(&space, &graph, &apsp, delta);
    let simple = SimpleScheme::build(&space, &graph, &apsp, delta);
    let twomode = TwoModeScheme::build(&space, &graph, &apsp, delta);
    let b =
        over_all_pairs(&graph, &apsp, |u, v| basic.route(&graph, u, v)).expect("basic delivers");
    let s =
        over_all_pairs(&graph, &apsp, |u, v| simple.route(&graph, u, v)).expect("simple delivers");
    let mut modes = Default::default();
    let t = over_all_pairs(&graph, &apsp, |u, v| {
        twomode.route(&graph, u, v, &mut modes)
    })
    .expect("two-mode delivers");
    for (name, stats) in [("basic", &b), ("simple", &s), ("twomode", &t)] {
        assert!(
            stats.max_stretch <= 1.0 + 10.0 * delta,
            "{name} stretch {} too large",
            stats.max_stretch
        );
    }
}

/// Metric -> labels: the compact scheme and the triangulation agree with
/// the true distances within their guarantees, on a graph metric.
#[test]
fn labels_built_on_graph_metric() {
    let graph = ggen::ring_with_chords(40, 10, 5);
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("connected"));
    let delta = 0.25;
    let tri = Triangulation::build(&space, delta);
    let compact = CompactScheme::build(&space, delta);
    for u in space.nodes() {
        for v in space.nodes() {
            if u >= v {
                continue;
            }
            let d = space.dist(u, v);
            let est = tri.estimate(u, v);
            assert!(est.lower <= d * (1.0 + 1e-9) && d <= est.upper * (1.0 + 1e-9));
            let ce = compact.estimate(u, v);
            assert!(ce >= d - 1e-9);
            assert!(ce <= d * (1.0 + 2.0 * delta) * (1.0 + delta) * (1.0 + 1e-9));
        }
    }
}

/// Rings, zoom sequences, nets, measures and packings compose on the same
/// space with their invariants intact.
#[test]
fn substrate_composition() {
    let space = Space::new(gen::clustered(60, 2, 6, 0.02, 31));
    let nets = NestedNets::build(&space);
    for (j, net) in nets.iter() {
        net.verify(&space)
            .unwrap_or_else(|e| panic!("net {j}: {e}"));
    }
    let mu = doubling_measure(&space, &nets);
    assert!((mu.masses().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let counting = NodeMeasure::counting(space.len());
    for eps in [0.5, 0.25] {
        let packing = Packing::build(&space, &counting, eps);
        packing.verify(&space, &counting).expect("valid packing");
    }

    let rings = RingFamily::from_nets(&space, &nets, |_, r| Some(4.0 * r));
    assert_eq!(rings.check_containment(&space), None);

    let scales = geometric_scales(space.index().diameter(), nets.levels());
    for t in space.nodes() {
        let zoom = ZoomSequence::towards(&space, &nets, t, &scales);
        assert!(zoom.max_scale_ratio(&space, &scales) <= 1.0 + 1e-12);
    }
}

/// Small world over the shortest-path metric of a graph: object location
/// works on graph-induced doubling metrics, not just geometric ones.
#[test]
fn small_world_on_graph_metric() {
    let graph = ggen::grid_graph(7, 2);
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("connected"));
    let model = GreedyModel::sample(&space, 2.0, 13);
    let stats = QueryStats::over_all_pairs(space.len(), |u, v| model.query(&space, u, v));
    assert_eq!(stats.completed, stats.queries, "stalled queries");
    assert!(stats.max_hops <= 4 * model.levels_card() + 8);
}

/// The exponential-path stack: every layer works in the super-polynomial
/// aspect-ratio regime.
#[test]
fn exponential_regime_end_to_end() {
    let n = 20;
    let graph = ggen::exponential_path(n);
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("connected"));
    assert!(space.metric().aspect_ratio() >= (2.0f64).powi(n as i32 - 2));

    let compact = CompactScheme::build(&space, 0.25);
    for u in space.nodes() {
        for v in space.nodes() {
            if u >= v {
                continue;
            }
            let d = space.dist(u, v);
            let est = compact.estimate(u, v);
            assert!(est >= d - 1e-9 && est <= d * 2.0);
        }
    }

    let twomode = TwoModeScheme::build(&space, &graph, &apsp, 0.25);
    let mut modes = Default::default();
    let stats = over_all_pairs(&graph, &apsp, |u, v| {
        twomode.route(&graph, u, v, &mut modes)
    })
    .expect("delivery");
    assert!(stats.max_stretch <= 2.0, "stretch {}", stats.max_stretch);
}

/// Renaming-invariance spot check: the schemes depend on distances only,
/// so a globally rescaled metric yields identical routing behaviour.
#[test]
fn scale_invariance_of_basic_scheme() {
    let graph = ggen::grid_graph(4, 2);
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("connected"));
    let scaled = Space::new(apsp.to_metric().unwrap().scaled(1000.0));
    let a = BasicScheme::build(&space, &graph, &apsp, 0.25);
    // The scaled space pairs with a rescaled graph.
    let mut builder = rings_of_neighbors::graph::GraphBuilder::new(graph.len());
    for i in 0..graph.len() {
        for (v, w) in graph.out_links(Node::new(i)) {
            if Node::new(i) < v {
                builder.add_undirected(Node::new(i), v, w * 1000.0).unwrap();
            }
        }
    }
    let graph_scaled = builder.build();
    let apsp_scaled = Apsp::compute(&graph_scaled);
    let b = BasicScheme::build(&scaled, &graph_scaled, &apsp_scaled, 0.25);
    for u in space.nodes() {
        for v in space.nodes() {
            if u == v {
                continue;
            }
            let ta = a.route(&graph, u, v).expect("a delivers");
            let tb = b.route(&graph_scaled, u, v).expect("b delivers");
            assert_eq!(ta.path, tb.path, "paths differ for ({u}, {v})");
        }
    }
}

/// The same stack runs end to end on the memory-sparse ball-query
/// backend: nets, rings, labels and the location directory built over
/// `Space::new_sparse` answer exactly like their dense counterparts.
#[test]
fn sparse_backend_pipeline_matches_dense() {
    use rings_of_neighbors::location::{DirectoryOverlay, ObjectId};
    use rings_of_neighbors::metric::BallOracle;
    use rings_of_neighbors::nets::Net;

    let dense = Space::new(gen::uniform_cube(56, 2, 91));
    let sparse = Space::new_sparse(gen::uniform_cube(56, 2, 91));

    // Oracle answers agree.
    assert_eq!(dense.index().min_distance(), sparse.index().min_distance());
    for u in dense.nodes() {
        for k in [1usize, 5, 28, 56] {
            assert_eq!(
                BallOracle::radius_for_count(sparse.index(), u, k),
                dense.index().radius_for_count(u, k)
            );
        }
    }

    // Nets at matching radii are identical.
    let r = dense.index().min_distance() * 4.0;
    assert_eq!(
        Net::build(&dense, r, &[]).members(),
        Net::build(&sparse, r, &[]).members()
    );

    // Labels built on the sparse backend bracket true distances.
    let tri = Triangulation::build(&sparse, 0.25);
    for u in sparse.nodes() {
        for v in sparse.nodes() {
            if u >= v {
                continue;
            }
            let est = tri.estimate(u, v);
            let d = sparse.dist(u, v);
            assert!(est.lower <= d * (1.0 + 1e-9) && d <= est.upper * (1.0 + 1e-9));
        }
    }

    // The directory serves every lookup over the sparse backend.
    let mut overlay = DirectoryOverlay::build(&sparse);
    let items: Vec<(ObjectId, Node)> = (0..8)
        .map(|i| (ObjectId(i as u64), Node::new((i * 9 + 3) % 56)))
        .collect();
    overlay.publish_batch(&sparse, &items);
    for s in sparse.nodes() {
        for &(obj, home) in &items {
            assert_eq!(
                overlay.lookup(&sparse, s, obj).expect("delivers").home,
                home
            );
        }
    }
}
