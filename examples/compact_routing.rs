//! Compact routing on a doubling graph: the full-table baseline vs
//! Theorem 2.1 vs Theorem 4.1 vs Theorem 4.2/B.1 on a k-NN geometric
//! network (an overlay-network shape).
//!
//! Run with: `cargo run --example compact_routing`

use rings_of_neighbors::graph::{gen, Apsp};
use rings_of_neighbors::metric::{Node, Space};
use rings_of_neighbors::routing::{
    over_all_pairs, BasicScheme, FullTableBaseline, SimpleScheme, TwoModeScheme,
};

fn main() {
    let (graph, _points) = gen::knn_geometric(96, 2, 3, 21);
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("knn graphs are connected"));
    let delta = 0.25;
    println!(
        "network: n = {}, arcs = {}, Dout = {}, aspect ratio = {:.1}",
        graph.len(),
        graph.arc_count(),
        graph.max_out_degree(),
        space.index().aspect_ratio()
    );

    let baseline = FullTableBaseline::build(&graph, &apsp);
    let basic = BasicScheme::build(&space, &graph, &apsp, delta);
    let simple = SimpleScheme::build(&space, &graph, &apsp, delta);
    let twomode = TwoModeScheme::build(&space, &graph, &apsp, delta);

    let b_stats = over_all_pairs(&graph, &apsp, |u, v| baseline.route(&graph, u, v))
        .expect("baseline routes");
    println!(
        "full table : stretch max {:.3}, table {} bits, header {} bits",
        b_stats.max_stretch,
        baseline.table_bits().total_bits(),
        baseline.header_bits()
    );

    let s_stats =
        over_all_pairs(&graph, &apsp, |u, v| basic.route(&graph, u, v)).expect("Thm 2.1 routes");
    println!(
        "Thm 2.1    : stretch max {:.3}, table {} bits, header {} bits",
        s_stats.max_stretch,
        basic.max_table_bits(),
        basic.header_bits()
    );

    let p_stats =
        over_all_pairs(&graph, &apsp, |u, v| simple.route(&graph, u, v)).expect("Thm 4.1 routes");
    println!(
        "Thm 4.1    : stretch max {:.3}, table {} bits, header {} bits",
        p_stats.max_stretch,
        simple.max_table_bits(),
        simple.header_bits()
    );

    let mut mode_stats = Default::default();
    let t_stats = over_all_pairs(&graph, &apsp, |u, v| {
        twomode.route(&graph, u, v, &mut mode_stats)
    })
    .expect("Thm B.1 routes");
    println!(
        "Thm 4.2/B.1: stretch max {:.3}, table {} bits, header {} bits",
        t_stats.max_stretch,
        twomode.max_table_bits(),
        twomode.header_bits()
    );
    println!(
        "             mode usage: {} M1 selections, {} M2 switches",
        mode_stats.m1_selections, mode_stats.m2_switches
    );

    // One concrete route end to end.
    let (u, v) = (Node::new(0), Node::new(95));
    let trace = basic.route(&graph, u, v).expect("delivery");
    println!(
        "example route {u} -> {v}: {} hops, stretch {:.3}",
        trace.hops(),
        trace.stretch(apsp.dist(u, v))
    );
}
