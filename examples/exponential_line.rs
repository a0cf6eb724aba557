//! The super-polynomial aspect-ratio regime: the exponential line
//! `{1, 2, 4, ..., 2^(n-1)}`, the paper's canonical example of a doubling
//! metric that is *not* growth-constrained. This is where the
//! large-aspect-ratio machinery earns its keep:
//!
//! * grid dimension explodes while doubling dimension stays ~1;
//! * Theorem 3.4 labels stay small although log Delta = n - 1;
//! * the two-mode routing scheme (Theorem B.1) switches into mode M2;
//! * small-world hop counts stay O(log n), not O(log Delta) = O(n).
//!
//! Run with: `cargo run --example exponential_line`

use rings_of_neighbors::graph::{gen as ggen, Apsp};
use rings_of_neighbors::labels::CompactScheme;
use rings_of_neighbors::metric::{doubling, gen, Space};
use rings_of_neighbors::routing::{over_all_pairs, TwoModeScheme};
use rings_of_neighbors::smallworld::{GreedyModel, QueryStats};

fn main() {
    let n = 48;
    let space = Space::new(gen::exponential_line(n));
    println!(
        "exponential line: n = {n}, log2(aspect ratio) = {:.0}",
        space.index().aspect_ratio().log2()
    );
    println!(
        "doubling dimension ~ {:.2}, grid dimension ~ {:.2}",
        doubling::doubling_dimension(space.metric(), space.index()),
        doubling::grid_dimension(space.index())
    );

    // Compact labels: bits scale with (log n)(log log Delta), not log Delta.
    let scheme = CompactScheme::build(&space, 0.25);
    println!("Thm 3.4 labels: max {} bits", scheme.max_label_bits());

    // Two-mode routing over the exponential path graph.
    let graph = ggen::exponential_path(n);
    let apsp = Apsp::compute(&graph);
    let gspace = Space::new(apsp.to_metric().expect("path is connected"));
    let twomode = TwoModeScheme::build(&gspace, &graph, &apsp, 0.25);
    let mut modes = Default::default();
    let stats = over_all_pairs(&graph, &apsp, |u, v| {
        twomode.route(&graph, u, v, &mut modes)
    })
    .expect("delivery");
    println!(
        "Thm B.1 routing: stretch max {:.3}, M1 selections {}, M2 switches {}",
        stats.max_stretch, modes.m1_selections, modes.m2_switches
    );

    // Small world: O(log n) hops although distance halving alone would
    // need ~n hops.
    let model = GreedyModel::sample(&space, 3.0, 17);
    let q = QueryStats::over_all_pairs(n, |u, v| model.query(&space, u, v));
    println!(
        "Thm 5.2(a) queries: mean {:.1} hops, max {} (log2 n = {:.0}; log2 Delta = {})",
        q.mean_hops,
        q.max_hops,
        (n as f64).log2(),
        n - 1
    );
}
