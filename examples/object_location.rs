//! Object location at serving scale: publish 1000 objects on a
//! 4096-node instance, serve 10k batched lookups through the concurrent
//! query engine, then survive a 20% targeted (hub-first) churn attack,
//! repaired and republished wave by wave under the same engine.
//!
//! Run with: `cargo run --release --example object_location`
//!
//! Everything is seeded, so the printed numbers reproduce exactly.

use std::cmp::Reverse;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rings_of_neighbors::location::{
    DirectoryOverlay, EngineConfig, EpochCell, ObjectId, QueryEngine, Snapshot,
};
use rings_of_neighbors::metric::{gen, Node, Space};

const N: usize = 4096;
const OBJECTS: usize = 1000;
const LOOKUPS: usize = 10_000;
const SEED: u64 = 1105;

fn main() {
    // Observability is opt-in: RON_TRACE=chrome dumps a Chrome trace,
    // RON_OBS=1 prints the metrics registry at the end. Off by default,
    // and provably non-perturbing either way.
    rings_of_neighbors::obs::init_from_env();

    // 1. A 4096-point doubling metric and the directory overlay: nested
    //    nets, factor-2 publish rings, empty pointer tables.
    let t0 = Instant::now();
    let space = Space::new(gen::uniform_cube(N, 2, SEED));
    let mut overlay = DirectoryOverlay::build(&space);
    println!(
        "built overlay: n = {}, levels = {}, ring factor = {} ({:.1?})",
        overlay.len(),
        overlay.levels(),
        overlay.ring_factor(),
        t0.elapsed()
    );
    let hist = overlay.rings().neighbor_count_histogram();
    let max_degree = hist.len() - 1;
    println!(
        "overlay degrees: max = {max_degree}, median = {}",
        median_of_histogram(&hist)
    );

    // 2. Publish: every object installs pointers up the net ladder along
    //    its home's zooming sequence.
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut writes = 0usize;
    for i in 0..OBJECTS {
        let home = Node::new(rng.random_range(0..N));
        writes += overlay.publish(&space, ObjectId(i as u64), home);
    }
    println!(
        "published {OBJECTS} objects: {writes} pointer entries ({:.1?})",
        t0.elapsed()
    );

    // 3. Serve a 10k batch through the worker pool. Half the traffic is
    //    hot — 128 gateway origins asking for 32 popular objects — so the
    //    LRU result cache earns its keep; the rest is uniform.
    let queries: Vec<(Node, ObjectId)> = (0..LOOKUPS)
        .map(|_| {
            if rng.random_bool(0.5) {
                let origin = Node::new((rng.random_range(0..128usize) * 31) % N);
                let obj = ObjectId(rng.random_range(0..32u64));
                (origin, obj)
            } else {
                let origin = Node::new(rng.random_range(0..N));
                let obj = ObjectId(rng.random_range(0..OBJECTS as u64));
                (origin, obj)
            }
        })
        .collect();
    let directory = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &directory);
    let config = EngineConfig {
        workers: 4,
        cache_capacity: 4096,
        cache_shards: 8,
    };
    let report = engine.serve(&queries, &config);
    println!(
        "served {} lookups on {} workers: {:.0} lookups/s, p50 = {:.1} us, p99 = {:.1} us, \
         cache hits = {}",
        report.served,
        config.workers,
        report.throughput(),
        report.latency.p50_us,
        report.latency.p99_us,
        report.cache_hits,
    );
    println!(
        "success = {:.1}%, mean stretch = {:.3}, max stretch = {:.3}, max hops = {}",
        report.success_rate() * 100.0,
        report.paths.mean_stretch(),
        report.paths.max_stretch,
        report.paths.max_hops,
    );
    assert_eq!(
        report.successes, LOOKUPS,
        "static snapshot must serve every lookup"
    );
    // 4. Adversarial churn: remove the 20% highest-degree nodes in 4
    //    waves, each taking the current hubs (coarsest net membership,
    //    then directory load). A wave's leaves are published first, so
    //    the batch shows the dip; `repair_published` then swaps the
    //    repaired state in under the same engine, and the batch (dead
    //    origins remapped to a survivor) is served in full again.
    const WAVES: usize = 4;
    let total = N / 5;
    println!("\ntargeted churn (hub-first, 20% of {N} nodes, {WAVES} waves):");
    let t0 = Instant::now();
    for wave in 0..WAVES {
        let mut hubs: Vec<Node> = (0..N)
            .map(Node::new)
            .filter(|&v| overlay.is_alive(v))
            .collect();
        hubs.sort_by_key(|&v| {
            let level = overlay.top_level_of(v).unwrap_or(0);
            (Reverse(level), Reverse(overlay.entries_at(v)), v)
        });
        hubs.truncate(total * (wave + 1) / WAVES - total * wave / WAVES);
        for &v in &hubs {
            overlay.leave(v);
        }
        let batch = survivors(&overlay, &queries);
        overlay.publish_snapshot(&space, &directory);
        let before = engine.serve(&batch, &config);
        let repair = overlay.repair_published(&space, &directory);
        let after = engine.serve(&batch, &config);
        println!(
            "  wave {}: -{} nodes ({} alive) | success {:>5.1}% -> repair \
             ({} writes, {} promotions, {} rehomed) -> {:>5.1}%, p99 = {:.1} us",
            wave + 1,
            hubs.len(),
            overlay.alive_count(),
            before.success_rate() * 100.0,
            repair.pointer_writes,
            repair.promotions,
            repair.rehomed,
            after.success_rate() * 100.0,
            after.latency.p99_us,
        );
        assert_eq!(
            after.successes, after.served,
            "repair must restore 100% lookup success"
        );
    }
    println!("churn done ({:.1?}): removed {total} nodes", t0.elapsed());

    // 5. Export what observability collected, if it was on.
    if rings_of_neighbors::obs::enabled() {
        println!("\nobservability registry:");
        print!("{}", rings_of_neighbors::obs::drain().render());
    }
    if rings_of_neighbors::obs::chrome_enabled() {
        let path =
            std::env::var("RON_TRACE_PATH").unwrap_or_else(|_| String::from("ron_trace.json"));
        match rings_of_neighbors::obs::write_chrome_trace(std::path::Path::new(&path)) {
            Ok(events) => println!("wrote {events} trace events to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// The batch with every dead origin replaced by the first alive node.
fn survivors(overlay: &DirectoryOverlay, queries: &[(Node, ObjectId)]) -> Vec<(Node, ObjectId)> {
    let alive_origin = (0..N)
        .map(Node::new)
        .find(|&v| overlay.is_alive(v))
        .expect("survivors exist");
    queries
        .iter()
        .map(|&(origin, obj)| {
            if overlay.is_alive(origin) {
                (origin, obj)
            } else {
                (alive_origin, obj)
            }
        })
        .collect()
}

/// Median out-degree from a degree histogram.
fn median_of_histogram(hist: &[usize]) -> usize {
    let total: usize = hist.iter().sum();
    let mut seen = 0usize;
    for (degree, &count) in hist.iter().enumerate() {
        seen += count;
        if seen * 2 >= total {
            return degree;
        }
    }
    0
}
