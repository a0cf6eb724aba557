//! Cross-validation and determinism properties of the simulator.
//!
//! * For zero-latency, failure-free configurations, the simulated
//!   directory lookups and greedy small-world routes are **identical**
//!   (answers, hop counts, found levels) to the in-process
//!   `DirectoryOverlay::lookup` and `GreedyModel::query` on all four
//!   instance families.
//! * For a fixed seed, the full event-trace fingerprint is identical
//!   across repeated runs and across `RON_THREADS` settings.
//! * Simulated greedy hop counts stay `O(log n)` across
//!   `n in {256, 1024, 4096}` — Theorem 5.2 measured at message level.

use proptest::prelude::*;
use ron_core::par;
use ron_location::{DirectoryOverlay, EngineConfig, EpochCell, ObjectId, QueryEngine, Snapshot};
use ron_metric::{gen, Metric, Node, Space};
use ron_sim::directory::{DirectoryMsg, DirectoryNode};
use ron_sim::greedy::{GreedyNode, GreedyPacket};
use ron_sim::{ConstantLatency, LognormalLatency, Resolution, SimConfig, SimReport, Simulator};
use ron_smallworld::GreedyModel;

/// Runs simulated lookups for every (origin, object) pair over an
/// instantaneous, failure-free network and asserts exact agreement with
/// the in-process lookups.
fn cross_validate_directory<M: Metric>(space: &Space<M>, objects: usize, stride: usize) {
    let n = space.len();
    let mut overlay = DirectoryOverlay::build(space);
    for i in 0..objects {
        overlay.publish(space, ObjectId(i as u64), Node::new((i * stride + 1) % n));
    }
    let mut sim = Simulator::new(
        DirectoryNode::fleet(space, &overlay),
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    let mut expect = Vec::new();
    for s in space.nodes() {
        for &obj in overlay.objects() {
            sim.inject(0.0, s, DirectoryMsg::Lookup { obj });
            expect.push(overlay.lookup(space, s, obj).expect("static overlay"));
        }
    }
    let report = sim.run();
    assert_eq!(report.completed, expect.len(), "all lookups must complete");
    for (record, out) in report.records.iter().zip(&expect) {
        assert_eq!(
            record.resolution,
            Resolution::Delivered {
                at: out.home,
                detail: out.found_level as u64
            },
            "answer mismatch from {}",
            record.origin
        );
        assert_eq!(
            record.hops as usize,
            out.hops(),
            "hop mismatch from {}",
            record.origin
        );
    }
}

/// Simulates greedy routes for sampled pairs and asserts exact agreement
/// with the in-process queries; returns the report.
fn cross_validate_greedy<M: Metric>(
    space: &Space<M>,
    model: &GreedyModel,
    pairs: usize,
) -> SimReport {
    let n = space.len();
    let budget = model.hop_budget() as u32;
    let mut sim = Simulator::new(
        GreedyNode::fleet(model.contacts()),
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    let picked: Vec<(Node, Node)> = (0..pairs)
        .map(|k| (Node::new((k * 131 + 7) % n), Node::new((k * 197 + 89) % n)))
        .collect();
    for &(src, tgt) in &picked {
        sim.inject(
            0.0,
            src,
            GreedyPacket {
                target: tgt,
                hops_left: budget,
            },
        );
    }
    let report = sim.run();
    for (record, &(src, tgt)) in report.records.iter().zip(&picked) {
        let expect = model
            .query(space, src, tgt)
            .unwrap_or_else(|| panic!("in-process greedy failed {src} -> {tgt}"));
        assert_eq!(
            record.resolution,
            Resolution::Delivered { at: tgt, detail: 0 },
            "{src} -> {tgt}"
        );
        assert_eq!(record.hops as usize, expect.hops(), "{src} -> {tgt}");
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn directory_matches_in_process_on_cubes(n in 24usize..56, seed in 0u64..200) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        cross_validate_directory(&space, 4, 13);
    }

    #[test]
    fn directory_matches_in_process_on_clusters(
        n in 24usize..48,
        clusters in 2usize..6,
        seed in 0u64..100,
    ) {
        let space = Space::new(gen::clustered(n, 2, clusters, 0.01, seed));
        cross_validate_directory(&space, 4, 11);
    }

    #[test]
    fn directory_matches_in_process_on_grids(side in 4usize..7, seed in 0u64..100) {
        let space = Space::new(gen::perturbed_grid(side, 2, 0.2, seed));
        cross_validate_directory(&space, 4, 7);
    }

    #[test]
    fn directory_matches_in_process_on_exponential_lines(n in 8usize..20, objs in 1usize..5) {
        let space = Space::new(gen::exponential_line(n));
        cross_validate_directory(&space, objs, 3);
    }

    #[test]
    fn greedy_matches_in_process_on_cubes(n in 32usize..64, seed in 0u64..100) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        let model = GreedyModel::sample(&space, 2.0, seed ^ 0x5a);
        cross_validate_greedy(&space, &model, 40);
    }

    #[test]
    fn greedy_matches_in_process_on_clusters(n in 32usize..56, seed in 0u64..100) {
        let space = Space::new(gen::clustered(n, 2, 4, 0.01, seed));
        let model = GreedyModel::sample(&space, 2.0, seed ^ 0xa5);
        cross_validate_greedy(&space, &model, 40);
    }

    #[test]
    fn greedy_matches_in_process_on_grids(side in 5usize..7, seed in 0u64..100) {
        let space = Space::new(gen::perturbed_grid(side, 2, 0.2, seed));
        let model = GreedyModel::sample(&space, 2.0, seed ^ 0x3c);
        cross_validate_greedy(&space, &model, 40);
    }

    #[test]
    fn greedy_matches_in_process_on_exponential_lines(n in 12usize..28, seed in 0u64..100) {
        let space = Space::new(gen::exponential_line(n));
        let model = GreedyModel::sample(&space, 3.0, seed);
        cross_validate_greedy(&space, &model, 30);
    }
}

/// Deterministic pseudo-random samples for the statistics properties.
fn random_samples(seed: u64, len: usize) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0.0..1000.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The unified nearest-rank percentile helper matches the reference
    /// definition (smallest sample covering a q-fraction) on random
    /// sample sets.
    #[test]
    fn percentiles_match_brute_force_reference(seed in 0u64..10_000, len in 1usize..200) {
        let samples = random_samples(seed, len);
        let p = ron_sim::Percentiles::of(samples.clone());
        let mut sorted = samples;
        sorted.sort_by(f64::total_cmp);
        let reference = |q: f64| {
            let need = (q * sorted.len() as f64).ceil() as usize;
            *sorted
                .iter()
                .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() >= need)
                .expect("nonempty")
        };
        prop_assert_eq!(p.p50, reference(0.50));
        prop_assert_eq!(p.p90, reference(0.90));
        prop_assert_eq!(p.p99, reference(0.99));
        prop_assert_eq!(p.max, *sorted.last().expect("nonempty"));
        prop_assert_eq!(p.count, sorted.len());
    }

    /// Every node lands in exactly one power-of-two load bucket: the
    /// histogram totals always equal the node count.
    #[test]
    fn load_histogram_totals_equal_node_count(seed in 0u64..10_000, len in 1usize..128) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let loads: Vec<u64> = (0..len).map(|_| rng.random_range(0..5000)).collect();
        let report = SimReport {
            queries: 0,
            completed: 0,
            messages: ron_sim::MessageCounts::default(),
            latency: ron_sim::Percentiles::default(),
            hops: ron_sim::Percentiles::default(),
            node_sent: vec![0; loads.len()],
            node_received: loads,
            phases: Vec::new(),
            records: Vec::new(),
            trace_fingerprint: 0,
            end_time: 0.0,
        };
        let total: u64 = report.load_histogram_pow2().iter().sum();
        prop_assert_eq!(total as usize, report.node_received.len());
    }
}

/// One full build + simulate pass with latency jitter, drops and a
/// mid-run crash burst; returns the trace fingerprint.
fn fingerprint_run(seed: u64) -> u64 {
    let space = Space::new(gen::uniform_cube(96, 2, 31));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..12)
        .map(|i| (ObjectId(i as u64), Node::new((i * 17 + 3) % 96)))
        .collect();
    overlay.publish_batch(&space, &items);
    let mut sim = Simulator::new(
        DirectoryNode::fleet(&space, &overlay),
        |u, v| space.dist(u, v),
        LognormalLatency {
            scale: 100.0,
            floor: 0.2,
            sigma: 0.4,
        },
        SimConfig {
            seed,
            drop_prob: 0.05,
            timeout: Some(500.0),
        },
    );
    // A crash burst mid-run.
    for k in 0..8usize {
        sim.crash_at(40.0 + k as f64, Node::new((k * 23 + 5) % 96));
    }
    for q in 0..400usize {
        let origin = Node::new((q * 37 + 1) % 96);
        let obj = ObjectId((q % items.len()) as u64);
        sim.inject(q as f64 * 0.25, origin, DirectoryMsg::Lookup { obj });
    }
    sim.run().trace_fingerprint
}

/// Acceptance: the full event trace is byte-identical for a fixed seed,
/// regardless of the thread count used to build the structures, and
/// across repeated runs.
#[test]
fn trace_fingerprint_is_identical_across_thread_counts_and_reruns() {
    let single = par::with_threads(1, || fingerprint_run(77));
    let parallel = par::with_threads(4, || fingerprint_run(77));
    let again = fingerprint_run(77);
    assert_eq!(single, parallel, "RON_THREADS must not change the trace");
    assert_eq!(single, again, "reruns must replay the identical trace");
    let other_seed = fingerprint_run(78);
    assert_ne!(single, other_seed, "the seed must actually matter");
}

/// The tests below toggle the process-global obs state (enabled flag,
/// registry) and drain it; the harness runs
/// tests concurrently, so they serialize here.
fn obs_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static OBS_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    OBS_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One build + publish + engine-serve + simulate pass on an arbitrary
/// space — every instrumented layer end to end (construction stages,
/// the publish batch, engine lookups and cache counters, sim grams and
/// phases) — returning the sim's trace fingerprint.
fn fingerprint_run_on<M: Metric>(space: &Space<M>, seed: u64) -> u64 {
    let n = space.len();
    let mut overlay = DirectoryOverlay::build(space);
    let items: Vec<(ObjectId, Node)> = (0..8)
        .map(|i| (ObjectId(i as u64), Node::new((i * 17 + 3) % n)))
        .collect();
    overlay.publish_batch(space, &items);
    let cell = EpochCell::new(Snapshot::capture(space, &overlay));
    let engine = QueryEngine::new(space, &cell);
    let queries: Vec<(Node, ObjectId)> = (0..64)
        .map(|q| (Node::new((q * 37 + 1) % n), ObjectId((q % 8) as u64)))
        .collect();
    let _ = engine.serve(&queries, &EngineConfig::default());
    let mut sim = Simulator::new(
        DirectoryNode::fleet(space, &overlay),
        |u, v| space.dist(u, v),
        LognormalLatency {
            scale: 100.0,
            floor: 0.2,
            sigma: 0.4,
        },
        SimConfig {
            seed,
            drop_prob: 0.05,
            timeout: Some(500.0),
        },
    );
    sim.mark_phase(0.0, "steady");
    for q in 0..120usize {
        let origin = Node::new((q * 37 + 1) % n);
        let obj = ObjectId((q % items.len()) as u64);
        sim.inject(q as f64 * 0.25, origin, DirectoryMsg::Lookup { obj });
    }
    sim.run().trace_fingerprint
}

/// Acceptance: observability is provably non-perturbing on one
/// instance family. The sim trace fingerprint is byte-identical with
/// obs off, on, on across thread counts, and back off again — and the
/// observed passes actually recorded the sim's and the walk's metrics.
fn assert_obs_non_perturbing<M: Metric>(space: &Space<M>, seed: u64) {
    let baseline = fingerprint_run_on(space, seed);
    ron_obs::set_enabled(true);
    ron_obs::reset();
    let observed = fingerprint_run_on(space, seed);
    let observed_parallel = par::with_threads(4, || fingerprint_run_on(space, seed));
    let registry = ron_obs::drain();
    ron_obs::set_enabled(false);
    ron_obs::reset();
    let after = fingerprint_run_on(space, seed);
    assert_eq!(
        baseline, observed,
        "enabling obs must not change the event schedule"
    );
    assert_eq!(
        observed, observed_parallel,
        "obs + RON_THREADS must not change the trace"
    );
    assert_eq!(baseline, after, "disabling obs must restore silence");
    assert!(
        registry.counter_prefix_sum("sim.gram") > 0,
        "the observed runs must have recorded gram counts"
    );
    assert!(
        registry.counter_prefix_sum("sim.deliveries") > 0,
        "per-phase delivery counters must have recorded"
    );
    assert!(
        registry
            .histograms
            .keys()
            .any(|k| k.starts_with("lookup.hops")),
        "engine lookups must have recorded hop histograms"
    );
}

/// Acceptance: recording metrics leaves the sim's trace fingerprint
/// byte-identical on all four generator families.
#[test]
fn obs_does_not_perturb_the_trace_on_any_family() {
    let _lock = obs_state_lock();
    assert_obs_non_perturbing(&Space::new(gen::uniform_cube(48, 2, 9)), 101);
    assert_obs_non_perturbing(&Space::new(gen::clustered(40, 2, 3, 0.01, 7)), 102);
    assert_obs_non_perturbing(&Space::new(gen::perturbed_grid(6, 2, 0.2, 5)), 103);
    assert_obs_non_perturbing(&Space::new(gen::exponential_line(16)), 104);
}

/// Acceptance: observability is provably non-perturbing. With metrics
/// recording enabled the trace fingerprint is byte-identical to the
/// disabled run, across reruns and thread counts — the instrumentation
/// counts the schedule but never steers it — and the obs registry
/// actually saw the run (gram counters match is checked loosely via
/// non-emptiness; exact accounting lives in the engine's own tests).
#[test]
fn obs_instrumentation_does_not_perturb_the_trace() {
    let _lock = obs_state_lock();
    let baseline = fingerprint_run(91);
    ron_obs::set_enabled(true);
    ron_obs::reset();
    let observed = fingerprint_run(91);
    let observed_parallel = par::with_threads(4, || fingerprint_run(91));
    let registry = ron_obs::drain();
    ron_obs::set_enabled(false);
    ron_obs::reset();
    let after = fingerprint_run(91);
    assert_eq!(
        baseline, observed,
        "enabling obs must not change the event schedule"
    );
    assert_eq!(
        observed, observed_parallel,
        "obs + RON_THREADS must not change the trace"
    );
    assert_eq!(baseline, after, "disabling obs must restore silence");
    assert!(
        registry.counter_prefix_sum("sim.gram") > 0,
        "the observed runs must actually have recorded gram counts"
    );
    assert!(
        registry.counter_prefix_sum("sim.deliveries") > 0,
        "per-phase delivery counters must have recorded"
    );
}

/// Acceptance: simulated greedy hop counts grow like O(log n) across
/// n in {256, 1024, 4096} — each size stays under a fixed multiple of
/// log2 n, at message level with every route completing.
#[test]
fn greedy_message_chains_stay_logarithmic_in_n() {
    let mut means = Vec::new();
    for &n in &[256usize, 1024, 4096] {
        let space = Space::new(gen::uniform_cube(n, 2, 1105));
        let model = GreedyModel::sample(&space, 2.0, 5);
        let report = cross_validate_greedy(&space, &model, 64);
        let log2n = (n as f64).log2();
        assert_eq!(report.completed, 64, "n = {n}");
        assert!(
            report.hops.max <= 4.0 * log2n + 8.0,
            "n = {n}: max hops {} exceed O(log n) envelope",
            report.hops.max
        );
        means.push((log2n, report.hops.mean));
    }
    // Mean hops may not grow faster than linearly in log n (with slack):
    // quadruple the nodes, gain at most a constant-factor of the extra
    // log levels.
    let (l0, m0) = means[0];
    let (l2, m2) = means[2];
    assert!(
        m2 <= (m0.max(1.0)) * (l2 / l0) * 2.0 + 4.0,
        "mean hops grew super-logarithmically: {means:?}"
    );
}
