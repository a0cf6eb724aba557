//! What the benchmark declares: the four workloads, the end-to-end and
//! per-layer metric tables, and the `BENCHMARK.json` manifest generated
//! from them (a test pins the committed file to [`manifest_json`]).

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. End-to-end metrics carry the regression bound (a
/// share of the parent's median); per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the serving stack sees. Every workload emits every one
/// of these on an untraced run (README.md says what feeds each where).
/// The exact counts (stretch, hops, bytes, resident memory) are bounded at
/// about three times their widest spread (quartile distance over median)
/// over ten seeds. The timings are bounded by what the shared box does
/// to them in its noisy hours (README.md has a calm and a noisy series).
pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("lookups_per_s", "1/s", Higher, 0.15),
    e2e("lookup_p50_us", "us", Lower, 0.15),
    e2e("lookup_p99_us", "us", Lower, 0.25),
    e2e("stretch_mean", "ratio", Lower, 0.06),
    e2e("stretch_max", "ratio", Lower, 0.25),
    e2e("hops_mean", "hops", Lower, 0.07),
    e2e("epoch_publish_ms", "ms", Lower, 0.25),
    e2e("build_s", "s", Lower, 0.25),
    e2e("publish_per_s", "1/s", Higher, 0.25),
    e2e("live_lookup_p50_ms", "ms", Lower, 0.25),
    e2e("live_lookup_p90_ms", "ms", Lower, 0.25),
    e2e("bytes_per_node", "B", Lower, 0.03),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// One rung per call into a layer's public functions; a traced run emits
/// every one of these. README.md maps each to the end-to-end metric it
/// should move.
pub const PER_LAYER: &[MetricDecl] = &[
    layer("metric.index_build_s", "s", Lower),
    layer("metric.index_bytes_per_node", "B", Lower),
    layer("metric.nearest_where_fine_us", "us", Lower),
    layer("metric.nearest_where_coarse_us", "us", Lower),
    layer("metric.ball_us", "us", Lower),
    layer("metric.ball_visited_per_call", "count", Lower),
    layer("nets.build_s", "s", Lower),
    layer("nets.levels", "count", Lower),
    layer("nets.members_total", "count", Lower),
    layer("core.rings_build_s", "s", Lower),
    layer("core.ring_pointers_per_node", "count", Lower),
    layer("core.max_ring_size", "count", Lower),
    layer("core.epoch_load_ns", "ns", Lower),
    layer("core.epoch_publish_us", "us", Lower),
    layer("location.directory_build_s", "s", Lower),
    layer("location.publish_batch_s", "s", Lower),
    layer("location.entries_per_object", "count", Lower),
    layer("location.walk_ns_p50", "ns", Lower),
    layer("location.walk_ns_p99", "ns", Lower),
    layer("location.walk_ns_mean", "ns", Lower),
    layer("location.walk_hops", "hops", Lower),
    layer("location.walk_probes", "count", Lower),
    layer("location.found_level_mean", "count", Lower),
    layer("location.serve_ns_mean", "ns", Lower),
    layer("location.serve_residual_ns", "ns", Lower),
    layer("location.serve_residual_share", "ratio", Lower),
    layer("location.cache_hit_ratio", "ratio", Higher),
    layer("location.cache_stale_ratio", "ratio", Lower),
    layer("location.cache_hit_ns", "ns", Lower),
    layer("location.hot_scaling", "ratio", Higher),
    layer("location.capture_ms", "ms", Lower),
    layer("location.snapshot_bytes_per_node", "B", Lower),
    layer("location.plan_repair_ms", "ms", Lower),
    layer("location.apply_plan_ms", "ms", Lower),
    layer("location.leave_us", "us", Lower),
    layer("location.join_us", "us", Lower),
    layer("location.repair_writes_per_epoch", "count", Lower),
    layer("location.epoch_rungs_ms", "ms", Lower),
    layer("location.churn_read_penalty", "ratio", Higher),
    layer("location.churn_p99_median_us", "us", Lower),
    layer("location.live_lookup_fingers_share", "ratio", Lower),
    layer("obs.on_ratio", "ratio", Higher),
    layer("obs.drain_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 28;

/// `par` worker count for every build and repair, and the engine workers
/// of the traced scaling rung (never more than the box's two cores).
pub const THREADS: usize = 2;

/// One instance of the stack: `gen::perturbed_grid(side, 2, GRID_JITTER,
/// seed)` and its published objects. The jittered grid is the one
/// generator family whose ladder depth, ring sizes and bytes per node hold
/// still from seed to seed (README.md has the numbers), which a bound
/// taken across seeds needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instance {
    pub side: usize,
    pub objects: usize,
}

impl Instance {
    /// Number of nodes: `side * side`.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.side * self.side
    }
}

/// Jitter of every grid coordinate: the closest pair stays above 0.5, so
/// the aspect ratio, and with it the ladder depth, is the same on every
/// seed.
pub const GRID_JITTER: f64 = 0.25;

/// A workload: which oracle, which instances, how the engine is driven
/// and where the measured seconds go.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `Space::new_sparse` (net tree) instead of the dense `Space::new`.
    pub sparse: bool,
    /// The instance that is captured, served and churned.
    pub serving: Instance,
    /// The instance whose construction and live lookups are timed, when
    /// it is not the serving one (build timings then come from the
    /// measured phase, not from set-up).
    pub build: Option<Instance>,
    pub workers: usize,
    pub cache_capacity: usize,
    /// Queries per `QueryEngine::serve` call. A round serves a fixed
    /// number of batches (`phases::SERVE_BATCHES`); the size is chosen so
    /// that they fill most of the round's serving seconds.
    pub batch: usize,
    /// Pre-generated batches, cycled.
    pub batches: usize,
    /// Live lookups per pass and passes per round, sized the same way:
    /// a dense lookup takes microseconds, a sparse one half a millisecond.
    pub live_queries: usize,
    pub live_passes: usize,
    /// Queries drawn from a fixed working set of this many pairs instead
    /// of all (origin, object) pairs.
    pub hot_set: Option<usize>,
    /// Churn epochs run beside the reads instead of after them.
    pub churn: bool,
    /// Victims per leave/join wave.
    pub wave: usize,
    /// Shares of `--seconds` for repeated builds, serving and (when not
    /// `churn`) the epochs after it.
    pub build_share: f64,
    pub serve_share: f64,
    pub epoch_share: f64,
}

/// Cache of the hot workload and of the traced cache rungs: half the
/// engine default, in the default eight shards.
pub const HOT_CACHE: usize = 4096;
pub const CACHE_SHARDS: usize = 8;
/// Working set of the hot stream.
pub const HOT_SET: usize = 2048;

const DENSE: Instance = Instance {
    side: 64,
    objects: 1024,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-walk",
        why: "a 64 x 64 jittered grid, 3.7 M distinct (origin, object) pairs, cache off, one worker: every query pays the full climb and descent, so walk optimisations show here",
        sparse: false,
        serving: DENSE,
        build: None,
        workers: 1,
        cache_capacity: 0,
        batch: 125_000,
        batches: 8,
        live_queries: 2048,
        live_passes: 50,
        hot_set: None,
        churn: false,
        wave: 64,
        build_share: 0.0,
        serve_share: 0.60,
        epoch_share: 0.35,
    },
    Workload {
        name: "serve-hot",
        why: "2048-pair working set in a 4096-entry cache: the LRU and the epoch cell answer, the walk almost never; a walk change must not move it, a cache or cell change must",
        sparse: false,
        serving: DENSE,
        build: None,
        workers: 1,
        cache_capacity: HOT_CACHE,
        batch: 600_000,
        batches: 4,
        live_queries: 2048,
        live_passes: 50,
        hot_set: Some(HOT_SET),
        churn: false,
        wave: 64,
        build_share: 0.0,
        serve_share: 0.60,
        epoch_share: 0.35,
    },
    Workload {
        name: "serve-churn",
        why: "serve-walk's reads beside a writer looping leave, repair, join, repair: capture and the cell swap run on the second core, so a read gain bought with a heavier snapshot shows",
        sparse: false,
        serving: DENSE,
        build: None,
        workers: 1,
        cache_capacity: 0,
        batch: 200_000,
        batches: 8,
        live_queries: 2048,
        live_passes: 50,
        hot_set: None,
        churn: true,
        wave: 64,
        build_share: 0.0,
        serve_share: 0.95,
        epoch_share: 0.0,
    },
    Workload {
        name: "build-sparse",
        why: "a 128 x 128 jittered grid on the net-tree oracle, built repeatedly, then live lookups: construction and nearest_where do the work, the snapshot and engine only on a 576-node probe",
        sparse: true,
        serving: Instance {
            side: 24,
            objects: 144,
        },
        build: Some(Instance {
            side: 128,
            objects: 4096,
        }),
        workers: 1,
        cache_capacity: 0,
        batch: 25_000,
        batches: 4,
        live_queries: 1024,
        live_passes: 2,
        hot_set: None,
        churn: false,
        wave: 16,
        build_share: 0.50,
        serve_share: 0.10,
        epoch_share: 0.20,
    },
];

impl Workload {
    /// Looks a workload up by its manifest name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The CI-sized variant (`--smoke`): same shape, a 24 x 24 grid to
    /// serve from and a 64 x 64 one to build sparse, batches and working
    /// set 25 times smaller.
    #[must_use]
    pub fn smoke(mut self) -> Workload {
        let shrink = |i: Instance, side: usize| Instance {
            side: i.side.min(side),
            objects: i.objects.min(side * side / 4),
        };
        self.serving = shrink(self.serving, 24);
        self.build = self.build.map(|b| shrink(b, 64));
        self.batch = (self.batch / 25).max(1);
        self.hot_set = self.hot_set.map(|set| set / 25);
        self.wave = self.wave.min(16);
        self
    }
}

fn push_decl(out: &mut String, m: &MetricDecl) {
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        m.better.as_str()
    );
    if let Some(b) = m.bound {
        let _ = write!(out, ", \"bound\": {b}");
    }
    out.push('}');
}

/// The text of `BENCHMARK.json`, generated from the tables above.
#[must_use]
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"ron-benchmark\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n");
    for (key, table, last) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, m) in table.iter().enumerate() {
            push_decl(&mut out, m);
            out.push_str(if i + 1 < table.len() { ",\n" } else { "\n" });
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}
