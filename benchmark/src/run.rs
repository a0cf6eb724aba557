//! One run of one workload: either the untraced rounds (set-up, then
//! the measured phases, several times over) that give the end-to-end
//! metrics, or the traced ladder that gives the per-layer ones.
//!
//! Every workload runs the same skeleton — build, publish, capture,
//! serve, churn epochs, live lookups — and differs in oracle, size,
//! cache, workers, whether the epochs run beside the reads, and where
//! the measured seconds go (see [`crate::spec::WORKLOADS`]).

use std::time::{Duration, Instant};

use ron_core::stats::nearest_rank;
use ron_location::ObjectId;
use ron_metric::{EuclideanMetric, MetricIndex, NetTreeIndex, Node};

use crate::inputs::{self, Query};
use crate::ladder;
use crate::phases::{
    check_after_churn, check_walks, churn_for, engine_config, live_lookups, serve_beside_churn,
    serve_for, EpochStats, LiveStats, ServeStats, Tally,
};
use crate::report::Report;
use crate::spec::{Workload, END_TO_END};
use crate::stack::{build, Backend, Counts, Serving, Stack, StageTimes};
use crate::trace::Tracer;

/// Builds one build phase does (a run makes one per round): a fixed
/// count, for the reason [`crate::phases::SERVE_BATCHES`] is one.
const BUILDS: usize = 5;
/// Pre-generated victim waves, cycled.
const WAVES: usize = 64;
/// Walks checked again after serving, spread evenly over the stream.
const CHECKED_WALKS: usize = 65_536;

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rounds of an untraced run, each on its own set-up; `setup_s` is
    /// the median of the set-ups.
    pub rounds: usize,
}

/// What one invocation found.
pub struct Outcome {
    pub report: Report,
    pub tally: Tally,
    pub tracer: Option<Tracer>,
}

/// A stack's points and the homes of its objects.
pub type StackInputs = (EuclideanMetric, Vec<(ObjectId, Node)>);

/// Everything generated from the seed before the first set-up. Generating
/// it is the benchmark's own work and is not part of `setup_s`
/// (`EuclideanMetric::new` alone, an O(n^2) distinctness check, is 0.4 s
/// at 16 384 points and moved 17 % with nothing but link layout).
pub struct Inputs {
    pub serving: StackInputs,
    /// The workload's own query stream (hot or walk).
    pub stream: Vec<Vec<Query>>,
    /// The separate build instance, when there is one.
    pub build: Option<StackInputs>,
    pub live: Vec<Query>,
}

impl Inputs {
    #[must_use]
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let stack = |i| (inputs::points(i, seed), inputs::homes(i, seed));
        Inputs {
            serving: stack(w.serving),
            stream: match w.hot_set {
                Some(set) => inputs::hot_batches(w.serving, seed, set, w.batches, w.batch),
                None => inputs::walk_batches(w.serving, seed, w.batches, w.batch),
            },
            build: w.build.map(stack),
            live: inputs::live_queries(w.build.unwrap_or(w.serving), seed, w.live_queries),
        }
    }
}

/// What one set-up leaves behind for the measured phases.
pub struct Ready<I> {
    pub serving: Serving<I>,
    pub waves: Vec<Vec<Node>>,
}

/// One set-up: build the serving stack, capture its first snapshot and
/// draw the victim schedule.
pub fn set_up<I: Backend>(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    tracer: Option<(&mut Tracer, u64)>,
) -> Ready<I> {
    let stack = build::<I>(inputs.serving.0.clone(), &inputs.serving.1, tracer);
    // Victims come from the fine half of the ladder only: taking out a
    // coarse net member is a rarer and far costlier event, and whether a
    // seed's schedule held one made epoch_publish_ms bimodal.
    let coarse = stack.overlay.levels() / 2;
    let waves = inputs::victim_waves(w.serving, seed, WAVES, w.wave, |v| {
        stack.overlay.top_level_of(v) < Some(coarse)
    });
    Ready {
        serving: Serving::capture(stack),
        waves,
    }
}

/// Runs the workload on its backend.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    match (args.workload.sparse, args.trace) {
        (false, false) => untraced::<MetricIndex>(args),
        (false, true) => ladder::traced::<MetricIndex>(args),
        (true, false) => untraced::<NetTreeIndex<EuclideanMetric>>(args),
        (true, true) => ladder::traced::<NetTreeIndex<EuclideanMetric>>(args),
    }
}

/// A share of the run's measured seconds.
#[must_use]
pub fn share(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// Builds the separate build instance over and over, [`BUILDS`] times
/// unless `budget` runs out first (at least twice), keeping the last
/// stack; every build must agree on every count.
pub fn build_for<I: Backend>(
    inputs: &StackInputs,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    builds: &mut Vec<(StageTimes, Counts)>,
) -> Stack<I> {
    let start = Instant::now();
    let before = builds.len();
    loop {
        let request = builds.len() as u64 + 1;
        let stack = build::<I>(
            inputs.0.clone(),
            &inputs.1,
            tracer.as_deref_mut().map(|t| (t, request)),
        );
        builds.push((stack.times, stack.counts));
        let built = builds.len() - before;
        if built >= BUILDS || (built >= 2 && start.elapsed() >= budget) {
            return stack;
        }
    }
}

/// Live-lookup passes, `count` of them unless `budget` runs out first (at
/// least one).
pub fn live_for<I: Backend>(
    stack: &Stack<I>,
    queries: &[Query],
    count: usize,
    budget: Duration,
) -> Vec<LiveStats> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || (passes.len() < count && start.elapsed() < budget) {
        passes.push(live_lookups(stack, queries, false));
    }
    passes
}

/// The gate on repeated builds: one seed, one set of counts.
pub fn check_builds_agree(builds: &[(StageTimes, Counts)], tally: &mut Tally) {
    if let Some(odd) = builds.iter().find(|b| b.1 != builds[0].1) {
        tally.violation(format!(
            "two builds of one seed disagree: {:?} vs {:?}",
            builds[0].1, odd.1
        ));
    }
}

/// `VmHWM` of this process, in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-pass `q`-quantile of the live-lookup latencies, in ms.
#[must_use]
pub fn live_quantiles(passes: &[LiveStats], q: f64) -> Vec<f64> {
    passes
        .iter()
        .map(|pass| nearest_rank(&pass.ms, q))
        .collect()
}

fn untraced<I: Backend>(args: &Args) -> Outcome {
    let w = &args.workload;
    let mut tally = Tally::default();
    let inputs = Inputs::generate(w, args.seed);
    let config = engine_config(w.workers, w.cache_capacity);
    // A round's share of the run's measured seconds.
    let slice = |s: f64| share(args.seconds, s / args.rounds as f64);

    // A run is `rounds` rounds of the whole skeleton, each on a set-up of
    // its own (one instance alive at a time, so peak_rss_mb is one
    // instance's): every metric takes its samples from all over the run,
    // and a neighbour's burst that outlasts a phase slows some of them,
    // not all.
    let mut setups = Vec::new();
    let mut setup_builds: Vec<(StageTimes, Counts)> = Vec::new();
    let mut builds: Vec<(StageTimes, Counts)> = Vec::new();
    let mut live = Vec::new();
    let mut served = ServeStats::default();
    let mut epochs = EpochStats::default();
    let mut build_counts = None;
    let mut last: Option<Ready<I>> = None;
    for _ in 0..args.rounds.max(1) {
        drop(last.take());
        let t = Instant::now();
        let mut ready = set_up::<I>(w, args.seed, &inputs, None);
        setups.push(t.elapsed().as_secs_f64());
        setup_builds.push((ready.serving.stack.times, ready.serving.stack.counts));

        // Repeated builds of the separate build instance, and live lookups.
        let built = inputs
            .build
            .as_ref()
            .map(|inputs| build_for::<I>(inputs, slice(w.build_share), None, &mut builds));
        let build_stack = built.as_ref().unwrap_or(&ready.serving.stack);
        live.extend(live_for(
            build_stack,
            &inputs.live,
            w.live_passes,
            slice(1.0 - w.build_share - w.serve_share - w.epoch_share),
        ));
        build_counts = Some(build_stack.counts);
        drop(built);

        // Serving, and the epochs beside it or after it.
        let (reads, writes) = if w.churn {
            serve_beside_churn(
                &mut ready.serving,
                &inputs.stream,
                &config,
                &ready.waves,
                slice(w.serve_share),
                None,
            )
        } else {
            let reads = serve_for(
                ready.serving.engine_space(),
                &ready.serving.cell,
                &inputs.stream,
                &config,
                slice(w.serve_share),
            );
            let writes = churn_for(&mut ready.serving, &ready.waves, slice(w.epoch_share), None);
            (reads, writes)
        };
        served.absorb(reads);
        epochs.absorb(writes);
        tally.absorb(check_after_churn(
            ready.serving.engine_space(),
            &ready.serving.cell,
            &ready.serving.stack.overlay,
            inputs.stream[0][0].0,
        ));
        last = Some(ready);
    }
    let ready = last.expect("at least one round");
    let build_counts = build_counts.expect("at least one round");

    // Each workload isolates its layer: the cache answers nothing on the
    // walk workloads and nearly everything on the hot one.
    let hit_share = served.cache_hits as f64 / served.served as f64;
    if w.hot_set.is_some() && hit_share < 0.99 {
        tally.violation(format!(
            "the cache answered only {hit_share} of the hot stream"
        ));
    }
    if w.cache_capacity == 0 && served.cache_hits != 0 {
        tally.violation(format!(
            "{} cache hits with the cache off",
            served.cache_hits
        ));
    }

    let total: usize = inputs.stream.iter().map(Vec::len).sum();
    let walks = check_walks(
        ready.serving.engine_space(),
        &ready.serving.cell,
        &ready.serving.stack.overlay,
        &inputs.stream,
        (total / CHECKED_WALKS).max(1),
    );
    let walked = (walks.tally.attempted - walks.tally.failed).max(1) as f64;
    tally.absorb(served.tally());
    for pass in &live {
        tally.absorb(pass.tally.clone());
    }

    // One seed, one set of counts, on every set-up and every build.
    check_builds_agree(&setup_builds, &mut tally);
    check_builds_agree(&builds, &mut tally);
    if w.build.is_none() {
        builds = setup_builds;
    }

    let mut report = Report::new(END_TO_END);
    report.median("setup_s", &setups);
    report.best_of("lookups_per_s", &served.throughput);
    report.best_quartile_mean_of("lookup_p50_us", &served.p50_us);
    report.best_of("lookup_p99_us", &served.p99_us);
    report.exact("stretch_mean", served.stretch_mean());
    report.exact("stretch_max", served.stretch_max);
    report.exact("hops_mean", walks.hops as f64 / walked);
    report.best_quartile_of("epoch_publish_ms", &epochs.publish_ms);
    let build_s: Vec<f64> = builds.iter().map(|b| b.0.build_s()).collect();
    report.best_of("build_s", &build_s);
    let publish_per_s: Vec<f64> = builds
        .iter()
        .map(|b| b.1.objects as f64 / b.0.publish_s)
        .collect();
    report.best_of("publish_per_s", &publish_per_s);
    report.best_of("live_lookup_p50_ms", &live_quantiles(&live, 0.50));
    report.best_of("live_lookup_p90_ms", &live_quantiles(&live, 0.90));
    report.exact(
        "bytes_per_node",
        (build_counts.index_bytes + build_counts.overlay_bytes) as f64 / build_counts.n as f64,
    );
    tally.absorb(walks.tally);
    report.exact("peak_rss_mb", peak_rss_mb());
    Outcome {
        report,
        tally,
        tracer: None,
    }
}
