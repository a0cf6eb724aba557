//! The traced run: the same inputs, but the benchmark makes the calls
//! into each layer itself so each can be timed, one rung per call, with
//! spans around them. End-to-end metrics never come from here.

use std::time::{Duration, Instant};

use ron_core::stats::nearest_rank;
use ron_location::{EpochCell, Snapshot, DEFAULT_RING_FACTOR};
use ron_metric::{BallOracle, EuclideanMetric, Node, Space};

use crate::estimate::{mean, quartiles, sort};
use crate::inputs::{self, Query};
use crate::phases::{
    check_after_churn, churn_for, engine_config, live_lookups, serve_beside_churn, serve_for,
    ServeStats, Tally, STRETCH_LIMIT,
};
use crate::report::Report;
use crate::run::{build_for, check_builds_agree, set_up, share, Args, Inputs, Outcome};
use crate::spec::{HOT_CACHE, HOT_SET, PER_LAYER, THREADS};
use crate::stack::{Backend, Counts, Stack, StageTimes};
use crate::trace::Tracer;

/// One request span in this many walked queries.
const SPAN_EVERY: usize = 1024;
/// `EpochCell::load` is timed in blocks of this many loads.
const LOAD_BLOCK: usize = 1024;
/// Nodes the oracle rungs sample.
const ORACLE_NODES: usize = 64;
/// Live lookups whose finger calls are timed again on their own.
const FINGER_LOOKUPS: usize = 128;

/// Per-batch values of the traced walk pass, plus its exact totals.
#[derive(Default)]
struct WalkRungs {
    walk_p50_ns: Vec<f64>,
    walk_p99_ns: Vec<f64>,
    walk_mean_ns: Vec<f64>,
    throughput: Vec<f64>,
    hops: u64,
    probes: u64,
    found_levels: u64,
    stretch_max: f64,
    tally: Tally,
}

/// What `QueryEngine::serve_chunk` does per query, minus the cache, the
/// latency vector and the path statistics: load the epoch, walk.
fn traced_walks(
    space: &Space<EuclideanMetric>,
    cell: &EpochCell<Snapshot>,
    batches: &[Vec<Query>],
    budget: Duration,
    tracer: &mut Tracer,
) -> WalkRungs {
    let mut rungs = WalkRungs::default();
    let start = Instant::now();
    let mut request = 0usize;
    let mut walk_ns = Vec::new();
    for batch in batches.iter().cycle() {
        walk_ns.clear();
        let batch_start = Instant::now();
        for &(origin, obj) in batch {
            let t0 = Instant::now();
            let snapshot = cell.load();
            let t1 = Instant::now();
            let result = snapshot.lookup(space, origin, obj);
            let t2 = Instant::now();
            walk_ns.push((t2 - t1).as_nanos() as f64);
            rungs.tally.attempted += 1;
            match result {
                Ok(outcome) => {
                    rungs.hops += outcome.hops() as u64;
                    rungs.probes += outcome.probes;
                    rungs.found_levels += outcome.found_level as u64;
                    let stretch = outcome.stretch(space.dist(origin, outcome.home));
                    rungs.stretch_max = rungs.stretch_max.max(stretch);
                }
                Err(_) => rungs.tally.failed += 1,
            }
            if request.is_multiple_of(SPAN_EVERY) {
                tracer.record_tree(
                    "request",
                    &["core.epoch_load", "location.walk"],
                    &[t0, t1, t2],
                    request as u64,
                );
            }
            request += 1;
        }
        rungs
            .throughput
            .push(batch.len() as f64 / batch_start.elapsed().as_secs_f64());
        rungs.walk_mean_ns.push(mean(&walk_ns));
        sort(&mut walk_ns);
        rungs.walk_p50_ns.push(nearest_rank(&walk_ns, 0.50));
        rungs.walk_p99_ns.push(nearest_rank(&walk_ns, 0.99));
        if rungs.throughput.len() >= 2 && start.elapsed() >= budget {
            break;
        }
    }
    if rungs.stretch_max > STRETCH_LIMIT {
        rungs.tally.violation(format!(
            "walked stretch {} > {STRETCH_LIMIT}",
            rungs.stretch_max
        ));
    }
    rungs
}

/// ns per `EpochCell::load`, one value per block of [`LOAD_BLOCK`] loads.
fn epoch_load_blocks(cell: &EpochCell<Snapshot>, blocks: usize) -> Vec<f64> {
    (0..blocks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..LOAD_BLOCK {
                std::hint::black_box(cell.load());
            }
            t.elapsed().as_nanos() as f64 / LOAD_BLOCK as f64
        })
        .collect()
}

/// Per-node values of the oracle rungs on the build instance.
#[derive(Default)]
struct OracleRungs {
    fine_us: Vec<f64>,
    coarse_us: Vec<f64>,
    ball_us: Vec<f64>,
    ball_visited: u64,
    balls: u64,
}

/// `nearest_where` through `DirectoryOverlay::finger` at the bottom half
/// of the ladder and at its top four levels, and one publish-ring ball
/// at the middle level, from evenly spread nodes, for `budget` (at least
/// four nodes).
fn oracle_rungs<I: BallOracle>(stack: &Stack<I>, budget: Duration) -> OracleRungs {
    let levels = stack.overlay.levels();
    let fine = 0..levels.div_ceil(2);
    let coarse = levels.saturating_sub(4)..levels;
    let radius = DEFAULT_RING_FACTOR * stack.overlay.nets().radius(levels / 2);
    let n = stack.space.len();
    let mut rungs = OracleRungs::default();
    let start = Instant::now();
    for k in 0..ORACLE_NODES {
        let v = Node::new(k * (n / ORACLE_NODES).max(1) % n);
        for (range, out) in [
            (fine.clone(), &mut rungs.fine_us),
            (coarse.clone(), &mut rungs.coarse_us),
        ] {
            let calls = range.len() as f64;
            let t = Instant::now();
            for level in range {
                std::hint::black_box(stack.overlay.finger(&stack.space, v, level));
            }
            out.push(t.elapsed().as_secs_f64() * 1e6 / calls);
        }
        let t = Instant::now();
        let mut visited = 0u64;
        stack
            .space
            .index()
            .for_each_in_ball(v, radius, &mut |_, _| visited += 1);
        rungs.ball_us.push(t.elapsed().as_secs_f64() * 1e6);
        rungs.ball_visited += visited;
        rungs.balls += 1;
        if k >= 3 && start.elapsed() >= budget {
            break;
        }
    }
    rungs
}

fn build_rungs(report: &mut Report, builds: &[(StageTimes, Counts)]) {
    let times =
        |f: fn(&StageTimes) -> f64| -> Vec<f64> { builds.iter().map(|b| f(&b.0)).collect() };
    report.best_of("metric.index_build_s", &times(|t| t.index_s));
    report.best_of("nets.build_s", &times(|t| t.nets_s));
    report.best_of("core.rings_build_s", &times(|t| t.rings_s));
    report.best_of("location.directory_build_s", &times(|t| t.directory_s));
    report.best_of("location.publish_batch_s", &times(|t| t.publish_s));
    let c = builds[0].1;
    let n = c.n as f64;
    report.exact("metric.index_bytes_per_node", c.index_bytes as f64 / n);
    report.exact("nets.levels", c.levels as f64);
    report.exact("nets.members_total", c.members_total as f64);
    report.exact("core.ring_pointers_per_node", c.ring_pointers as f64 / n);
    report.exact("core.max_ring_size", c.max_ring_size as f64);
    report.exact(
        "location.entries_per_object",
        c.entries as f64 / c.objects as f64,
    );
}

/// The traced run of one workload.
pub fn traced<I: Backend>(args: &Args) -> Outcome {
    let w = &args.workload;
    let slice = |s: f64| share(args.seconds, s);
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let mut report = Report::new(PER_LAYER);

    let generated = Inputs::generate(w, args.seed);
    let mut ready = set_up::<I>(w, args.seed, &generated, Some((&mut tracer, 0)));
    let mut builds = vec![(ready.serving.stack.times, ready.serving.stack.counts)];
    let built = generated.build.as_ref().map(|inputs| {
        builds.clear();
        build_for::<I>(inputs, slice(0.10), Some(&mut tracer), &mut builds)
    });
    check_builds_agree(&builds, &mut tally);
    build_rungs(&mut report, &builds);

    // Oracle rungs and live lookups, on the build instance.
    let build_stack = built.as_ref().unwrap_or(&ready.serving.stack);
    let oracle = oracle_rungs(build_stack, slice(0.05));
    report.best_of("metric.nearest_where_fine_us", &oracle.fine_us);
    report.best_of("metric.nearest_where_coarse_us", &oracle.coarse_us);
    report.best_of("metric.ball_us", &oracle.ball_us);
    report.exact(
        "metric.ball_visited_per_call",
        oracle.ball_visited as f64 / oracle.balls as f64,
    );
    let live = live_lookups(
        build_stack,
        &generated.live[..FINGER_LOOKUPS.min(generated.live.len())],
        true,
    );
    report.exact(
        "location.live_lookup_fingers_share",
        live.fingers_ms.iter().sum::<f64>() / live.ms.iter().sum::<f64>(),
    );
    tally.absorb(live.tally);
    drop(built);

    // Both streams: the workload's own and the one it does not serve.
    let (walk, hot) = match w.hot_set {
        Some(_) => (
            inputs::walk_batches(w.serving, args.seed, 4, w.batch / 4),
            generated.stream,
        ),
        None => (
            generated.stream,
            inputs::hot_batches(w.serving, args.seed, HOT_SET, 2, w.batch * 4),
        ),
    };
    let walk_config = engine_config(1, 0);

    // The engine alone, cache off, one worker: what the rungs must add
    // up to.
    let serve = |stream: &[Vec<Query>], workers: usize, cache: usize, s: f64| -> ServeStats {
        serve_for(
            ready.serving.engine_space(),
            &ready.serving.cell,
            stream,
            &engine_config(workers, cache),
            slice(s),
        )
    };
    let alone = serve(&walk, 1, 0, 0.10);
    let alone_ns = 1e9 / alone.best_throughput();
    tally.absorb(alone.tally());

    let walks = traced_walks(
        ready.serving.engine_space(),
        &ready.serving.cell,
        &walk,
        slice(0.12),
        &mut tracer,
    );
    let walked = (walks.tally.attempted - walks.tally.failed).max(1) as f64;
    report.best_of("location.walk_ns_p50", &walks.walk_p50_ns);
    report.best_of("location.walk_ns_p99", &walks.walk_p99_ns);
    report.best_of("location.walk_ns_mean", &walks.walk_mean_ns);
    report.exact("location.walk_hops", walks.hops as f64 / walked);
    report.exact("location.walk_probes", walks.probes as f64 / walked);
    report.exact(
        "location.found_level_mean",
        walks.found_levels as f64 / walked,
    );
    report.exact(
        "trace.overhead_ratio",
        quartiles(&walks.throughput).max / alone.best_throughput(),
    );
    tally.absorb(walks.tally);

    // The rungs of one served query: epoch load + walk + what is left,
    // the engine's own overhead (two clock reads, the latency vector,
    // the path statistics).
    report.best_of(
        "core.epoch_load_ns",
        &epoch_load_blocks(&ready.serving.cell, 256),
    );
    let rungs_ns = report.value("core.epoch_load_ns").expect("just emitted")
        + report.value("location.walk_ns_mean").expect("just emitted");
    let residual_share = (alone_ns - rungs_ns) / alone_ns;
    report.exact("location.serve_ns_mean", alone_ns);
    report.exact("location.serve_residual_ns", alone_ns - rungs_ns);
    report.exact("location.serve_residual_share", residual_share);
    if residual_share > 0.25 {
        eprintln!(
            "warning: the engine's own overhead is {:.0} % of a served query; the rungs explain the rest",
            100.0 * residual_share
        );
    }

    // The cache rungs: the hot stream at one worker, then at two.
    let hot_one = serve(&hot, 1, HOT_CACHE, 0.08);
    let hot_two = serve(&hot, THREADS, HOT_CACHE, 0.08);
    let probes = (hot_one.shard_hits + hot_one.shard_misses + hot_one.shard_stale) as f64;
    report.exact(
        "location.cache_hit_ratio",
        hot_one.shard_hits as f64 / probes,
    );
    report.exact(
        "location.cache_stale_ratio",
        hot_one.shard_stale as f64 / probes,
    );
    report.exact("location.cache_hit_ns", 1e9 / hot_one.best_throughput());
    report.exact(
        "location.hot_scaling",
        hot_two.best_throughput() / hot_one.best_throughput(),
    );
    tally.absorb(hot_one.tally());
    tally.absorb(hot_two.tally());

    // ron_obs on: the same engine pass, recording.
    ron_obs::reset();
    ron_obs::set_enabled(true);
    let observed = serve(&walk, 1, 0, 0.08);
    ron_obs::set_enabled(false);
    let t = Instant::now();
    std::hint::black_box(ron_obs::drain());
    report.exact("obs.drain_ms", t.elapsed().as_secs_f64() * 1e3);
    report.exact(
        "obs.on_ratio",
        observed.best_throughput() / alone.best_throughput(),
    );
    tally.absorb(observed.tally());

    // The epoch rungs, beside the reads exactly when the workload's are.
    let mut writer_tracer = tracer.fork();
    let (beside, epochs) = if w.churn {
        serve_beside_churn(
            &mut ready.serving,
            &walk,
            &walk_config,
            &ready.waves,
            slice(0.22),
            Some(&mut writer_tracer),
        )
    } else {
        let epochs = churn_for(
            &mut ready.serving,
            &ready.waves,
            slice(0.14),
            Some(&mut writer_tracer),
        );
        let (reads, _) = serve_beside_churn(
            &mut ready.serving,
            &walk,
            &walk_config,
            &ready.waves,
            slice(0.08),
            None,
        );
        (reads, epochs)
    };
    tracer.absorb(writer_tracer);
    report.best_quartile_of("location.plan_repair_ms", &epochs.plan_ms);
    report.best_quartile_of("location.apply_plan_ms", &epochs.apply_ms);
    report.best_quartile_of("location.capture_ms", &epochs.capture_ms);
    report.best_quartile_of("core.epoch_publish_us", &epochs.swap_us);
    report.best_quartile_of("location.epoch_rungs_ms", &epochs.publish_ms);
    report.best_quartile_of("location.leave_us", &epochs.leave_us);
    report.best_quartile_of("location.join_us", &epochs.join_us);
    report.exact(
        "location.repair_writes_per_epoch",
        mean(&epochs.repair_writes),
    );
    report.exact(
        "location.snapshot_bytes_per_node",
        ready.serving.snapshot_bytes as f64 / ready.serving.stack.counts.n as f64,
    );
    report.exact(
        "location.churn_read_penalty",
        beside.best_throughput() / alone.best_throughput(),
    );
    // The central tail beside the writer: a stall that hits only some
    // batches moves this, not the best batch's p99.
    report.exact(
        "location.churn_p99_median_us",
        quartiles(&beside.p99_us).p50,
    );
    tally.absorb(beside.tally());
    tally.absorb(check_after_churn(
        ready.serving.engine_space(),
        &ready.serving.cell,
        &ready.serving.stack.overlay,
        walk[0][0].0,
    ));

    Outcome {
        report,
        tally,
        tracer: Some(tracer),
    }
}
