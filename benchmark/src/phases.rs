//! The measured phases every run is made of: serving batches through
//! `QueryEngine::serve` (a closed loop of `workers` clients), churn
//! epochs, live lookups, and the checks of what they returned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ron_core::par;
use ron_location::{DirectoryOverlay, EngineConfig, EpochCell, QueryEngine, Snapshot};
use ron_metric::{BallOracle, EuclideanMetric, Node, Space};

use crate::estimate::{quartiles, sort};
use crate::inputs::Query;
use crate::spec::{CACHE_SHARDS, THREADS};
use crate::stack::{Backend, Serving, Stack};
use crate::trace::Tracer;

/// The paper's constant: a lookup path longer than 18 × the true
/// distance fails the run.
pub const STRETCH_LIMIT: f64 = 18.0;

/// Lookups attempted and failed, and the gate violations found.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    pub fn violation(&mut self, what: String) {
        // Keep the report readable when one fault repeats per query.
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }
}

/// Per-batch values of a serving phase, plus its exact totals.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    pub throughput: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub served: u64,
    pub failures: u64,
    pub cache_hits: u64,
    pub shard_hits: u64,
    pub shard_misses: u64,
    pub shard_stale: u64,
    pub stretch_sum: f64,
    pub stretch_max: f64,
}

impl ServeStats {
    /// The best batch's throughput, in queries/s.
    #[must_use]
    pub fn best_throughput(&self) -> f64 {
        quartiles(&self.throughput).max
    }

    /// Adds another pass's batches and totals to this one's.
    pub fn absorb(&mut self, other: ServeStats) {
        self.throughput.extend(other.throughput);
        self.p50_us.extend(other.p50_us);
        self.p99_us.extend(other.p99_us);
        self.served += other.served;
        self.failures += other.failures;
        self.cache_hits += other.cache_hits;
        self.shard_hits += other.shard_hits;
        self.shard_misses += other.shard_misses;
        self.shard_stale += other.shard_stale;
        self.stretch_sum += other.stretch_sum;
        self.stretch_max = self.stretch_max.max(other.stretch_max);
    }

    #[must_use]
    pub fn stretch_mean(&self) -> f64 {
        self.stretch_sum / (self.served - self.failures) as f64
    }

    #[must_use]
    pub fn tally(&self) -> Tally {
        let mut tally = Tally {
            attempted: self.served,
            failed: self.failures,
            violations: Vec::new(),
        };
        if self.stretch_max > STRETCH_LIMIT {
            tally.violation(format!(
                "served stretch {} > {STRETCH_LIMIT}",
                self.stretch_max
            ));
        }
        tally
    }
}

/// The engine configuration of a workload.
#[must_use]
pub fn engine_config(workers: usize, cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        workers,
        cache_capacity,
        cache_shards: CACHE_SHARDS,
    }
}

/// Batches one serving pass measures (a run makes one pass per round).
/// The count is fixed, not whatever fits the pass's seconds, so that the
/// best batch is the best of the same number of batches on a fast commit
/// as on a slow one; a workload's batch size is chosen so that they fill
/// most of its serving seconds.
pub const SERVE_BATCHES: usize = 25;

/// Serves `batches` in a cycle, [`SERVE_BATCHES`] of them unless `budget`
/// runs out first (at least two), after one discarded warm-up batch.
pub fn serve_for(
    space: &Space<EuclideanMetric>,
    cell: &EpochCell<Snapshot>,
    batches: &[Vec<Query>],
    config: &EngineConfig,
    budget: Duration,
) -> ServeStats {
    let engine = QueryEngine::new(space, cell);
    let mut stats = ServeStats::default();
    let _ = engine.serve(&batches[0], config);
    let start = Instant::now();
    let mut next = 1usize;
    while stats.throughput.len() < 2
        || (stats.throughput.len() < SERVE_BATCHES && start.elapsed() < budget)
    {
        let report = engine.serve(&batches[next % batches.len()], config);
        next += 1;
        stats.throughput.push(report.throughput());
        stats.p50_us.push(report.latency.p50_us);
        stats.p99_us.push(report.latency.p99_us);
        stats.served += report.served as u64;
        stats.failures += report.failures as u64;
        stats.cache_hits += report.cache_hits as u64;
        for shard in &report.cache_shards {
            stats.shard_hits += shard.hits;
            stats.shard_misses += shard.misses;
            stats.shard_stale += shard.stale;
        }
        stats.stretch_sum += report.paths.mean_stretch() * report.paths.count as f64;
        stats.stretch_max = stats.stretch_max.max(report.paths.max_stretch);
    }
    stats
}

/// Per-epoch values of a churn phase. An epoch is one
/// `repair_published`: plan, apply, capture, swap.
#[derive(Clone, Debug, Default)]
pub struct EpochStats {
    pub publish_ms: Vec<f64>,
    pub leave_us: Vec<f64>,
    pub join_us: Vec<f64>,
    pub repair_writes: Vec<f64>,
    // The rungs of one epoch; filled by traced runs only.
    pub plan_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub capture_ms: Vec<f64>,
    pub swap_us: Vec<f64>,
}

impl EpochStats {
    /// Adds another phase's epochs to this one's.
    pub fn absorb(&mut self, other: EpochStats) {
        self.publish_ms.extend(other.publish_ms);
        self.leave_us.extend(other.leave_us);
        self.join_us.extend(other.join_us);
        self.repair_writes.extend(other.repair_writes);
        self.plan_ms.extend(other.plan_ms);
        self.apply_ms.extend(other.apply_ms);
        self.capture_ms.extend(other.capture_ms);
        self.swap_us.extend(other.swap_us);
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// One epoch. Untraced it is `repair_published`; traced it is the same
/// four calls made one by one so each can be timed.
fn publish_epoch<I: Backend>(
    space: &Space<EuclideanMetric, I>,
    overlay: &mut DirectoryOverlay,
    cell: &EpochCell<Snapshot>,
    stats: &mut EpochStats,
    tracer: Option<&mut Tracer>,
    churn: (&'static str, Instant),
) {
    let t0 = Instant::now();
    let Some(tracer) = tracer else {
        let report = overlay.repair_published(space, cell);
        stats.publish_ms.push(ms(t0, Instant::now()));
        stats
            .repair_writes
            .push((report.pointer_writes + report.pointer_deletes) as f64);
        return;
    };
    let plan = overlay.control_plane().plan_repair(space);
    let t1 = Instant::now();
    let report = overlay.apply_plan(&plan);
    let t2 = Instant::now();
    let snapshot = Snapshot::capture(space, overlay);
    let t3 = Instant::now();
    cell.publish(snapshot);
    let t4 = Instant::now();
    stats.plan_ms.push(ms(t0, t1));
    stats.apply_ms.push(ms(t1, t2));
    stats.capture_ms.push(ms(t2, t3));
    stats.swap_us.push(ms(t3, t4) * 1e3);
    stats.publish_ms.push(ms(t0, t4));
    stats
        .repair_writes
        .push((report.pointer_writes + report.pointer_deletes) as f64);
    let epoch = stats.publish_ms.len() as u64;
    tracer.record_tree(
        "epoch",
        &[
            churn.0,
            "location.plan_repair",
            "location.apply_plan",
            "location.capture",
            "core.epoch_publish",
        ],
        &[churn.1, t0, t1, t2, t3, t4],
        epoch,
    );
}

/// Loops leave wave → epoch → join wave → epoch over `waves` until
/// `stop()` says so (checked between whole cycles, at least one cycle),
/// so every node is alive again when it returns.
pub fn churn_until<I: Backend>(
    space: &Space<EuclideanMetric, I>,
    overlay: &mut DirectoryOverlay,
    cell: &EpochCell<Snapshot>,
    waves: &[Vec<Node>],
    stop: impl Fn() -> bool,
    mut tracer: Option<&mut Tracer>,
) -> EpochStats {
    par::with_threads(THREADS, || {
        let mut stats = EpochStats::default();
        for wave in waves.iter().cycle() {
            let t = Instant::now();
            for &v in wave {
                overlay.leave(v);
            }
            stats
                .leave_us
                .push(t.elapsed().as_secs_f64() * 1e6 / wave.len() as f64);
            publish_epoch(
                space,
                overlay,
                cell,
                &mut stats,
                tracer.as_deref_mut(),
                ("location.leave", t),
            );
            let t = Instant::now();
            for &v in wave {
                overlay.join(space, v);
            }
            stats
                .join_us
                .push(t.elapsed().as_secs_f64() * 1e6 / wave.len() as f64);
            publish_epoch(
                space,
                overlay,
                cell,
                &mut stats,
                tracer.as_deref_mut(),
                ("location.join", t),
            );
            if stop() {
                break;
            }
        }
        stats
    })
}

/// Churn epochs for `budget`, nothing beside them.
pub fn churn_for<I: Backend>(
    serving: &mut Serving<I>,
    waves: &[Vec<Node>],
    budget: Duration,
    tracer: Option<&mut Tracer>,
) -> EpochStats {
    let start = Instant::now();
    churn_until(
        &serving.stack.space,
        &mut serving.stack.overlay,
        &serving.cell,
        waves,
        || start.elapsed() >= budget,
        tracer,
    )
}

/// The reader serves for `budget` on this thread while a writer thread
/// loops churn epochs; the writer finishes its cycle once the reader is
/// done. Only repaired states are ever published, so no read may fail.
pub fn serve_beside_churn<I: Backend>(
    serving: &mut Serving<I>,
    batches: &[Vec<Query>],
    config: &EngineConfig,
    waves: &[Vec<Node>],
    budget: Duration,
    tracer: Option<&mut Tracer>,
) -> (ServeStats, EpochStats) {
    let done = AtomicBool::new(false);
    let engine_space = I::engine_space(&serving.stack.space, &serving.twin);
    let (space, overlay, cell) = (
        &serving.stack.space,
        &mut serving.stack.overlay,
        &serving.cell,
    );
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            churn_until(
                space,
                overlay,
                cell,
                waves,
                // ordering: Acquire pairs with the reader's Release store
                // below; the flag only says "stop after this cycle".
                || done.load(Ordering::Acquire),
                tracer,
            )
        });
        let served = serve_for(engine_space, cell, batches, config, budget);
        // ordering: Release, so the writer's Acquire load sees the flag
        // after the reader's last batch.
        done.store(true, Ordering::Release);
        (served, writer.join().expect("churn writer panicked"))
    })
}

/// Per-call values of a live-lookup phase (`DirectoryOverlay::lookup`,
/// fingers found through the ball oracle on every call).
#[derive(Clone, Debug, Default)]
pub struct LiveStats {
    /// Per-call latencies, sorted ascending.
    pub ms: Vec<f64>,
    /// Time of the climb's `finger` calls alone, repeated after each
    /// lookup; filled on request only.
    pub fingers_ms: Vec<f64>,
    pub tally: Tally,
}

/// Looks every query up on the live overlay, checking home and stretch.
pub fn live_lookups<I: BallOracle>(
    stack: &Stack<I>,
    queries: &[Query],
    time_fingers: bool,
) -> LiveStats {
    let mut stats = LiveStats::default();
    for &(origin, obj) in queries {
        let t = Instant::now();
        let result = stack.overlay.lookup(&stack.space, origin, obj);
        stats.ms.push(t.elapsed().as_secs_f64() * 1e3);
        stats.tally.attempted += 1;
        let Ok(outcome) = result else {
            stats.tally.failed += 1;
            continue;
        };
        if Some(outcome.home) != stack.overlay.home_of(obj) {
            stats.tally.violation(format!(
                "live lookup of {obj} from {origin} ended at {}",
                outcome.home
            ));
        }
        let stretch = outcome.stretch(stack.space.dist(origin, outcome.home));
        if stretch > STRETCH_LIMIT {
            stats
                .tally
                .violation(format!("live stretch {stretch} > {STRETCH_LIMIT}"));
        }
        if time_fingers {
            let t = Instant::now();
            for level in 0..=outcome.found_level {
                std::hint::black_box(stack.overlay.finger(&stack.space, origin, level));
            }
            stats.fingers_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    sort(&mut stats.ms);
    stats
}

/// What walking a sample of the served queries again, one
/// `Snapshot::lookup` at a time, found.
#[derive(Clone, Debug, Default)]
pub struct WalkCheck {
    pub hops: u64,
    pub tally: Tally,
}

/// Looks every `stride`-th query of `batches` up in the published
/// snapshot and checks its home against the overlay's registry.
pub fn check_walks(
    space: &Space<EuclideanMetric>,
    cell: &EpochCell<Snapshot>,
    overlay: &DirectoryOverlay,
    batches: &[Vec<Query>],
    stride: usize,
) -> WalkCheck {
    let snapshot = cell.load();
    let mut check = WalkCheck::default();
    for &(origin, obj) in batches.iter().flatten().step_by(stride) {
        check.tally.attempted += 1;
        match snapshot.lookup(space, origin, obj) {
            Ok(outcome) => {
                if Some(outcome.home) != overlay.home_of(obj) {
                    check.tally.violation(format!(
                        "snapshot lookup of {obj} from {origin} ended at {}",
                        outcome.home
                    ));
                }
                check.hops += outcome.hops() as u64;
            }
            Err(_) => check.tally.failed += 1,
        }
    }
    check
}

/// After churn: every node is alive again and every object resolves,
/// from the published snapshot, to the home the overlay names.
pub fn check_after_churn(
    space: &Space<EuclideanMetric>,
    cell: &EpochCell<Snapshot>,
    overlay: &DirectoryOverlay,
    origin: Node,
) -> Tally {
    let mut tally = Tally::default();
    if overlay.alive_count() != overlay.len() {
        tally.violation(format!(
            "{} of {} nodes alive after churn",
            overlay.alive_count(),
            overlay.len()
        ));
    }
    let snapshot = cell.load();
    for &obj in overlay.objects() {
        tally.attempted += 1;
        match snapshot.lookup(space, origin, obj) {
            Ok(outcome) if Some(outcome.home) == overlay.home_of(obj) => {}
            Ok(outcome) => tally.violation(format!(
                "{obj} resolves to {} after churn, registry says {:?}",
                outcome.home,
                overlay.home_of(obj)
            )),
            Err(_) => tally.failed += 1,
        }
    }
    tally
}
