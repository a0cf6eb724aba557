//! Dynamics: join/leave, incremental repair, and churn schedules.
//!
//! A `leave` deletes a node's pointer tables and net memberships; a `join`
//! re-inserts a node greedily into the ladder. [`DirectoryOverlay::repair`]
//! then restores the two serving invariants incrementally:
//!
//! 1. **covering** — every alive node is within `r_j` of an alive
//!    level-`j` member (uncovered nodes are promoted, preserving the
//!    nesting `G_j ⊆ G_{j-1}`);
//! 2. **publish** — every alive member of `B_h(c r_j) ∩ G_j` holds the
//!    level-`j` entry for each object homed at `h`, pointing down the
//!    (current) zoom chain; objects whose home died are re-homed to the
//!    nearest alive node first.
//!
//! Repair is incremental: only objects whose rings or chains could have
//! been affected by the membership changes accumulated since the last
//! repair (`touched` sets) are reconciled, DRFE-R-style, and the report
//! counts the work (promotions, pointer writes/deletes, re-homings).
//!
//! [`drive_churn`] replays random or targeted (hub-first) removal
//! schedules in steps, sampling lookup success and stretch before and
//! after each repair.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use ron_core::publish::EpochCell;
use ron_metric::{BallOracle, Metric, Node, Space};
use ron_routing::PathStats;

use crate::authority::RepairPlan;
use crate::directory::DirectoryOverlay;
use crate::engine::Snapshot;

/// Work performed by one [`DirectoryOverlay::repair`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Nodes inserted into net levels to restore covering.
    pub promotions: usize,
    /// Directory entries written (new or re-targeted).
    pub pointer_writes: usize,
    /// Stale directory entries deleted.
    pub pointer_deletes: usize,
    /// Objects migrated to a new home because theirs died.
    pub rehomed: usize,
    /// Objects whose placement was reconciled (the incremental subset).
    pub objects_touched: usize,
}

impl RepairReport {
    /// Accumulates another report (for totals over churn steps).
    pub fn absorb(&mut self, other: &RepairReport) {
        self.promotions += other.promotions;
        self.pointer_writes += other.pointer_writes;
        self.pointer_deletes += other.pointer_deletes;
        self.rehomed += other.rehomed;
        self.objects_touched += other.objects_touched;
    }
}

impl DirectoryOverlay {
    /// Brings a dead node back: marks it alive and inserts it greedily
    /// into the ladder (the control plane's [`note_join`]). Pointer
    /// backfill happens at the next [`repair`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is already alive.
    ///
    /// [`note_join`]: crate::RepairAuthority::note_join
    /// [`repair`]: DirectoryOverlay::repair
    pub fn join<M: Metric, I: BallOracle>(&mut self, space: &Space<M, I>, v: Node) {
        self.control.note_join(space, v);
        self.epoch += 1;
    }

    /// Removes a node: its pointer tables are lost, its net memberships
    /// vacated (the control plane's [`note_leave`]). Directory damage
    /// persists until [`repair`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is already dead, or if it is the last alive node.
    ///
    /// [`note_leave`]: crate::RepairAuthority::note_leave
    /// [`repair`]: DirectoryOverlay::repair
    pub fn leave(&mut self, v: Node) {
        self.control.note_leave(v);
        self.tables.clear_node(v);
        self.epoch += 1;
    }

    /// Restores the covering and publish invariants after any sequence of
    /// joins and leaves; afterwards every lookup from an alive origin
    /// succeeds again. Returns the work performed.
    ///
    /// The control plane [plans] the epoch in place — covering
    /// promotions, re-homings, incremental pointer reconciliation — and
    /// the plan's pointer operations are then applied to the tables. The
    /// message-passing simulator runs the same planner on its
    /// coordinator's copy of the control plane and applies the same
    /// operations as a message fan-out.
    ///
    /// [plans]: crate::RepairAuthority::plan_repair
    pub fn repair<M: Metric, I: BallOracle>(&mut self, space: &Space<M, I>) -> RepairReport {
        let _span = ron_obs::span("repair.epoch");
        let plan = self.control.plan_repair(space);
        self.apply_ops(&plan)
    }

    /// Applies a repair plan made on a detached
    /// [control plane](DirectoryOverlay::control_plane): replays its
    /// promotions, re-homings and placements onto this overlay's control
    /// plane (which consumes the touched sets), then executes the
    /// per-node pointer operations exactly as
    /// [`repair`](DirectoryOverlay::repair) does.
    ///
    /// Applying a plan bumps the overlay
    /// [epoch](DirectoryOverlay::epoch). Under epoch publication the
    /// mutable overlay *is* the successor under construction — readers
    /// only ever see published [`Snapshot`](crate::engine::Snapshot)s, so
    /// no clone is needed; capture-and-publish after the apply makes the
    /// repaired state visible atomically (see
    /// [`repair_published`](DirectoryOverlay::repair_published)).
    pub fn apply_plan(&mut self, plan: &RepairPlan) -> RepairReport {
        self.control.absorb(plan);
        self.apply_ops(plan)
    }

    /// The data-plane half of a repair: executes the plan's per-node
    /// pointer operations, counting the writes and deletes that actually
    /// changed a table (the distributed path counts the same thing in
    /// per-node acks).
    fn apply_ops(&mut self, plan: &RepairPlan) -> RepairReport {
        let _stage = ron_obs::stage("repair");
        let t = ron_obs::start();
        self.epoch += 1;
        let mut report = plan.report_base();
        for nr in &plan.node_repairs {
            let (writes, deletes) = self.tables.node_mut(nr.node).apply(&nr.ops);
            report.pointer_writes += writes;
            report.pointer_deletes += deletes;
        }
        ron_obs::finish("repair.apply", t);
        report
    }

    /// Repairs the overlay and atomically publishes the repaired state to
    /// `cell`: plan the epoch, apply it to this (unpublished, mutable)
    /// overlay, then capture-and-swap a fresh [`Snapshot`]. Readers keep
    /// serving the previous publication at full rate throughout and see
    /// the repaired directory only as one complete state — never a
    /// half-applied plan.
    ///
    /// Returns the repair work performed, exactly as
    /// [`repair`](DirectoryOverlay::repair) would.
    pub fn repair_published<M: Metric, I: BallOracle>(
        &mut self,
        space: &Space<M, I>,
        cell: &EpochCell<Snapshot>,
    ) -> RepairReport {
        let report = self.repair(space);
        self.publish_snapshot(space, cell);
        report
    }
}

/// A removal schedule for [`drive_churn`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnSchedule {
    /// Remove uniformly random alive nodes (seeded, reproducible).
    Random {
        /// Fraction of the initially alive nodes to remove, in `(0, 1)`.
        fraction: f64,
        /// Seed for the victim shuffle.
        seed: u64,
    },
    /// Remove the highest-degree nodes first: coarsest net membership,
    /// then directory load — the adversarial hub attack.
    Targeted {
        /// Fraction of the initially alive nodes to remove, in `(0, 1)`.
        fraction: f64,
    },
}

/// Driver configuration: how many steps to split the schedule into and
/// how many sample queries to measure per step.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Number of removal steps (each followed by one repair).
    pub steps: usize,
    /// Sampled `(origin, object)` queries measured before and after each
    /// repair.
    pub queries_per_step: usize,
    /// Seed for query sampling.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            steps: 4,
            queries_per_step: 256,
            seed: 0x0b1ec7,
        }
    }
}

/// Success and stretch over a sample of lookups.
#[derive(Clone, Debug, Default)]
pub struct QuerySample {
    /// Queries attempted.
    pub queries: usize,
    /// Queries that located the current home.
    pub successes: usize,
    /// Path statistics over the successful lookups.
    pub paths: PathStats,
}

impl QuerySample {
    /// Fraction of sampled lookups that succeeded (`1.0` when empty).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.successes as f64 / self.queries as f64
        }
    }
}

/// One churn step: removals, degradation, repair, recovery.
#[derive(Clone, Debug)]
pub struct ChurnStep {
    /// Nodes removed this step.
    pub removed: usize,
    /// Alive nodes after the removals.
    pub alive_after: usize,
    /// Sampled lookups after the removals, before repair.
    pub before_repair: QuerySample,
    /// Repair work performed.
    pub repair: RepairReport,
    /// Sampled lookups after repair.
    pub after_repair: QuerySample,
}

/// The full replay of a schedule.
#[derive(Clone, Debug, Default)]
pub struct ChurnReport {
    /// Per-step measurements.
    pub steps: Vec<ChurnStep>,
}

impl ChurnReport {
    /// Total nodes removed across all steps.
    #[must_use]
    pub fn total_removed(&self) -> usize {
        self.steps.iter().map(|s| s.removed).sum()
    }

    /// Total repair work across all steps.
    #[must_use]
    pub fn total_repair(&self) -> RepairReport {
        let mut total = RepairReport::default();
        for s in &self.steps {
            total.absorb(&s.repair);
        }
        total
    }

    /// Success rate of the last post-repair sample (`1.0` if no steps).
    #[must_use]
    pub fn final_success_rate(&self) -> f64 {
        self.steps
            .last()
            .map_or(1.0, |s| s.after_repair.success_rate())
    }
}

/// Replays `schedule` against the overlay in `config.steps` batches,
/// measuring sampled lookup success/stretch before and after each repair.
///
/// # Panics
///
/// Panics if the schedule fraction is not in `(0, 1)`, or if nothing is
/// published (there would be nothing to measure).
pub fn drive_churn<M: Metric, I: BallOracle>(
    space: &Space<M, I>,
    overlay: &mut DirectoryOverlay,
    schedule: ChurnSchedule,
    config: &ChurnConfig,
) -> ChurnReport {
    let fraction = match schedule {
        ChurnSchedule::Random { fraction, .. } | ChurnSchedule::Targeted { fraction } => fraction,
    };
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "churn fraction {fraction} out of (0, 1)"
    );
    assert!(
        !overlay.objects().is_empty(),
        "publish something before driving churn"
    );
    let total = ((overlay.alive_count() as f64) * fraction).floor() as usize;
    let steps = config.steps.max(1);
    let mut sampler = StdRng::seed_from_u64(config.seed);
    let mut report = ChurnReport::default();
    let mut removed_so_far = 0usize;
    for step in 0..steps {
        let quota = (total * (step + 1)) / steps - removed_so_far;
        if quota == 0 {
            continue;
        }
        let victims = pick_victims(overlay, schedule, step, quota);
        for &v in &victims {
            overlay.leave(v);
        }
        removed_so_far += victims.len();
        let before_repair = sample_queries(space, overlay, &mut sampler, config.queries_per_step);
        let repair = overlay.repair(space);
        let after_repair = sample_queries(space, overlay, &mut sampler, config.queries_per_step);
        report.steps.push(ChurnStep {
            removed: victims.len(),
            alive_after: overlay.alive_count(),
            before_repair,
            repair,
            after_repair,
        });
    }
    report
}

/// Picks this step's victims: a seeded shuffle of the alive nodes for
/// `Random`, the current hubs (coarsest membership, then directory load)
/// for `Targeted`.
fn pick_victims(
    overlay: &DirectoryOverlay,
    schedule: ChurnSchedule,
    step: usize,
    quota: usize,
) -> Vec<Node> {
    let mut alive: Vec<Node> = (0..overlay.len())
        .map(Node::new)
        .filter(|&v| overlay.is_alive(v))
        .collect();
    let quota = quota.min(alive.len().saturating_sub(1));
    match schedule {
        ChurnSchedule::Random { seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(step as u64));
            alive.shuffle(&mut rng);
        }
        ChurnSchedule::Targeted { .. } => {
            alive.sort_by_key(|&v| {
                let level = overlay.top_level_of(v).unwrap_or(0);
                let load = overlay.entries_at(v);
                // Highest level first, then most loaded, then lowest id.
                (std::cmp::Reverse(level), std::cmp::Reverse(load), v)
            });
        }
    }
    alive.truncate(quota);
    alive
}

/// Samples `count` lookups of published objects from alive origins.
fn sample_queries<M: Metric, I: BallOracle>(
    space: &Space<M, I>,
    overlay: &DirectoryOverlay,
    rng: &mut StdRng,
    count: usize,
) -> QuerySample {
    let alive: Vec<Node> = (0..overlay.len())
        .map(Node::new)
        .filter(|&v| overlay.is_alive(v))
        .collect();
    let mut sample = QuerySample::default();
    for _ in 0..count {
        let origin = alive[rng.random_range(0..alive.len())];
        let obj = overlay.objects()[rng.random_range(0..overlay.objects().len())];
        sample.queries += 1;
        match overlay.lookup(space, origin, obj) {
            Ok(out) if Some(out.home) == overlay.home_of(obj) => {
                sample.successes += 1;
                sample
                    .paths
                    .record(out.length, space.dist(origin, out.home), out.hops());
            }
            _ => {}
        }
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::ObjectId;
    use ron_metric::{gen, LineMetric};

    fn seeded(n: usize, objects: usize) -> (Space<LineMetric>, DirectoryOverlay) {
        let space = Space::new(LineMetric::uniform(n).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..objects {
            ov.publish(&space, ObjectId(i as u64), Node::new((i * 7) % n));
        }
        (space, ov)
    }

    fn assert_all_found(space: &Space<LineMetric>, ov: &DirectoryOverlay) {
        for s in space.nodes().filter(|&s| ov.is_alive(s)) {
            for &obj in ov.objects() {
                let out = ov.lookup(space, s, obj).expect("post-repair lookup");
                assert_eq!(Some(out.home), ov.home_of(obj));
            }
        }
    }

    #[test]
    fn leave_then_repair_restores_all_lookups() {
        let (space, mut ov) = seeded(32, 5);
        // Kill the top-level hub and a home.
        let top = ov.levels() - 1;
        let hub = space.nodes().find(|&v| ov.is_net_member(top, v)).unwrap();
        ov.leave(hub);
        ov.leave(Node::new(7));
        let report = ov.repair(&space);
        assert!(report.promotions + report.pointer_writes > 0);
        assert_all_found(&space, &ov);
    }

    #[test]
    fn dead_home_is_rehomed() {
        let (space, mut ov) = seeded(32, 5);
        let home = ov.home_of(ObjectId(0)).unwrap();
        ov.leave(home);
        assert!(ov.lookup(&space, Node::new(31), ObjectId(0)).is_err());
        let report = ov.repair(&space);
        assert_eq!(report.rehomed, 1);
        let new_home = ov.home_of(ObjectId(0)).unwrap();
        assert_ne!(new_home, home);
        assert!(ov.is_alive(new_home));
        assert_all_found(&space, &ov);
    }

    #[test]
    fn publish_survives_an_emptied_level_before_repair() {
        let (space, mut ov) = seeded(32, 2);
        // Kill the singleton top-level hub: the coarsest net is now empty
        // and stays empty until repair.
        let top = ov.levels() - 1;
        let hub = space.nodes().find(|&v| ov.is_net_member(top, v)).unwrap();
        ov.leave(hub);
        // Publishing into the damaged overlay must not panic, and the new
        // object must be locatable at least from nearby origins (entries
        // above the hole forward straight to the home).
        let home = space.nodes().find(|&v| ov.is_alive(v)).unwrap();
        ov.publish(&space, ObjectId(99), home);
        let out = ov.lookup(&space, home, ObjectId(99)).expect("self lookup");
        assert_eq!(out.home, home);
        // After repair every origin finds it again.
        ov.repair(&space);
        assert_all_found(&space, &ov);
    }

    #[test]
    fn join_reenters_the_ladder() {
        let (space, mut ov) = seeded(32, 3);
        ov.leave(Node::new(12));
        ov.repair(&space);
        ov.join(&space, Node::new(12));
        assert!(ov.is_alive(Node::new(12)));
        assert!(ov.is_net_member(0, Node::new(12)));
        ov.repair(&space);
        assert_all_found(&space, &ov);
    }

    #[test]
    fn repair_is_incremental() {
        let (space, mut ov) = seeded(64, 8);
        // A fringe (level-0-only) node far from most homes touches few
        // objects.
        let fringe = (0..space.len())
            .rev()
            .map(Node::new)
            .find(|&v| ov.top_level_of(v) == Some(0))
            .unwrap();
        ov.leave(fringe);
        let report = ov.repair(&space);
        assert!(
            report.objects_touched < ov.objects().len(),
            "fringe leave reconciled {} of {} objects",
            report.objects_touched,
            ov.objects().len()
        );
        // A second repair with nothing new to do is free.
        let idle = ov.repair(&space);
        assert_eq!(idle, RepairReport::default());
    }

    #[test]
    fn targeted_schedule_hits_hubs_first() {
        let (space, mut ov) = seeded(64, 6);
        let top = ov.levels() - 1;
        let hub = space.nodes().find(|&v| ov.is_net_member(top, v)).unwrap();
        let report = drive_churn(
            &space,
            &mut ov,
            ChurnSchedule::Targeted { fraction: 0.1 },
            &ChurnConfig {
                steps: 1,
                queries_per_step: 64,
                seed: 5,
            },
        );
        assert!(!ov.is_alive(hub), "targeted churn must take the hub");
        assert_eq!(report.total_removed(), 6);
        assert_eq!(report.final_success_rate(), 1.0);
        assert_all_found(&space, &ov);
    }

    #[test]
    fn random_schedule_is_reproducible_and_recovers() {
        let space = Space::new(gen::uniform_cube(48, 2, 3));
        let schedule = ChurnSchedule::Random {
            fraction: 0.25,
            seed: 9,
        };
        let run = |mut ov: DirectoryOverlay| {
            drive_churn(&space, &mut ov, schedule, &ChurnConfig::default())
        };
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..6u64 {
            ov.publish(&space, ObjectId(i), Node::new((i as usize * 5) % 48));
        }
        let a = run(ov.clone());
        let b = run(ov);
        assert_eq!(a.total_removed(), b.total_removed());
        assert_eq!(a.total_repair(), b.total_repair());
        assert_eq!(a.final_success_rate(), 1.0);
        assert!(a.steps.iter().all(|s| s.after_repair.success_rate() == 1.0));
    }
}
