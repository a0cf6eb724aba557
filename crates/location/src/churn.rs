//! Dynamics: join/leave and incremental repair.
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
//! Removal schedules run as a protocol through `ron_sim::ChurnSchedule`
//! (the E-CHURN table).

use ron_core::publish::EpochCell;
use ron_metric::{BallOracle, Metric, Node, Space};

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
            let (writes, deletes) = self.tables.apply(nr.node, &nr.ops);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::ObjectId;
    use ron_metric::LineMetric;

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
}
