//! Churn schedules for the directory driver: leaves, joins,
//! crash-with-rejoin and repair epochs injected at simulated times.
//!
//! A [`ChurnSchedule`] drives `ron_location`'s `leave` / `join` /
//! `repair` as a protocol: it maps membership events onto engine
//! primitives (a *leave* is a crash whose state is
//! conceded, a *join* a revive whose slice the next repair resets and
//! backfills, a *crash/rejoin* pair a transient outage invisible to the
//! repair protocol) and injects a [`DirectoryMsg::Repair`] epoch at the
//! coordinator carrying the accumulated membership delta — the failure
//! detector's output, which a real deployment would derive from
//! heartbeats.
//!
//! Caveats the schedule enforces only by documentation:
//!
//! * the coordinator must not leave or crash — a repair epoch injected
//!   at a dead node fails as `OriginDown`;
//! * a node crashed (not left) while a repair epoch runs loses its gram
//!   and the epoch never completes (`Unresolved`) — schedule repairs
//!   when transient crashes have rejoined, or declare the node left;
//! * leaves/joins after the last `repair_at` stay unrepaired: lookups
//!   keep degrading, which is sometimes exactly the experiment.

use ron_metric::Node;

use crate::directory::{DirectoryMsg, DirectoryNode};
use crate::engine::Simulator;

/// One membership event of a [`ChurnSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The node leaves: it crashes and its state is gone for good. The
    /// next repair epoch reconciles the directory around it.
    Leave(Node),
    /// The node joins fresh: it revives, and the next repair epoch
    /// resets its slice and backfills its membership, fingers and
    /// pointer entries.
    Join(Node),
    /// Transient crash: the node stops receiving but keeps its state.
    Crash(Node),
    /// End of a transient crash: the node receives again with the state
    /// it held — no repair involvement (the measured recovery is the
    /// point).
    Rejoin(Node),
    /// Inject a repair epoch at the coordinator with every leave/join
    /// recorded since the previous epoch.
    Repair,
}

/// A time-stamped list of churn events to apply to a directory fleet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnSchedule {
    events: Vec<(f64, ChurnEvent)>,
}

impl ChurnSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        ChurnSchedule::default()
    }

    /// Schedules `v` to leave at `time`.
    pub fn leave_at(&mut self, time: f64, v: Node) -> &mut Self {
        self.events.push((time, ChurnEvent::Leave(v)));
        self
    }

    /// Schedules `v` to join (fresh) at `time`.
    pub fn join_at(&mut self, time: f64, v: Node) -> &mut Self {
        self.events.push((time, ChurnEvent::Join(v)));
        self
    }

    /// Schedules a transient crash of `v` at `time`.
    pub fn crash_at(&mut self, time: f64, v: Node) -> &mut Self {
        self.events.push((time, ChurnEvent::Crash(v)));
        self
    }

    /// Schedules the end of `v`'s transient crash at `time`.
    pub fn rejoin_at(&mut self, time: f64, v: Node) -> &mut Self {
        self.events.push((time, ChurnEvent::Rejoin(v)));
        self
    }

    /// Schedules a repair epoch at `time`, covering every leave/join
    /// scheduled earlier (by time, ties by insertion order) and not yet
    /// covered by a previous epoch.
    pub fn repair_at(&mut self, time: f64) -> &mut Self {
        self.events.push((time, ChurnEvent::Repair));
        self
    }

    /// The raw events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[(f64, ChurnEvent)] {
        &self.events
    }

    /// Applies the schedule to a simulator whose fleet was built with
    /// [`DirectoryNode::fleet_with_coordinator`]: crashes and revives go
    /// to the engine, repair epochs are injected at `coordinator` as
    /// deadline-free queries (an epoch outlasting the lookup timeout is
    /// progress, not failure). Returns the repair query ids, in epoch
    /// order.
    pub fn apply(&self, sim: &mut Simulator<'_, DirectoryNode>, coordinator: Node) -> Vec<u32> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .0
                .total_cmp(&self.events[b].0)
                .then(a.cmp(&b))
        });
        let mut leaves = Vec::new();
        let mut joins = Vec::new();
        let mut qids = Vec::new();
        for k in order {
            let (time, event) = self.events[k];
            match event {
                ChurnEvent::Leave(v) => {
                    sim.crash_at(time, v);
                    leaves.push(v);
                }
                ChurnEvent::Join(v) => {
                    sim.revive_at(time, v);
                    joins.push(v);
                }
                ChurnEvent::Crash(v) => sim.crash_at(time, v),
                ChurnEvent::Rejoin(v) => sim.revive_at(time, v),
                ChurnEvent::Repair => {
                    qids.push(sim.inject_with_deadline(
                        time,
                        coordinator,
                        DirectoryMsg::Repair {
                            leaves: std::mem::take(&mut leaves),
                            joins: std::mem::take(&mut joins),
                        },
                        None,
                    ));
                }
            }
        }
        qids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_orders_by_time_then_insertion() {
        let mut schedule = ChurnSchedule::new();
        schedule
            .repair_at(5.0)
            .leave_at(1.0, Node::new(3))
            .join_at(4.0, Node::new(3))
            .leave_at(1.0, Node::new(9));
        assert_eq!(schedule.events().len(), 4);
        // The repair at t = 5 covers all three earlier events even
        // though it was inserted first — apply() sorts by time.
        // (Exercised end to end in tests/churn.rs; here we only check
        // the builder bookkeeping.)
        assert_eq!(schedule.events()[0], (5.0, ChurnEvent::Repair));
    }
}
