//! The object-location directory as a message protocol: publishes
//! install pointer entries by fan-out, lookups climb the origin's
//! fingers and descend the home's zoom chain as real message rounds.
//!
//! Each node holds one [`DirectoryNodeState`]: its finger table, its
//! publish rings, its pointer-table rows and the objects it homes. The
//! lookup packet carries the *origin's* climb itinerary in its header —
//! the origin's own zooming sequence, local knowledge, exactly like the
//! labels of the routing schemes — and every check happens at the node
//! holding the entry. What a node does with a packet is decided by the
//! same walk rule the in-process `DirectoryOverlay::lookup` loop applies
//! ([`DirectoryNodeState::probe`] / [`DirectoryNodeState::descend`],
//! returning a [`WalkStep`]); the handlers here only turn the decision
//! into a send, a completion or a failure, so the simulated answer, hop
//! count, found level and failure kind match the in-process walk
//! (property-tested on all four instance families).

use std::collections::BTreeMap;

use ron_location::{
    DirectoryNodeState, DirectoryOverlay, ObjectId, PointerOp, RepairAuthority, RepairReport,
    ScanOracle, WalkStep,
};
use ron_metric::{BallOracle, Metric, Node, Space};

use crate::engine::{Ctx, FailKind, SimNode};

/// The repair coordinator's private state: the control plane it evolves
/// across churn epochs plus the bookkeeping of the in-flight epoch.
#[derive(Clone, Debug)]
struct Coordinator {
    authority: RepairAuthority,
    /// Id of the in-flight epoch (0 = none yet). Grams and acks carry
    /// it so an ack straggling in from an abandoned epoch (crossed
    /// schedules, dropped grams) cannot corrupt the current one.
    current_epoch: usize,
    /// Grams still awaiting an ack in the current epoch.
    pending: usize,
    /// The plan's global counters for the current epoch.
    epoch_base: RepairReport,
    /// Effective pointer writes/deletes acked so far (plus the
    /// coordinator's own).
    writes: usize,
    deletes: usize,
    /// Reports of completed epochs, in order.
    history: Vec<RepairReport>,
}

/// One node's share of a repair plan while the coordinator assembles
/// the fan-out (the wire form is [`DirectoryMsg::RepairGram`]).
#[derive(Clone, Debug, Default)]
struct GramParts {
    reset: bool,
    promote: Vec<usize>,
    fingers: Vec<(usize, Option<Node>)>,
    adopt: Vec<ObjectId>,
    ops: Vec<PointerOp>,
}

/// One node of the directory protocol.
#[derive(Clone, Debug)]
pub struct DirectoryNode {
    state: DirectoryNodeState,
    coordinator: Option<Box<Coordinator>>,
}

impl DirectoryNode {
    /// Builds the fleet by partitioning an overlay (published or empty).
    #[must_use]
    pub fn fleet<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        overlay: &DirectoryOverlay,
    ) -> Vec<DirectoryNode> {
        overlay
            .partition(space)
            .into_iter()
            .map(|state| DirectoryNode {
                state,
                coordinator: None,
            })
            .collect()
    }

    /// [`fleet`](DirectoryNode::fleet), with `coordinator` additionally
    /// carrying the repair control plane
    /// ([`DirectoryOverlay::control_plane`]) so the fleet can run
    /// [`DirectoryMsg::Repair`] epochs. The coordinator must stay alive
    /// for the whole run (it cannot churn itself).
    ///
    /// # Panics
    ///
    /// Panics if `coordinator` is dead at partition time.
    #[must_use]
    pub fn fleet_with_coordinator<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        overlay: &DirectoryOverlay,
        coordinator: Node,
    ) -> Vec<DirectoryNode> {
        assert!(
            overlay.is_alive(coordinator),
            "coordinator {coordinator} is dead at partition time"
        );
        let mut fleet = Self::fleet(space, overlay);
        fleet[coordinator.index()].coordinator = Some(Box::new(Coordinator {
            authority: overlay.control_plane(),
            current_epoch: 0,
            pending: 0,
            epoch_base: RepairReport::default(),
            writes: 0,
            deletes: 0,
            history: Vec::new(),
        }));
        fleet
    }

    /// The per-node slice (inspect after a run to see installed entries).
    #[must_use]
    pub fn state(&self) -> &DirectoryNodeState {
        &self.state
    }

    /// The reports of the repair epochs this node coordinated, in order
    /// (empty for non-coordinators).
    #[must_use]
    pub fn repair_history(&self) -> &[RepairReport] {
        self.coordinator.as_ref().map_or(&[], |co| &co.history)
    }

    /// Walks as much of the climb as is local to this node, then either
    /// forwards the packet or switches to the descent.
    fn climb(
        &mut self,
        ctx: &mut Ctx<'_, DirectoryMsg>,
        obj: ObjectId,
        mut k: usize,
        itinerary: Vec<(usize, Node)>,
    ) {
        loop {
            let (level, f) = itinerary[k];
            if f != self.state.node() {
                ctx.send(f, DirectoryMsg::Climb { obj, k, itinerary });
                return;
            }
            if let Some(step) = self.state.probe(level, obj) {
                self.act(ctx, obj, level as u64, step);
                return;
            }
            k += 1;
            if k == itinerary.len() {
                ctx.fail(FailKind::NotFound);
                return;
            }
        }
    }

    /// Turns one descent decision of the shared walk rule into its
    /// network effect.
    fn act(
        &self,
        ctx: &mut Ctx<'_, DirectoryMsg>,
        obj: ObjectId,
        found_level: u64,
        step: WalkStep,
    ) {
        match step {
            WalkStep::Arrived => ctx.complete(self.state.node(), found_level),
            WalkStep::Broken { .. } => ctx.fail(FailKind::BrokenChain),
            WalkStep::Forward { level, next } => ctx.send(
                next,
                DirectoryMsg::Descend {
                    obj,
                    level,
                    found_level,
                },
            ),
        }
    }

    /// Runs one repair epoch at the coordinator: apply the membership
    /// delta to the control plane, plan the epoch with the *same*
    /// planner the in-process `DirectoryOverlay::repair` uses (over the
    /// engine's distance oracle instead of a ball index), and fan the
    /// plan out as one gram per affected node. The epoch's query
    /// completes when every gram is acked. Starting a new epoch while a
    /// previous one still awaits acks abandons the old one (its query
    /// stays unresolved; stale acks are recognized by epoch id and
    /// dropped).
    fn coordinate_repair(
        &mut self,
        ctx: &mut Ctx<'_, DirectoryMsg>,
        leaves: &[Node],
        joins: &[Node],
    ) {
        let me = self.state.node();
        assert!(
            !leaves.contains(&me) && !joins.contains(&me),
            "the coordinator cannot churn itself"
        );
        let dist = ctx.dist_fn();
        // Plan with the control plane borrowed; collect the grams, then
        // release the borrow to apply the coordinator's own share.
        let mut grams: BTreeMap<Node, GramParts> = BTreeMap::new();
        let epoch_base;
        {
            let co = self
                .coordinator
                .as_mut()
                .expect("repair injected at a non-coordinator");
            let oracle = ScanOracle::new(co.authority.len(), dist);
            for &v in leaves {
                co.authority.note_leave(v);
            }
            for &v in joins {
                co.authority.note_join(&oracle, v);
            }
            let plan = co.authority.plan_repair(&oracle);
            epoch_base = plan.report_base();
            // Every survivor refreshes its fingers at the touched levels
            // (the untouched levels' fingers are still valid).
            if plan.touched_levels.contains(&true) {
                let alive = Node::all(co.authority.len()).filter(|&u| co.authority.is_alive(u));
                for u in alive {
                    grams.entry(u).or_default().fingers =
                        co.authority.fingers(&oracle, u, &plan.touched_levels);
                }
            }
            for nr in plan.node_repairs {
                let gram = grams.entry(nr.node).or_default();
                gram.promote.extend(nr.promote);
                gram.adopt = nr.adopt;
                gram.ops = nr.ops;
            }
            // Join backfill: a fresh joiner resets its slice and learns
            // its full ladder membership and its *complete* finger
            // vector — its slice may predate several epochs, so the
            // "untouched levels are still valid" shortcut that serves
            // the survivors does not hold for it.
            let every_level = vec![true; co.authority.levels()];
            for &v in joins {
                let gram = grams.entry(v).or_default();
                gram.reset = true;
                gram.promote.extend(co.authority.member_levels_of(v));
                gram.promote.sort_unstable();
                gram.promote.dedup();
                gram.fingers = co.authority.fingers(&oracle, v, &every_level);
            }
        }
        let epoch = {
            let co = self.coordinator.as_mut().expect("checked above");
            co.current_epoch += 1;
            co.current_epoch
        };
        let mut own = None;
        let mut pending = 0usize;
        for (v, parts) in grams {
            if v == me {
                own = Some(self.apply_gram(
                    parts.reset,
                    &parts.promote,
                    &parts.fingers,
                    &parts.adopt,
                    &parts.ops,
                ));
            } else {
                pending += 1;
                ctx.send(
                    v,
                    DirectoryMsg::RepairGram {
                        coordinator: me,
                        epoch,
                        reset: parts.reset,
                        promote: parts.promote,
                        fingers: parts.fingers,
                        adopt: parts.adopt,
                        ops: parts.ops,
                    },
                );
            }
        }
        let co = self.coordinator.as_mut().expect("checked above");
        co.epoch_base = epoch_base;
        let (writes, deletes) = own.unwrap_or((0, 0));
        co.writes = writes;
        co.deletes = deletes;
        co.pending = pending;
        if pending == 0 {
            self.finish_epoch(ctx);
        }
    }

    /// Applies one gram to the local slice, returning the effective
    /// (write, delete) counts for the ack.
    fn apply_gram(
        &mut self,
        reset: bool,
        promote: &[usize],
        fingers: &[(usize, Option<Node>)],
        adopt: &[ObjectId],
        ops: &[PointerOp],
    ) -> (usize, usize) {
        if reset {
            self.state.reset();
        }
        for &level in promote {
            self.state.promote(level);
        }
        for &(level, finger) in fingers {
            self.state.set_finger(level, finger);
        }
        for &obj in adopt {
            self.state.adopt(obj);
        }
        self.state.apply_ops(ops)
    }

    /// Seals the in-flight epoch: record its report and resolve the
    /// repair query (detail = epoch index).
    fn finish_epoch(&mut self, ctx: &mut Ctx<'_, DirectoryMsg>) {
        let me = self.state.node();
        let co = self
            .coordinator
            .as_mut()
            .expect("epoch at a non-coordinator");
        let mut report = co.epoch_base;
        report.pointer_writes = co.writes;
        report.pointer_deletes = co.deletes;
        co.history.push(report);
        ctx.complete(me, (co.history.len() - 1) as u64);
    }
}

/// Directory protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirectoryMsg {
    /// Start a lookup (inject at the origin; never sent on the wire).
    Lookup {
        /// The object to locate.
        obj: ObjectId,
    },
    /// The climb packet, probing `itinerary[k]`.
    Climb {
        /// The object to locate.
        obj: ObjectId,
        /// Position in the itinerary being probed.
        k: usize,
        /// The origin's `(level, finger)` climb itinerary.
        itinerary: Vec<(usize, Node)>,
    },
    /// The descent packet, following the home's zoom chain at `level`.
    Descend {
        /// The object to locate.
        obj: ObjectId,
        /// Current chain level.
        level: usize,
        /// Ladder level the directory entry was found at (reported as
        /// the completion detail).
        found_level: u64,
    },
    /// Start a publish (inject at the home; never sent on the wire).
    Publish {
        /// The object to publish.
        obj: ObjectId,
    },
    /// Install one pointer entry (the publish fan-out).
    Install {
        /// The published object.
        obj: ObjectId,
        /// Ladder level of the entry.
        level: usize,
        /// Chain node the entry forwards to.
        next: Node,
    },
    /// Start a repair epoch (inject at the coordinator; never sent on
    /// the wire). `leaves` and `joins` are the membership delta since
    /// the last epoch — the failure detector's output, which a real
    /// deployment derives from heartbeats and the simulation takes from
    /// the churn schedule.
    Repair {
        /// Nodes that left (crashed away) since the last epoch.
        leaves: Vec<Node>,
        /// Nodes that (re)joined fresh since the last epoch.
        joins: Vec<Node>,
    },
    /// One node's slice of a repair plan, fanned out by the coordinator:
    /// promotion announcements, finger refreshes, re-homing adoptions
    /// and pointer reconciliation ops (join backfill is the same gram
    /// with `reset` set).
    RepairGram {
        /// Where to send the ack.
        coordinator: Node,
        /// The coordinator's epoch id, echoed in the ack.
        epoch: usize,
        /// Reset the local slice first (the receiver is a fresh joiner).
        reset: bool,
        /// Net levels this node is promoted into.
        promote: Vec<usize>,
        /// `(level, finger)` refreshes for the levels whose membership
        /// changed.
        fingers: Vec<(usize, Option<Node>)>,
        /// Objects this node now homes (re-homed from dead homes).
        adopt: Vec<ObjectId>,
        /// Pointer-table writes and deletes.
        ops: Vec<PointerOp>,
    },
    /// A gram receiver's reply: how many table operations actually
    /// changed state (summed by the coordinator into the epoch's
    /// [`RepairReport`]).
    RepairAck {
        /// The epoch the acked gram belonged to; acks from an abandoned
        /// epoch are dropped.
        epoch: usize,
        /// Pointer writes that changed the receiver's table.
        writes: usize,
        /// Pointer deletes that removed an entry.
        deletes: usize,
    },
}

impl SimNode for DirectoryNode {
    type Msg = DirectoryMsg;

    fn gram_type(msg: &DirectoryMsg) -> &'static str {
        match msg {
            DirectoryMsg::Lookup { .. } => "lookup",
            DirectoryMsg::Climb { .. } => "climb",
            DirectoryMsg::Descend { .. } => "descend",
            DirectoryMsg::Publish { .. } => "publish",
            DirectoryMsg::Install { .. } => "install",
            DirectoryMsg::Repair { .. } => "repair",
            DirectoryMsg::RepairGram { .. } => "repair_gram",
            DirectoryMsg::RepairAck { .. } => "repair_ack",
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DirectoryMsg>, msg: DirectoryMsg) {
        match msg {
            DirectoryMsg::Lookup { obj } => {
                let itinerary = self.state.itinerary();
                if itinerary.is_empty() {
                    ctx.fail(FailKind::NotFound);
                    return;
                }
                self.climb(ctx, obj, 0, itinerary);
            }
            DirectoryMsg::Climb { obj, k, itinerary } => self.climb(ctx, obj, k, itinerary),
            DirectoryMsg::Descend {
                obj,
                level,
                found_level,
            } => {
                let step = self.state.descend(level, obj);
                self.act(ctx, obj, found_level, step);
            }
            DirectoryMsg::Publish { obj } => {
                // The home's chain against its own fingers: chain[j] is
                // the nearest level-j member, the home itself when a
                // level has none (the in-process fallback).
                let me = self.state.node();
                self.state.adopt(obj);
                let levels = self.state.levels();
                let chain: Vec<Node> = (0..levels)
                    .map(|j| self.state.finger(j).unwrap_or(me))
                    .collect();
                for j in 0..levels {
                    let target = if j == 0 { me } else { chain[j - 1] };
                    let ring: Vec<Node> = self.state.ring(j).to_vec();
                    for w in ring {
                        if w == me {
                            self.state.install(j, obj, target);
                        } else {
                            ctx.send(
                                w,
                                DirectoryMsg::Install {
                                    obj,
                                    level: j,
                                    next: target,
                                },
                            );
                        }
                    }
                }
                // The publish acknowledges at the home; the installs fan
                // out asynchronously as messages of the same query.
                ctx.complete(me, 0);
            }
            DirectoryMsg::Install { obj, level, next } => {
                self.state.install(level, obj, next);
            }
            DirectoryMsg::Repair { leaves, joins } => {
                self.coordinate_repair(ctx, &leaves, &joins);
            }
            DirectoryMsg::RepairGram {
                coordinator,
                epoch,
                reset,
                promote,
                fingers,
                adopt,
                ops,
            } => {
                let (writes, deletes) = self.apply_gram(reset, &promote, &fingers, &adopt, &ops);
                ctx.send(
                    coordinator,
                    DirectoryMsg::RepairAck {
                        epoch,
                        writes,
                        deletes,
                    },
                );
            }
            DirectoryMsg::RepairAck {
                epoch,
                writes,
                deletes,
            } => {
                let co = self
                    .coordinator
                    .as_mut()
                    .expect("repair ack at a non-coordinator");
                if epoch != co.current_epoch || co.pending == 0 {
                    // A straggler from an abandoned epoch (the schedule
                    // started a new one before every ack arrived, or a
                    // gram was dropped and its epoch never completed).
                    return;
                }
                co.writes += writes;
                co.deletes += deletes;
                co.pending -= 1;
                if co.pending == 0 {
                    self.finish_epoch(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Resolution, SimConfig, Simulator};
    use crate::latency::ConstantLatency;
    use ron_metric::{gen, LineMetric};

    #[test]
    fn simulated_lookups_match_in_process_lookups() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut overlay = DirectoryOverlay::build(&space);
        let homes = [5usize, 18, 31];
        for (i, &h) in homes.iter().enumerate() {
            overlay.publish(&space, ObjectId(i as u64), Node::new(h));
        }
        let mut sim = Simulator::new(
            DirectoryNode::fleet(&space, &overlay),
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let mut expect = Vec::new();
        for s in space.nodes() {
            for (i, _) in homes.iter().enumerate() {
                let obj = ObjectId(i as u64);
                sim.inject(0.0, s, DirectoryMsg::Lookup { obj });
                expect.push(overlay.lookup(&space, s, obj).unwrap());
            }
        }
        let report = sim.run();
        assert_eq!(report.completed, expect.len());
        for (record, out) in report.records.iter().zip(&expect) {
            assert_eq!(
                record.resolution,
                Resolution::Delivered {
                    at: out.home,
                    detail: out.found_level as u64
                }
            );
            assert_eq!(record.hops as usize, out.hops());
        }
    }

    #[test]
    fn simulated_publish_installs_the_same_entries() {
        let space = Space::new(gen::uniform_cube(48, 2, 17));
        // In-process reference.
        let mut reference = DirectoryOverlay::build(&space);
        let items: Vec<(ObjectId, Node)> = (0..6)
            .map(|i| (ObjectId(i as u64), Node::new((i * 13 + 2) % 48)))
            .collect();
        for &(obj, home) in &items {
            reference.publish(&space, obj, home);
        }
        // Simulated publishes against an empty overlay's slices.
        let empty = DirectoryOverlay::build(&space);
        let mut sim = Simulator::new(
            DirectoryNode::fleet(&space, &empty),
            |u, v| space.dist(u, v),
            ConstantLatency(1.0),
            SimConfig::default(),
        );
        for (t, &(obj, home)) in items.iter().enumerate() {
            sim.inject(t as f64, home, DirectoryMsg::Publish { obj });
        }
        let report = sim.run();
        assert_eq!(report.completed, items.len());
        // The per-node pointer bill matches the in-process overlay, and
        // the message bill is exactly the non-local entry count.
        let mut remote_entries = 0u64;
        for v in space.nodes() {
            let node = sim.node(v);
            assert_eq!(
                node.state().entries(),
                reference.entries_at(v),
                "pointer load at {v}"
            );
            for j in 0..reference.levels() {
                for &(obj, home) in &items {
                    let in_ring = reference.rings().ring(home, j).unwrap().contains(v);
                    assert_eq!(node.state().entry(j, obj).is_some(), in_ring);
                    if in_ring && v != home {
                        remote_entries += 1;
                    }
                }
            }
            for &(obj, home) in &items {
                assert_eq!(node.state().homes(obj), v == home);
            }
        }
        assert_eq!(report.messages.sent, remote_entries);
        assert_eq!(report.messages.delivered, remote_entries);
        // Behavioral equivalence: lookups over the simulated tables give
        // the same homes, hops and found levels as the in-process
        // overlay.
        let mut lookups = Simulator::new(
            sim.into_nodes(),
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let mut expect = Vec::new();
        for s in space.nodes() {
            for &(obj, _) in &items {
                lookups.inject(0.0, s, DirectoryMsg::Lookup { obj });
                expect.push(reference.lookup(&space, s, obj).unwrap());
            }
        }
        let report = lookups.run();
        assert_eq!(report.completed, expect.len());
        for (record, out) in report.records.iter().zip(&expect) {
            assert_eq!(
                record.resolution,
                Resolution::Delivered {
                    at: out.home,
                    detail: out.found_level as u64
                }
            );
            assert_eq!(record.hops as usize, out.hops());
        }
    }

    #[test]
    fn crashed_holder_breaks_lookups_until_avoided() {
        let space = Space::new(LineMetric::uniform(16).unwrap());
        let mut overlay = DirectoryOverlay::build(&space);
        overlay.publish(&space, ObjectId(0), Node::new(3));
        let mut sim = Simulator::new(
            DirectoryNode::fleet(&space, &overlay),
            |u, v| space.dist(u, v),
            ConstantLatency(1.0),
            SimConfig {
                timeout: Some(64.0),
                ..SimConfig::default()
            },
        );
        // Crash the home itself before the lookup: the descent can never
        // terminate there.
        sim.crash_at(0.0, Node::new(3));
        sim.inject(
            1.0,
            Node::new(12),
            DirectoryMsg::Lookup { obj: ObjectId(0) },
        );
        let report = sim.run();
        assert_eq!(report.completed, 0);
        assert!(report.messages.lost_to_crash > 0);
    }
}
