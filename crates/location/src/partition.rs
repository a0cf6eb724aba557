//! Per-node slices of a [`DirectoryOverlay`] for distributed execution.
//!
//! The overlay object holds every node's pointer tables in one process;
//! [`DirectoryOverlay::partition`] splits it into [`DirectoryNodeState`]s,
//! one per node, each owning exactly what that node would hold in a real
//! deployment: its finger table (nearest net member per ladder level —
//! the node's own zooming sequence, reversed), its publish rings
//! (`B_v(c r_j) ∩ G_j`, the members *it* must install pointers on when it
//! homes an object), its directory pointer table (the same
//! sorted array the overlay keeps per node), and the set of objects
//! homed at it. The message-passing simulator (`ron-sim`) runs lookups
//! and publishes against these slices and nothing else.

use std::collections::BTreeSet;

use ron_metric::{BallOracle, Metric, Node, Space};

use crate::authority::PointerOp;
use crate::directory::{DirectoryOverlay, ObjectId};
use crate::lookup::{Finger, NodeView, WalkStep};
use crate::tables::PointerTable;

/// One node's slice of the directory overlay.
#[derive(Clone, Debug, PartialEq)]
pub struct DirectoryNodeState {
    node: Node,
    alive: bool,
    /// `member[j]`: whether this node is a member of the level-`j` net —
    /// the node's own coordinate in the ladder, which the distributed
    /// repair protocol updates through promotion announcements.
    member: Vec<bool>,
    /// `fingers[j]`: nearest alive level-`j` net member to this node.
    fingers: Vec<Finger>,
    /// `rings[j]`: members of this node's publish ring at level `j`.
    rings: Vec<Vec<Node>>,
    /// The directory entries stored at this node, all levels.
    table: PointerTable,
    /// Objects homed at this node.
    homed: BTreeSet<ObjectId>,
}

impl DirectoryNodeState {
    /// The node this slice belongs to.
    #[must_use]
    pub fn node(&self) -> Node {
        self.node
    }

    /// Whether the node was alive at partition time.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Number of ladder levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.fingers.len()
    }

    /// The finger at `level` (nearest net member), if the level had one.
    #[must_use]
    pub fn finger(&self, level: usize) -> Option<Node> {
        self.fingers[level].get()
    }

    /// The climb itinerary a lookup from this node follows: the
    /// `(level, finger)` pairs in ascending level order, skipping levels
    /// without a finger — exactly the fingers the in-process
    /// `DirectoryOverlay::lookup` climbs.
    #[must_use]
    pub fn itinerary(&self) -> Vec<(usize, Node)> {
        self.fingers
            .iter()
            .enumerate()
            .filter_map(|(j, f)| f.get().map(|f| (j, f)))
            .collect()
    }

    /// The members of this node's publish ring at `level`.
    #[must_use]
    pub fn ring(&self, level: usize) -> &[Node] {
        &self.rings[level]
    }

    /// The level-`level` directory entry for `obj` stored here, if any.
    #[must_use]
    pub fn entry(&self, level: usize, obj: ObjectId) -> Option<Node> {
        self.table.get(level, obj)
    }

    fn view(&self, obj: ObjectId) -> NodeView<'_> {
        NodeView {
            node: self.node,
            table: self.table.row(),
            obj,
            is_home: self.homed.contains(&obj),
        }
    }

    /// What this node does with a climb packet probing `level` for
    /// `obj`: `None` if it holds no entry there (the climb goes on),
    /// otherwise the first step of the descent.
    #[must_use]
    pub fn probe(&self, level: usize, obj: ObjectId) -> Option<WalkStep> {
        self.view(obj).probe(level)
    }

    /// What this node does with a descent packet that followed a
    /// level-`level` entry for `obj` here — the same rule the in-process
    /// `DirectoryOverlay::lookup` applies at every chain node.
    #[must_use]
    pub fn descend(&self, level: usize, obj: ObjectId) -> WalkStep {
        self.view(obj).descend(level)
    }

    /// Installs a level-`level` entry for `obj` forwarding to `next`
    /// (what a node does on receiving a publish-install message).
    pub fn install(&mut self, level: usize, obj: ObjectId, next: Node) {
        self.table.insert(level, obj, next);
    }

    /// Executes a repair gram's pointer operations, returning how many
    /// writes and deletes actually changed the table — the counts a
    /// repair ack carries back to the coordinator, matched against the
    /// in-process `pointer_writes` / `pointer_deletes`.
    pub fn apply_ops(&mut self, ops: &[PointerOp]) -> (usize, usize) {
        self.table.apply(ops)
    }

    /// Marks this node a member of the level-`level` net (a repair
    /// covering-promotion announcement, or a join's ladder insertion).
    pub fn promote(&mut self, level: usize) {
        self.member[level] = true;
    }

    /// Replaces the finger at `level` (a repair finger refresh: the
    /// coordinator recomputed the nearest member under the new
    /// membership).
    pub fn set_finger(&mut self, level: usize, finger: Option<Node>) {
        self.fingers[level] = Finger::new(finger);
    }

    /// Resets the slice to a fresh joiner: alive, no memberships, no
    /// entries, homing nothing. A node that *left* lost its state; when
    /// it rejoins, the repair protocol rebuilds what it should hold
    /// (join backfill). Fingers are kept — the joiner receives refreshed
    /// ones in the same repair gram.
    pub fn reset(&mut self) {
        self.alive = true;
        self.member.iter_mut().for_each(|m| *m = false);
        self.table = PointerTable::default();
        self.homed.clear();
    }

    /// Whether `obj` is homed at this node.
    #[must_use]
    pub fn homes(&self, obj: ObjectId) -> bool {
        self.homed.contains(&obj)
    }

    /// Records that `obj` is now homed here (what a node does when it
    /// accepts a publish).
    pub fn adopt(&mut self, obj: ObjectId) {
        self.homed.insert(obj);
    }

    /// Directory entries resident in this slice — the node's share of the
    /// structure's memory.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

impl DirectoryOverlay {
    /// Splits the overlay into per-node slices (see the module docs).
    ///
    /// The slices reflect the overlay's *current* dynamic state: alive
    /// flags, dynamic net membership (through the fingers and rings) and
    /// all installed pointer entries. Capture fresh slices after churn
    /// plus repair, exactly like [`Snapshot`](crate::engine::Snapshot).
    #[must_use]
    pub fn partition<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
    ) -> Vec<DirectoryNodeState> {
        let levels = self.levels();
        let mut homed: Vec<BTreeSet<ObjectId>> = vec![BTreeSet::new(); self.len()];
        // ron-lint: allow(map-order): each (obj, home) entry lands in
        // its home node's BTreeSet; visit order is unobservable in the
        // returned per-node slices.
        for (&obj, &home) in &self.control.homes {
            homed[home.index()].insert(obj);
        }
        (0..self.len())
            .map(|i| {
                let v = Node::new(i);
                DirectoryNodeState {
                    node: v,
                    alive: self.is_alive(v),
                    member: (0..levels).map(|j| self.is_net_member(j, v)).collect(),
                    fingers: (0..levels)
                        .map(|j| Finger::new(self.finger(space, v, j).map(|(_, f)| f)))
                        .collect(),
                    rings: (0..levels).map(|j| self.control.ring(v, j)).collect(),
                    table: self.tables.node(v).clone(),
                    homed: std::mem::take(&mut homed[i]),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::LineMetric;

    #[test]
    fn slices_mirror_the_overlay() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(5));
        ov.publish(&space, ObjectId(1), Node::new(30));
        let slices = ov.partition(&space);
        assert_eq!(slices.len(), 32);
        let total: usize = slices.iter().map(DirectoryNodeState::entries).sum();
        assert_eq!(total, ov.total_entries());
        for (i, slice) in slices.iter().enumerate() {
            let v = Node::new(i);
            assert_eq!(slice.node(), v);
            assert!(slice.is_alive());
            assert_eq!(slice.levels(), ov.levels());
            assert_eq!(slice.entries(), ov.entries_at(v));
            for j in 0..ov.levels() {
                assert_eq!(slice.finger(j), ov.finger(&space, v, j).map(|(_, f)| f));
                assert_eq!(
                    slice.ring(j),
                    ov.rings().ring(v, j).unwrap().members(),
                    "ring of {v} at level {j}"
                );
                for obj in [ObjectId(0), ObjectId(1)] {
                    assert_eq!(slice.entry(j, obj), ov.tables.node(v).get(j, obj));
                }
            }
            for obj in [ObjectId(0), ObjectId(1)] {
                assert_eq!(slice.homes(obj), ov.home_of(obj) == Some(v));
            }
        }
        // The itinerary climbs every level in order on a static overlay.
        let it = slices[7].itinerary();
        assert_eq!(it.len(), ov.levels());
        assert!(it.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn install_and_adopt_mutate_the_slice() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let ov = DirectoryOverlay::build(&space);
        let mut slice = ov.partition(&space).remove(3);
        assert_eq!(slice.entries(), 0);
        assert!(!slice.homes(ObjectId(9)));
        slice.install(1, ObjectId(9), Node::new(2));
        slice.adopt(ObjectId(9));
        assert_eq!(slice.entry(1, ObjectId(9)), Some(Node::new(2)));
        assert!(slice.homes(ObjectId(9)));
        assert_eq!(slice.entries(), 1);
    }
}
