//! Compact per-node directory pointer tables.
//!
//! A [`PointerTable`] is one sorted compact array per node: entries
//! keyed by `(level, object)`, 16 bytes each, found by binary search, and
//! an empty table allocates nothing — at `n = 2^20` nodes and ~20 ladder
//! levels a per-`(node, level)` hash map would cost a gigabyte of empty
//! headers before the first publish. Per-node tables are small (a node
//! holds one entry per object whose publish ring it sits in, per level),
//! so sorted-insert beats hashing on both memory and cache behaviour.
//! The overlay and every [`Snapshot`] hold `n` of them
//! ([`PointerTables`]); a partitioned [`DirectoryNodeState`] holds its
//! node's one.
//!
//! [`Snapshot`]: crate::engine::Snapshot
//! [`DirectoryNodeState`]: crate::partition::DirectoryNodeState

use ron_metric::mem::vec_capacity_bytes;
use ron_metric::{CompactId, HeapBytes, Node};

use crate::authority::PointerOp;
use crate::directory::ObjectId;

/// One directory entry resident at a node: the level-`level` pointer for
/// `obj`, forwarding to `target`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PointerEntry {
    level: u32,
    obj: ObjectId,
    target: CompactId,
}

impl PointerEntry {
    fn key(&self) -> (u32, ObjectId) {
        (self.level, self.obj)
    }
}

/// One node's directory pointer table, sorted by `(level, object)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct PointerTable {
    entries: Vec<PointerEntry>,
}

impl PointerTable {
    fn search(&self, level: usize, obj: ObjectId) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&(level as u32, obj), PointerEntry::key)
    }

    /// The level-`level` entry for `obj`, if installed.
    pub(crate) fn get(&self, level: usize, obj: ObjectId) -> Option<Node> {
        self.search(level, obj)
            .ok()
            .map(|i| self.entries[i].target.node())
    }

    /// Installs (or retargets) the level-`level` entry for `obj`,
    /// returning the previous target — `HashMap::insert` semantics, so
    /// repair's did-the-table-change accounting carries over unchanged.
    pub(crate) fn insert(&mut self, level: usize, obj: ObjectId, target: Node) -> Option<Node> {
        let entry = PointerEntry {
            level: level as u32,
            obj,
            target: CompactId::from(target),
        };
        match self.search(level, obj) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i], entry).target.node()),
            Err(i) => {
                self.entries.insert(i, entry);
                None
            }
        }
    }

    /// Deletes the level-`level` entry for `obj`, returning the removed
    /// target if one was present.
    pub(crate) fn remove(&mut self, level: usize, obj: ObjectId) -> Option<Node> {
        self.search(level, obj)
            .ok()
            .map(|i| self.entries.remove(i).target.node())
    }

    /// Executes a repair plan's operations on this table, returning how
    /// many writes and deletes actually changed it — the counts a
    /// [`RepairReport`](crate::RepairReport) carries, in process and in
    /// the simulator's per-node acks alike.
    pub(crate) fn apply(&mut self, ops: &[PointerOp]) -> (usize, usize) {
        let (mut writes, mut deletes) = (0, 0);
        for op in ops {
            match op.target {
                Some(target) => {
                    if self.insert(op.level, op.obj, target) != Some(target) {
                        writes += 1;
                    }
                }
                None => {
                    if self.remove(op.level, op.obj).is_some() {
                        deletes += 1;
                    }
                }
            }
        }
        (writes, deletes)
    }

    /// Entries resident in this table — the node's share of the serving
    /// load.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// All nodes' directory pointer tables, indexed by node.
#[derive(Clone, Debug, Default)]
pub(crate) struct PointerTables {
    nodes: Vec<PointerTable>,
}

impl PointerTables {
    /// Empty tables for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        PointerTables {
            nodes: vec![PointerTable::default(); n],
        }
    }

    /// Node `v`'s table.
    pub(crate) fn node(&self, v: Node) -> &PointerTable {
        &self.nodes[v.index()]
    }

    /// Node `v`'s table, for installing and deleting entries.
    pub(crate) fn node_mut(&mut self, v: Node) -> &mut PointerTable {
        &mut self.nodes[v.index()]
    }

    /// Drops every entry stored at `v` (the node left; its state is
    /// lost), releasing the memory.
    pub(crate) fn clear_node(&mut self, v: Node) {
        self.nodes[v.index()] = PointerTable::default();
    }

    /// Total entries across all nodes.
    pub(crate) fn total(&self) -> usize {
        self.nodes.iter().map(PointerTable::len).sum()
    }
}

impl HeapBytes for PointerTables {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.nodes)
            + self
                .nodes
                .iter()
                .map(|t| vec_capacity_bytes(&t.entries))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut tables = PointerTables::new(4);
        let v = Node::new(2);
        let t = tables.node_mut(v);
        // Inserted out of key order: lookups rely on the sorted array.
        assert_eq!(t.insert(1, ObjectId(7), Node::new(3)), None);
        assert_eq!(t.insert(0, ObjectId(9), Node::new(1)), None);
        assert_eq!(t.insert(0, ObjectId(7), Node::new(1)), None);
        assert_eq!(t.get(1, ObjectId(7)), Some(Node::new(3)));
        assert_eq!(t.get(0, ObjectId(7)), Some(Node::new(1)));
        assert_eq!(t.get(0, ObjectId(9)), Some(Node::new(1)));
        assert_eq!(t.get(1, ObjectId(8)), None);
        // Retarget returns the previous pointer.
        assert_eq!(t.insert(1, ObjectId(7), Node::new(0)), Some(Node::new(3)));
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove(1, ObjectId(7)), Some(Node::new(0)));
        assert_eq!(t.remove(1, ObjectId(7)), None);
        assert_eq!(tables.node(Node::new(0)).get(1, ObjectId(7)), None);
        assert_eq!(tables.total(), 2);
    }

    #[test]
    fn clear_node_releases_the_table() {
        let mut t = PointerTables::new(2);
        t.node_mut(Node::new(0))
            .insert(0, ObjectId(1), Node::new(1));
        t.node_mut(Node::new(1))
            .insert(0, ObjectId(1), Node::new(0));
        t.clear_node(Node::new(0));
        assert_eq!(t.node(Node::new(0)).len(), 0);
        assert_eq!(t.node(Node::new(0)).get(0, ObjectId(1)), None);
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn heap_bytes_counts_entries() {
        let mut t = PointerTables::new(8);
        let empty = t.heap_bytes();
        for i in 0..16u64 {
            t.node_mut(Node::new(3))
                .insert(0, ObjectId(i), Node::new(0));
        }
        assert!(t.heap_bytes() >= empty + 16 * std::mem::size_of::<PointerEntry>());
    }
}
