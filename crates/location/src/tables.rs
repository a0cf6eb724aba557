//! Compact directory pointer tables: mutable per node, frozen in one
//! arena.
//!
//! A node's entries are one compact array sorted by `(level, object)`,
//! 16 bytes each, found by binary search — at `n = 2^20` nodes and ~20
//! ladder levels a per-`(node, level)` hash map would cost a gigabyte of
//! empty headers before the first publish, and per-node tables are small
//! (a node holds one entry per object whose publish ring it sits in, per
//! level), so a sorted array beats hashing on both memory and cache
//! behaviour. Two owners store such arrays and one view reads them:
//!
//! * [`PointerTable`] is the mutable one — a `Vec` per node, empty
//!   tables allocating nothing. The overlay holds `n` of them
//!   ([`PointerTables`]), a partitioned [`DirectoryNodeState`] its
//!   node's one; publish, unpublish and repair insert and remove in
//!   place.
//! * [`FrozenTables`] is what a [`Snapshot`] serves from: every node's
//!   entries copied once, in node order, into a single `entries` array
//!   behind `n + 1` row offsets — two allocations however large `n` is,
//!   so a capture is one pass of slice copies and a superseded
//!   snapshot is freed in O(1).
//! * [`TableRow`] is the borrowed sorted slice both hand out, with the
//!   one `get(level, object)`; the lookup walk reads nothing else.
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

/// One node's entries, borrowed from whoever stores them — a mutable
/// [`PointerTable`] or a row of a [`FrozenTables`] arena — sorted by
/// `(level, object)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TableRow<'a> {
    entries: &'a [PointerEntry],
}

impl TableRow<'_> {
    fn search(self, level: usize, obj: ObjectId) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&(level as u32, obj), PointerEntry::key)
    }

    /// The level-`level` entry for `obj`, if installed.
    pub(crate) fn get(self, level: usize, obj: ObjectId) -> Option<Node> {
        self.search(level, obj)
            .ok()
            .map(|i| self.entries[i].target.node())
    }
}

/// One node's directory pointer table, sorted by `(level, object)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct PointerTable {
    entries: Vec<PointerEntry>,
}

impl PointerTable {
    /// The entries as the lookup walk reads them.
    pub(crate) fn row(&self) -> TableRow<'_> {
        TableRow {
            entries: &self.entries,
        }
    }

    fn search(&self, level: usize, obj: ObjectId) -> Result<usize, usize> {
        self.row().search(level, obj)
    }

    /// The level-`level` entry for `obj`, if installed.
    pub(crate) fn get(&self, level: usize, obj: ObjectId) -> Option<Node> {
        self.row().get(level, obj)
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

/// Every node's pointer entries frozen into one arena: node `v`'s row is
/// `entries[row_start[v]..row_start[v + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct FrozenTables {
    /// `n + 1` offsets into `entries`, non-decreasing.
    row_start: Vec<u32>,
    entries: Vec<PointerEntry>,
}

impl FrozenTables {
    /// Copies `tables` row by row, in node order.
    ///
    /// # Panics
    ///
    /// Panics if the entries outnumber what a `u32` offset addresses.
    pub(crate) fn freeze(tables: &PointerTables) -> Self {
        let total = tables.total();
        assert!(
            u32::try_from(total).is_ok(),
            "{total} pointer entries overflow the arena's u32 offsets"
        );
        let mut row_start = Vec::with_capacity(tables.nodes.len() + 1);
        let mut entries = Vec::with_capacity(total);
        for table in &tables.nodes {
            row_start.push(entries.len() as u32);
            entries.extend_from_slice(&table.entries);
        }
        row_start.push(entries.len() as u32);
        FrozenTables { row_start, entries }
    }

    /// Node `v`'s row.
    pub(crate) fn row(&self, v: Node) -> TableRow<'_> {
        let i = v.index();
        TableRow {
            entries: &self.entries[self.row_start[i] as usize..self.row_start[i + 1] as usize],
        }
    }
}

impl HeapBytes for FrozenTables {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.row_start) + vec_capacity_bytes(&self.entries)
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
    fn frozen_rows_answer_like_the_tables_they_copied() {
        let mut tables = PointerTables::new(4);
        tables
            .node_mut(Node::new(1))
            .insert(2, ObjectId(7), Node::new(3));
        tables
            .node_mut(Node::new(1))
            .insert(0, ObjectId(7), Node::new(0));
        tables
            .node_mut(Node::new(3))
            .insert(1, ObjectId(9), Node::new(2));
        let frozen = FrozenTables::freeze(&tables);
        assert_eq!(frozen.row_start, [0, 0, 2, 2, 3]);
        for v in Node::all(4) {
            for level in 0..3 {
                for obj in [ObjectId(7), ObjectId(8), ObjectId(9)] {
                    assert_eq!(
                        frozen.row(v).get(level, obj),
                        tables.node(v).get(level, obj),
                        "{v} level {level} {obj}"
                    );
                }
            }
        }
        // Two allocations, sized exactly.
        assert_eq!(
            frozen.heap_bytes(),
            5 * 4 + 3 * std::mem::size_of::<PointerEntry>()
        );
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
