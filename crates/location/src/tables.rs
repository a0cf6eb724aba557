//! Compact directory pointer tables: mutable per node, frozen in shared
//! chunks.
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
//!   ([`PointerTables`], which stamps each chunk of nodes it writes),
//!   a partitioned [`DirectoryNodeState`] its node's one; publish,
//!   unpublish and repair insert and remove in place.
//! * [`FrozenTables`] is what a [`Snapshot`] serves from: the rows
//!   copied in node order into [`FrozenRows`] — chunks of [`CHUNK`]
//!   nodes, each behind an `Arc`, so a successor snapshot shares every
//!   chunk an epoch did not write with the snapshot it supersedes,
//!   without building it (the snapshot's fingers are frozen the same
//!   way).
//! * [`TableRow`] is the borrowed sorted slice both hand out, with the
//!   one `get(level, object)`; the lookup walk reads nothing else.
//!
//! [`Bits`], the bitset the control plane keeps net membership in and a
//! snapshot keeps beside its frozen fingers, lives here too.
//!
//! [`Snapshot`]: crate::engine::Snapshot
//! [`DirectoryNodeState`]: crate::partition::DirectoryNodeState

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ron_metric::mem::vec_capacity_bytes;
use ron_metric::{CompactId, HeapBytes, Node};

use crate::authority::PointerOp;
use crate::directory::ObjectId;

/// One directory entry resident at a node: the level-`level` pointer for
/// `obj`, forwarding to `target`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PointerEntry {
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

/// All nodes' directory pointer tables, indexed by node, with a write
/// stamp per [`CHUNK`] of nodes: what a freeze needs to share the chunks
/// nobody wrote since the freeze it succeeds.
#[derive(Debug)]
pub(crate) struct PointerTables {
    nodes: Vec<PointerTable>,
    /// Which tables these are: fresh for every `new` and every clone, so
    /// a stamp is read only against a freeze of the same tables.
    lineage: u64,
    /// Writes so far; `stamps[c]` is the clock of chunk `c`'s last one.
    clock: u64,
    stamps: Vec<u64>,
}

/// The next [`PointerTables::lineage`].
fn fresh_lineage() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed -- only uniqueness matters, no data is published.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for PointerTables {
    /// A copy that diverges from here on: a new lineage, so neither
    /// side's freezes vouch for the other's chunks.
    fn clone(&self) -> Self {
        PointerTables {
            nodes: self.nodes.clone(),
            lineage: fresh_lineage(),
            clock: self.clock,
            stamps: self.stamps.clone(),
        }
    }
}

impl PointerTables {
    /// Empty tables for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        PointerTables {
            nodes: vec![PointerTable::default(); n],
            lineage: fresh_lineage(),
            clock: 0,
            stamps: vec![0; n.div_ceil(CHUNK)],
        }
    }

    /// Node `v`'s table.
    pub(crate) fn node(&self, v: Node) -> &PointerTable {
        &self.nodes[v.index()]
    }

    /// Node `v`'s table, for installing and deleting entries; stamps its
    /// chunk written.
    pub(crate) fn node_mut(&mut self, v: Node) -> &mut PointerTable {
        self.stamp(v);
        &mut self.nodes[v.index()]
    }

    fn stamp(&mut self, v: Node) {
        self.clock += 1;
        self.stamps[v.index() / CHUNK] = self.clock;
    }

    /// Drops every entry stored at `v` (the node left; its state is
    /// lost), releasing the memory.
    pub(crate) fn clear_node(&mut self, v: Node) {
        *self.node_mut(v) = PointerTable::default();
    }

    /// Executes a repair plan's operations on `v`'s table (see
    /// [`PointerTable::apply`]), stamping its chunk only if they changed
    /// it.
    pub(crate) fn apply(&mut self, v: Node, ops: &[PointerOp]) -> (usize, usize) {
        let (writes, deletes) = self.nodes[v.index()].apply(ops);
        if writes + deletes > 0 {
            self.stamp(v);
        }
        (writes, deletes)
    }

    /// Total entries across all nodes.
    pub(crate) fn total(&self) -> usize {
        self.nodes.iter().map(PointerTable::len).sum()
    }
}

impl HeapBytes for PointerTables {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.nodes)
            + vec_capacity_bytes(&self.stamps)
            + self
                .nodes
                .iter()
                .map(|t| vec_capacity_bytes(&t.entries))
                .sum::<usize>()
    }
}

/// Nodes per frozen chunk: what one epoch rewrites is measured in
/// chunks, and at 4096 nodes a 64-node wave and its repair touch about a
/// fifth of the 8-node chunks but nearly all of 128-node ones. Chunks of
/// 4 or 2 nodes read no better beside a reader: the rows they spare
/// are paid back in chunk headers and pointers.
pub(crate) const CHUNK: usize = 8;

/// [`CHUNK`] nodes' rows, aligned to a cache line: behind an `Arc` the
/// reference counts fill the line before it, so the writer retiring or
/// sharing a chunk never writes a line a reader reads.
#[repr(align(64))]
#[derive(Debug)]
struct Chunk<T> {
    /// Row `k` is `items[row_start[k]..row_start[k + 1]]`.
    row_start: [u32; CHUNK + 1],
    items: Box<[T]>,
}

/// One row per node, frozen in `Arc`-shared chunks of [`CHUNK`] nodes.
#[derive(Clone, Debug)]
pub(crate) struct FrozenRows<T> {
    chunks: Vec<Arc<Chunk<T>>>,
}

/// How many chunks a freeze shared with its predecessor and how many it
/// wrote afresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ChunkTally {
    pub(crate) shared: u64,
    pub(crate) written: u64,
}

impl<T: Copy + PartialEq> FrozenRows<T> {
    /// Freezes the rows of nodes `0..n`, `fill(v, out)` appending node
    /// `v`'s row to `out`. A chunk of `prev` whose nodes `changed` calls
    /// unchanged is shared without being built; every other chunk is
    /// built in a scratch buffer and compared with `prev`'s chunk at the
    /// same position, and an equal one is shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if one chunk's items outnumber what a `u32` offset
    /// addresses.
    pub(crate) fn freeze(
        n: usize,
        prev: Option<&Self>,
        tally: &mut ChunkTally,
        changed: impl Fn(Range<usize>) -> bool,
        mut fill: impl FnMut(Node, &mut Vec<T>),
    ) -> Self {
        let mut scratch = Vec::new();
        let chunks = (0..n.div_ceil(CHUNK))
            .map(|c| {
                let old = prev.and_then(|p| p.chunks.get(c));
                if let Some(old) = old.filter(|_| !changed(c * CHUNK..n.min((c + 1) * CHUNK))) {
                    tally.shared += 1;
                    return Arc::clone(old);
                }
                scratch.clear();
                let mut row_start = [0u32; CHUNK + 1];
                for k in 0..CHUNK {
                    let i = c * CHUNK + k;
                    if i < n {
                        fill(Node::new(i), &mut scratch);
                    }
                    row_start[k + 1] = u32::try_from(scratch.len()).expect("chunk overflows u32");
                }
                match old {
                    Some(old) if old.row_start == row_start && *old.items == scratch[..] => {
                        tally.shared += 1;
                        Arc::clone(old)
                    }
                    _ => {
                        tally.written += 1;
                        Arc::new(Chunk {
                            row_start,
                            items: scratch.as_slice().into(),
                        })
                    }
                }
            })
            .collect();
        FrozenRows { chunks }
    }

    /// Node `v`'s row.
    pub(crate) fn row(&self, v: Node) -> &[T] {
        let (c, k) = (v.index() / CHUNK, v.index() % CHUNK);
        let chunk = &self.chunks[c];
        &chunk.items[chunk.row_start[k] as usize..chunk.row_start[k + 1] as usize]
    }

    /// Reads one item per cache line of every chunk `self` does not
    /// share with `prev` (see `Snapshot::warm_since`).
    pub(crate) fn warm_since(&self, prev: &Self) {
        let per_line = (64 / std::mem::size_of::<T>()).max(1);
        for (chunk, old) in self.chunks.iter().zip(&prev.chunks) {
            if Arc::ptr_eq(chunk, old) {
                continue;
            }
            for &item in chunk.items.iter().step_by(per_line) {
                std::hint::black_box(item);
            }
        }
    }

    /// How many chunks `self` and `other` hold in the same allocation.
    #[cfg(test)]
    pub(crate) fn chunks_shared_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl<T> HeapBytes for FrozenRows<T> {
    /// Every chunk this freeze references, shared or not: the `Arc`
    /// block (the counts padded to a line, then the chunk) and its items.
    fn heap_bytes(&self) -> usize {
        let block = std::mem::align_of::<Chunk<T>>() + std::mem::size_of::<Chunk<T>>();
        vec_capacity_bytes(&self.chunks)
            + self
                .chunks
                .iter()
                .map(|c| block + std::mem::size_of_val::<[T]>(&c.items))
                .sum::<usize>()
    }
}

/// A fixed-length bitset: level membership, a snapshot's finger
/// provenance, a capture's stale fingers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// `len` clear bits.
    pub(crate) fn zeros(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// `len` set bits.
    pub(crate) fn ones(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last >>= 64 - len % 64;
        }
        Bits { words }
    }

    /// Bit `i` set where `flags[i]` is.
    pub(crate) fn from_bools(flags: &[bool]) -> Self {
        let word = |chunk: &[bool]| {
            let bit = |(b, &f): (usize, &bool)| u64::from(f) << b;
            chunk.iter().enumerate().map(bit).fold(0, |w, b| w | b)
        };
        Bits {
            words: flags.chunks(64).map(word).collect(),
        }
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub(crate) fn set(&mut self, i: usize, value: bool) {
        let (word, mask) = (&mut self.words[i / 64], 1u64 << (i % 64));
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Whether any bit in `range` is set.
    pub(crate) fn any_in(&self, range: Range<usize>) -> bool {
        if range.is_empty() {
            return false;
        }
        let (first, last) = (range.start / 64, (range.end - 1) / 64);
        (first..=last).any(|w| {
            let mut word = self.words[w];
            if w == first {
                word &= !0 << (range.start % 64);
            }
            if w == last {
                word &= !0 >> (63 - (range.end - 1) % 64);
            }
            word != 0
        })
    }

    /// The bits set here and clear in `other`, ascending.
    pub(crate) fn minus<'a>(&'a self, other: &'a Bits) -> impl Iterator<Item = usize> + 'a {
        set_bits(self.words.iter().zip(&other.words).map(|(a, b)| a & !b))
    }

    /// The set bits, ascending.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.words.iter().copied())
    }
}

/// The positions of the set bits of `words`, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

impl HeapBytes for Bits {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.words)
    }
}

/// Every node's pointer entries, frozen, and the lineage and clock of
/// the tables they were frozen from.
#[derive(Clone, Debug)]
pub(crate) struct FrozenTables {
    rows: FrozenRows<PointerEntry>,
    lineage: u64,
    clock: u64,
}

impl FrozenTables {
    /// Copies `tables` row by row, sharing what `prev` already holds: a
    /// chunk not written since `prev` was frozen from the same tables
    /// without building it, any other one when it comes out equal.
    pub(crate) fn freeze_tables(
        tables: &PointerTables,
        prev: Option<&Self>,
        tally: &mut ChunkTally,
    ) -> Self {
        let since = prev
            .filter(|p| p.lineage == tables.lineage)
            .map(|p| p.clock);
        let rows = FrozenRows::freeze(
            tables.nodes.len(),
            prev.map(|p| &p.rows),
            tally,
            |nodes| since.is_none_or(|clock| tables.stamps[nodes.start / CHUNK] > clock),
            |v, out| out.extend_from_slice(&tables.node(v).entries),
        );
        FrozenTables {
            rows,
            lineage: tables.lineage,
            clock: tables.clock,
        }
    }

    /// Node `v`'s entries as the lookup walk reads them.
    pub(crate) fn table(&self, v: Node) -> TableRow<'_> {
        TableRow {
            entries: self.rows.row(v),
        }
    }

    /// See [`FrozenRows::warm_since`].
    pub(crate) fn warm_since(&self, prev: &Self) {
        self.rows.warm_since(&prev.rows);
    }

    /// Node `v`'s entries, for comparing freezes.
    #[cfg(test)]
    pub(crate) fn entries(&self, v: Node) -> &[PointerEntry] {
        self.rows.row(v)
    }

    #[cfg(test)]
    pub(crate) fn chunks_shared_with(&self, other: &Self) -> usize {
        self.rows.chunks_shared_with(&other.rows)
    }

    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.rows.chunk_count()
    }
}

impl HeapBytes for FrozenTables {
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
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
        let mut tables = PointerTables::new(CHUNK + 4);
        tables
            .node_mut(Node::new(1))
            .insert(2, ObjectId(7), Node::new(3));
        tables
            .node_mut(Node::new(1))
            .insert(0, ObjectId(7), Node::new(0));
        tables
            .node_mut(Node::new(CHUNK + 3))
            .insert(1, ObjectId(9), Node::new(2));
        let mut tally = ChunkTally::default();
        let frozen = FrozenTables::freeze_tables(&tables, None, &mut tally);
        assert_eq!(frozen.chunk_count(), 2, "the last chunk is partial");
        assert_eq!(
            tally,
            ChunkTally {
                shared: 0,
                written: 2
            }
        );
        for v in Node::all(CHUNK + 4) {
            for level in 0..3 {
                for obj in [ObjectId(7), ObjectId(8), ObjectId(9)] {
                    assert_eq!(
                        frozen.table(v).get(level, obj),
                        tables.node(v).get(level, obj),
                        "{v} level {level} {obj}"
                    );
                }
            }
        }
        // Two chunk blocks, the entries sized exactly.
        let block = 64 + std::mem::size_of::<Chunk<PointerEntry>>();
        assert_eq!(
            frozen.heap_bytes(),
            2 * 8 + 2 * block + 3 * std::mem::size_of::<PointerEntry>()
        );
    }

    #[test]
    fn a_refreeze_shares_every_chunk_it_did_not_change() {
        let mut tables = PointerTables::new(3 * CHUNK);
        for i in 0..3 * CHUNK {
            tables
                .node_mut(Node::new(i))
                .insert(0, ObjectId(i as u64), Node::new(i));
        }
        let mut tally = ChunkTally::default();
        let before = FrozenTables::freeze_tables(&tables, None, &mut tally);
        tables.clear_node(Node::new(CHUNK + 2));
        let mut tally = ChunkTally::default();
        let after = FrozenTables::freeze_tables(&tables, Some(&before), &mut tally);
        assert_eq!(
            tally,
            ChunkTally {
                shared: 2,
                written: 1
            }
        );
        assert_eq!(after.chunks_shared_with(&before), 2);
        assert!(!Arc::ptr_eq(&after.rows.chunks[1], &before.rows.chunks[1]));
        assert_eq!(
            after
                .table(Node::new(CHUNK + 2))
                .get(0, ObjectId(CHUNK as u64 + 2)),
            None
        );
        assert_eq!(
            after
                .table(Node::new(CHUNK + 3))
                .get(0, ObjectId(CHUNK as u64 + 3)),
            Some(Node::new(CHUNK + 3))
        );
    }

    #[test]
    fn bits_answer_ranges_and_differences_across_word_boundaries() {
        let ones = Bits::ones(130);
        assert!((0..130).all(|i| ones.get(i)));
        assert_eq!(ones, Bits::from_bools(&[true; 130]), "no bit past the end");
        let mut bits = Bits::zeros(130);
        for i in [0, 63, 64, 129] {
            bits.set(i, true);
        }
        assert!(bits.any_in(63..64) && bits.any_in(60..66) && bits.any_in(129..130));
        assert!(!bits.any_in(1..63) && !bits.any_in(65..129) && !bits.any_in(5..5));
        let mut other = bits.clone();
        other.set(63, false);
        other.set(100, true);
        assert_eq!(bits.minus(&other).collect::<Vec<_>>(), [63]);
        assert_eq!(other.minus(&bits).collect::<Vec<_>>(), [100]);
        assert_eq!(ones.minus(&bits).count(), 126);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), [0, 63, 64, 129]);
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
