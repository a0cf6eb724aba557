use ron_metric::Node;

use crate::bits::index_bits;

/// A canonical bijection between a finite node set and `[k] = {0..k-1}`.
///
/// The paper replaces `ceil(log n)`-bit global identifiers with indices
/// into per-node *host enumerations* (of a node's neighbors) and *virtual
/// enumerations* (of its virtual neighbors). An index costs only
/// `ceil(log K)` bits where `K` bounds the set size — the key to the
/// storage bounds of Theorems 2.1 and 3.4.
///
/// Enumerations are canonical: nodes are ordered by id. Hence two nodes
/// whose sets coincide have identical enumerations, which the paper uses
/// for the level-0 rings ("the host enumerations `phi_u0` coincide").
///
/// # Example
///
/// ```
/// use ron_core::Enumeration;
/// use ron_metric::Node;
///
/// let e = Enumeration::new(vec![Node::new(9), Node::new(3), Node::new(7)]);
/// assert_eq!(e.index_of(Node::new(7)), Some(1)); // sorted order: 3,7,9
/// assert_eq!(e.node_at(2), Node::new(9));
/// assert_eq!(e.len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Enumeration {
    nodes: Vec<Node>,
    /// `(node, index)` pairs sorted by node, for `index_of` lookups.
    lookup: Vec<(Node, u32)>,
}

impl Enumeration {
    /// Builds the canonical enumeration of a node set (sorted, deduped).
    #[must_use]
    pub fn new(mut nodes: Vec<Node>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        Self::from_ordered(nodes)
    }

    /// Builds an enumeration preserving the given order (first occurrence
    /// wins for duplicates).
    ///
    /// Theorem 3.4's host enumerations put the canonical level-0 block
    /// first so its indices coincide across all nodes; this constructor
    /// supports that layout.
    #[must_use]
    pub fn from_ordered(nodes: Vec<Node>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        let nodes: Vec<Node> = nodes.into_iter().filter(|&v| seen.insert(v)).collect();
        let mut lookup: Vec<(Node, u32)> = nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        lookup.sort_unstable_by_key(|&(v, _)| v);
        Enumeration { nodes, lookup }
    }

    /// Number of enumerated nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the enumeration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The index of `node`, or `None` if it is not in the set.
    #[must_use]
    pub fn index_of(&self, node: Node) -> Option<u32> {
        self.lookup
            .binary_search_by_key(&node, |&(v, _)| v)
            .ok()
            .map(|i| self.lookup[i].1)
    }

    /// The node at index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[must_use]
    pub fn node_at(&self, idx: u32) -> Node {
        self.nodes[idx as usize]
    }

    /// The enumerated nodes, in index order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether `node` is in the enumerated set.
    #[must_use]
    pub fn contains(&self, node: Node) -> bool {
        self.index_of(node).is_some()
    }

    /// Bits to store one index into this enumeration.
    #[must_use]
    pub fn index_bits(&self) -> u64 {
        index_bits(self.len())
    }
}

impl FromIterator<Node> for Enumeration {
    fn from_iter<T: IntoIterator<Item = Node>>(iter: T) -> Self {
        Enumeration::new(iter.into_iter().collect())
    }
}

/// A translation function `zeta: [A] x [B] -> [C] ∪ {null}` stored as
/// sorted triples, as in the proofs of Theorems 2.1 and 3.4.
///
/// `zeta_u(x, y) = z` translates "the node with index `y` in some *other*
/// enumeration reachable through my neighbor with host index `x`" into "my
/// own host index `z` for that node". Nodes build them at preprocessing
/// time (when global knowledge is available); at query/routing time only
/// `lookup` is used — on data that lives inside a single label or table.
///
/// # Example
///
/// ```
/// use ron_core::TranslationFn;
///
/// let zeta = TranslationFn::from_triples(vec![(0, 2, 5), (1, 0, 3)]);
/// assert_eq!(zeta.lookup(0, 2), Some(5));
/// assert_eq!(zeta.lookup(0, 3), None); // null
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslationFn {
    /// Sorted by (x, y).
    triples: Vec<(u32, u32, u32)>,
}

impl TranslationFn {
    /// Builds from explicit `(x, y, z)` triples (duplicates on `(x, y)`
    /// keep the smallest `z`, deterministically).
    #[must_use]
    pub fn from_triples(mut triples: Vec<(u32, u32, u32)>) -> Self {
        triples.sort_unstable();
        triples.dedup_by_key(|t| (t.0, t.1));
        TranslationFn { triples }
    }

    /// The translation of `(x, y)`, or `None` (the paper's "null").
    #[must_use]
    pub fn lookup(&self, x: u32, y: u32) -> Option<u32> {
        self.triples
            .binary_search_by_key(&(x, y), |&(a, b, _)| (a, b))
            .ok()
            .map(|i| self.triples[i].2)
    }

    /// All entries `(x, y, z)` with the given `x`, in `y` order.
    ///
    /// Used by the label decoder of Theorem 3.4, which scans "all entries
    /// of the form `(f, ·)`".
    #[must_use]
    pub fn entries_for(&self, x: u32) -> &[(u32, u32, u32)] {
        let lo = self.triples.partition_point(|&(a, _, _)| a < x);
        let hi = self.triples.partition_point(|&(a, _, _)| a <= x);
        &self.triples[lo..hi]
    }

    /// Number of non-null entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the function is empty (all-null).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_canonical() {
        let a = Enumeration::new(vec![Node::new(5), Node::new(1), Node::new(5)]);
        let b: Enumeration = [Node::new(1), Node::new(5)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.index_of(Node::new(1)), Some(0));
        assert_eq!(a.index_of(Node::new(5)), Some(1));
        assert_eq!(a.index_of(Node::new(2)), None);
        assert!(a.contains(Node::new(5)));
    }

    #[test]
    fn equal_sets_give_equal_enumerations() {
        let a = Enumeration::new(vec![Node::new(3), Node::new(8), Node::new(0)]);
        let b = Enumeration::new(vec![Node::new(8), Node::new(0), Node::new(3)]);
        for i in 0..3 {
            assert_eq!(a.node_at(i), b.node_at(i));
        }
    }

    #[test]
    fn enumeration_index_bits() {
        assert_eq!(Enumeration::new(vec![]).index_bits(), 0);
        assert_eq!(Enumeration::new(vec![Node::new(0)]).index_bits(), 0);
        let e = Enumeration::new((0..5).map(Node::new).collect());
        assert_eq!(e.index_bits(), 3);
    }

    #[test]
    fn translation_lookup_and_null() {
        let zeta = TranslationFn::from_triples(vec![(1, 1, 9), (0, 0, 4), (1, 0, 2)]);
        assert_eq!(zeta.lookup(0, 0), Some(4));
        assert_eq!(zeta.lookup(1, 0), Some(2));
        assert_eq!(zeta.lookup(1, 1), Some(9));
        assert_eq!(zeta.lookup(2, 0), None);
        assert_eq!(zeta.len(), 3);
    }

    #[test]
    fn translation_entries_for_prefix() {
        let zeta = TranslationFn::from_triples(vec![(1, 1, 9), (0, 0, 4), (1, 0, 2), (2, 5, 1)]);
        assert_eq!(zeta.entries_for(1), &[(1, 0, 2), (1, 1, 9)]);
        assert_eq!(zeta.entries_for(3), &[]);
    }

    #[test]
    fn duplicate_keys_keep_smallest() {
        let zeta = TranslationFn::from_triples(vec![(0, 0, 7), (0, 0, 3)]);
        assert_eq!(zeta.lookup(0, 0), Some(3));
        assert_eq!(zeta.len(), 1);
    }

    #[test]
    fn ordered_enumeration_preserves_layout() {
        let e = Enumeration::from_ordered(vec![
            Node::new(9),
            Node::new(2),
            Node::new(9), // duplicate: first occurrence wins
            Node::new(4),
        ]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.node_at(0), Node::new(9));
        assert_eq!(e.node_at(1), Node::new(2));
        assert_eq!(e.node_at(2), Node::new(4));
        assert_eq!(e.index_of(Node::new(9)), Some(0));
        assert_eq!(e.index_of(Node::new(4)), Some(2));
        assert_eq!(e.index_of(Node::new(5)), None);
    }

    #[test]
    fn shared_prefix_blocks_coincide() {
        // Two enumerations with the same first block have equal indices on it.
        let block = vec![Node::new(3), Node::new(7)];
        let mut a_rest = block.clone();
        a_rest.extend([Node::new(1)]);
        let mut b_rest = block.clone();
        b_rest.extend([Node::new(9), Node::new(0)]);
        let a = Enumeration::from_ordered(a_rest);
        let b = Enumeration::from_ordered(b_rest);
        for &v in &block {
            assert_eq!(a.index_of(v), b.index_of(v));
        }
    }
}
