//! ID-range labeled trees for routing mode M2 (Theorem B.1).
//!
//! In the second routing mode, the nodes of a dense ball `B` collectively
//! store routes to all nodes of a larger ball `B'`: each member of `B` is
//! responsible for roughly `|B'| / |B|` targets, and a tree over `B` rooted
//! at the ball's center is labeled with *ID ranges* so that a packet
//! carrying only `ID(t)` can descend from the root to the member `v_t`
//! responsible for `t`. The paper chooses the target-to-member mapping and
//! the ranges freely; following its construction we hand out contiguous
//! chunks of the (sorted) target-ID list in DFS pre-order, so every subtree
//! owns one contiguous ID interval and each tree edge is labeled with a
//! single range.

use ron_metric::Node;

/// Which way a packet moves at a tree member, given a target ID.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RangeStep {
    /// The current member is responsible for this target.
    Responsible,
    /// Forward to this child member.
    Descend(Node),
    /// The ID is not assigned under the current member (routing error or
    /// the ID is not a target of this tree).
    NotHere,
}

/// A tree over a set of member nodes, labeled with ID ranges that map every
/// target ID to the unique responsible member.
///
/// # Example
///
/// ```
/// use ron_graph::IdRangeTree;
/// use ron_metric::Node;
///
/// // Star around node 0 over members {0, 1, 2}; targets are ids 10..16.
/// let members = vec![Node::new(0), Node::new(1), Node::new(2)];
/// let parent = vec![None, Some(0), Some(0)];
/// let targets: Vec<u32> = (10..16).collect();
/// let tree = IdRangeTree::new(members, parent, targets);
/// // Each member is responsible for exactly two of the six targets.
/// let v = tree.responsible(12).unwrap();
/// assert!(tree.members().contains(&v));
/// ```
#[derive(Clone, Debug)]
pub struct IdRangeTree {
    members: Vec<Node>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// DFS pre-order position of each member.
    dfs_pos: Vec<usize>,
    /// Member index at each DFS position (inverse of `dfs_pos`).
    dfs_order: Vec<usize>,
    /// Subtree size of each member.
    subtree: Vec<usize>,
    /// Sorted target IDs.
    targets: Vec<u32>,
}

impl IdRangeTree {
    /// Builds the tree from members, a parent relation (indices into
    /// `members`, `None` exactly for the root, which must be `members[0]`)
    /// and the set of target IDs.
    ///
    /// # Panics
    ///
    /// Panics if the parent relation is not a tree rooted at `members[0]`
    /// or if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<Node>, parent: Vec<Option<usize>>, mut targets: Vec<u32>) -> Self {
        let m = members.len();
        assert!(m > 0, "tree needs at least one member");
        assert_eq!(parent.len(), m, "parent relation arity mismatch");
        assert_eq!(parent[0], None, "members[0] must be the root");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert!(p < m, "parent index out of range");
                assert_ne!(p, i, "self-parent");
                children[p].push(i);
            } else {
                assert_eq!(i, 0, "only the root may lack a parent");
            }
        }
        // DFS pre-order; also validates that the relation is a tree.
        let mut dfs_order = Vec::with_capacity(m);
        let mut stack = vec![0usize];
        let mut seen = vec![false; m];
        while let Some(x) = stack.pop() {
            assert!(!seen[x], "parent relation has a cycle");
            seen[x] = true;
            dfs_order.push(x);
            // Reverse so children are visited in ascending order.
            for &c in children[x].iter().rev() {
                stack.push(c);
            }
        }
        assert_eq!(dfs_order.len(), m, "parent relation is disconnected");
        let mut dfs_pos = vec![0usize; m];
        for (pos, &x) in dfs_order.iter().enumerate() {
            dfs_pos[x] = pos;
        }
        let mut subtree = vec![1usize; m];
        for &x in dfs_order.iter().rev() {
            for &c in &children[x] {
                subtree[x] += subtree[c];
            }
        }
        targets.sort_unstable();
        targets.dedup();
        IdRangeTree {
            members,
            parent,
            children,
            dfs_pos,
            dfs_order,
            subtree,
            targets,
        }
    }

    /// The member nodes, in construction order (root first).
    #[must_use]
    pub fn members(&self) -> &[Node] {
        &self.members
    }

    /// The root member.
    #[must_use]
    pub fn root(&self) -> Node {
        self.members[0]
    }

    /// Sorted target IDs served by this tree.
    #[must_use]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Index of `node` in the member list, if it is a member.
    #[must_use]
    pub fn member_index(&self, node: Node) -> Option<usize> {
        self.members.iter().position(|&x| x == node)
    }

    /// Children members of the given member.
    pub fn children_of(&self, member: usize) -> impl Iterator<Item = Node> + '_ {
        self.children[member].iter().map(|&c| self.members[c])
    }

    /// Target-position chunk `[lo, hi)` owned by the member at DFS
    /// position `pos` (balanced split of `targets` among members).
    fn chunk_at(&self, pos: usize) -> (usize, usize) {
        let t = self.targets.len();
        let m = self.members.len();
        (pos * t / m, (pos + 1) * t / m)
    }

    /// Target-position interval `[lo, hi)` owned by the whole subtree of a
    /// member.
    fn subtree_chunk(&self, member: usize) -> (usize, usize) {
        let pos = self.dfs_pos[member];
        let t = self.targets.len();
        let m = self.members.len();
        (pos * t / m, (pos + self.subtree[member]) * t / m)
    }

    /// The member responsible for `id`, or `None` if `id` is not a target.
    #[must_use]
    pub fn responsible(&self, id: u32) -> Option<Node> {
        let pos = self.targets.binary_search(&id).ok()?;
        let m = self.members.len();
        let t = self.targets.len();
        // Find the DFS position whose chunk contains `pos`: the largest
        // dfs position p with p*t/m <= pos.
        let mut lo = 0usize;
        let mut hi = m - 1;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if mid * t / m <= pos {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        debug_assert!({
            let (a, b) = self.chunk_at(lo);
            (a..b).contains(&pos)
        });
        Some(self.members[self.dfs_order[lo]])
    }

    /// Routing decision at `member` for target `id`:
    /// descend, stop (responsible), or fail (`id` not under this subtree).
    ///
    /// Each member can compute this from its own chunk and its children's
    /// subtree intervals — exactly the per-node state the paper charges for.
    #[must_use]
    pub fn route_step(&self, member: usize, id: u32) -> RangeStep {
        let Ok(pos) = self.targets.binary_search(&id) else {
            return RangeStep::NotHere;
        };
        let (lo, hi) = self.chunk_at(self.dfs_pos[member]);
        if (lo..hi).contains(&pos) {
            return RangeStep::Responsible;
        }
        for &c in &self.children[member] {
            let (clo, chi) = self.subtree_chunk(c);
            if (clo..chi).contains(&pos) {
                return RangeStep::Descend(self.members[c]);
            }
        }
        RangeStep::NotHere
    }

    /// The sequence of members visited routing from the root to the member
    /// responsible for `id`. `None` if `id` is not a target.
    #[must_use]
    pub fn route_from_root(&self, id: u32) -> Option<Vec<Node>> {
        self.targets.binary_search(&id).ok()?;
        let mut path = vec![self.root()];
        let mut cur = 0usize;
        loop {
            match self.route_step(cur, id) {
                RangeStep::Responsible => return Some(path),
                RangeStep::Descend(next) => {
                    cur = self.member_index(next).expect("child is a member");
                    path.push(next);
                }
                RangeStep::NotHere => return None,
            }
        }
    }

    /// Maximum number of targets any single member is responsible for.
    #[must_use]
    pub fn max_load(&self) -> usize {
        (0..self.members.len())
            .map(|pos| {
                let (lo, hi) = self.chunk_at(pos);
                hi - lo
            })
            .max()
            .unwrap_or(0)
    }

    /// Tree depth (root has depth 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.members.len()];
        let mut best = 0;
        for &x in &self.dfs_order {
            if let Some(p) = self.parent[x] {
                depth[x] = depth[p] + 1;
                best = best.max(depth[x]);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(members: usize, targets: usize) -> IdRangeTree {
        let nodes: Vec<Node> = (0..members).map(Node::new).collect();
        let parent: Vec<Option<usize>> = (0..members)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        IdRangeTree::new(nodes, parent, (100..100 + targets as u32).collect())
    }

    #[test]
    fn every_target_has_a_responsible_member() {
        let tree = chain(4, 13);
        for id in 100..113 {
            assert!(tree.responsible(id).is_some(), "id {id} unassigned");
        }
        assert_eq!(tree.responsible(99), None);
        assert_eq!(tree.responsible(113), None);
    }

    #[test]
    fn loads_are_balanced() {
        let tree = chain(4, 13);
        assert!(tree.max_load() <= 13usize.div_ceil(4));
    }

    #[test]
    fn route_from_root_reaches_responsible() {
        let tree = chain(5, 23);
        for id in 100..123 {
            let path = tree.route_from_root(id).unwrap();
            assert_eq!(*path.last().unwrap(), tree.responsible(id).unwrap());
            // A chain of 5 members has depth at most 4.
            assert!(path.len() <= 5);
        }
    }

    #[test]
    fn route_step_rejects_foreign_ids() {
        let tree = chain(3, 5);
        assert_eq!(tree.route_step(0, 999), RangeStep::NotHere);
    }

    #[test]
    fn star_topology_descends_once() {
        let nodes: Vec<Node> = (0..4).map(Node::new).collect();
        let parent = vec![None, Some(0), Some(0), Some(0)];
        let tree = IdRangeTree::new(nodes, parent, (0..8).collect());
        assert_eq!(tree.depth(), 1);
        for id in 0..8 {
            let path = tree.route_from_root(id).unwrap();
            assert!(path.len() <= 2);
        }
    }

    #[test]
    fn fewer_targets_than_members() {
        let tree = chain(6, 2);
        let mut owners = Vec::new();
        for id in 100..102 {
            owners.push(tree.responsible(id).unwrap());
        }
        owners.dedup();
        assert!(!owners.is_empty());
        // All ids still routable.
        for id in 100..102 {
            assert!(tree.route_from_root(id).is_some());
        }
    }

    #[test]
    fn single_member_owns_everything() {
        let tree = IdRangeTree::new(vec![Node::new(7)], vec![None], vec![1, 2, 3]);
        for id in 1..=3 {
            assert_eq!(tree.responsible(id), Some(Node::new(7)));
            assert_eq!(tree.route_step(0, id), RangeStep::Responsible);
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn rejects_forests() {
        let nodes: Vec<Node> = (0..3).map(Node::new).collect();
        // Member 2 points at itself through a cycle with 1: not a tree.
        let parent = vec![None, Some(2), Some(1)];
        let _ = IdRangeTree::new(nodes, parent, vec![]);
    }

    #[test]
    fn duplicate_target_ids_are_deduped() {
        let tree = IdRangeTree::new(vec![Node::new(0)], vec![None], vec![5, 5, 5]);
        assert_eq!(tree.targets(), &[5]);
    }
}
