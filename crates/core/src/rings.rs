//! The rings-of-neighbors data structure itself.
//!
//! A [`RingFamily`] stores, for every node `u`, a list of rings: the
//! `i`-th ring contains pointers to nodes inside a ball `B_i` around `u`.
//! The structure is an overlay network; [`RingFamily::out_degree`] and
//! friends report the quantities the paper's theorem statements bound.
//!
//! # Memory layout
//!
//! The family is a compact-id CSR arena, not a vec-of-vec-of-rings: one
//! global `(level, radius)` table (rings are built at the same scales for
//! every node), one offset array, and one flat 4-byte-per-pointer member
//! arena. Accessors hand out borrowing [`RingView`]s; [`HeapBytes`]
//! accounts the exact footprint.

use ron_metric::mem::vec_capacity_bytes;
use ron_metric::{par, BallOracle, CompactId, HeapBytes, Metric, Node, Space};
use ron_nets::NestedNets;

/// One ring of a node — the neighbors at one scale — borrowed from a
/// [`RingFamily`] arena.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RingView<'a> {
    /// The scale index of this ring (application-specific; e.g. the net
    /// level `j` of `Y_uj` or the cardinality exponent `i` of `X_ui`).
    pub level: usize,
    /// Radius of the ball `B_i` this ring is contained in.
    pub radius: f64,
    /// The neighbor pointers, sorted by node id.
    members: &'a [CompactId],
}

impl<'a> RingView<'a> {
    /// The neighbor pointers, in node-id order. The borrow is tied to the
    /// family, not this view, so the slice outlives the `RingView` value.
    #[must_use]
    pub fn members(&self) -> &'a [Node] {
        CompactId::as_nodes(self.members)
    }

    /// Number of neighbors in this ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `v` is in this ring.
    #[must_use]
    pub fn contains(&self, v: Node) -> bool {
        self.members.binary_search(&CompactId::from(v)).is_ok()
    }
}

/// Rings of neighbors for every node of a space, in one compact arena.
///
/// # Example
///
/// Build the net rings `Y_uj = B_u(4 * 2^j) ∩ G_j` of a uniform line and
/// check containment:
///
/// ```
/// use ron_core::RingFamily;
/// use ron_metric::{LineMetric, Metric, Node, Space};
/// use ron_nets::NestedNets;
///
/// let space = Space::new(LineMetric::uniform(32)?);
/// let nets = NestedNets::build(&space);
/// let rings = RingFamily::from_nets(&space, &nets, |_, net_radius| Some(4.0 * net_radius));
/// let u = Node::new(0);
/// for ring in rings.rings_of(u) {
///     for &v in ring.members() {
///         assert!(space.dist(u, v) <= ring.radius);
///     }
/// }
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RingFamily {
    n: usize,
    /// Global `(scale index, radius)` per built level, in build order —
    /// the same for every node.
    levels: Vec<(usize, f64)>,
    /// CSR offsets into `members`, level-major: the ring of node `u` at
    /// built-level position `j` is `members[start[j * (n + 1) + u] ..
    /// start[j * (n + 1) + u + 1]]`.
    start: Vec<u32>,
    /// Flat pointer arena, 4 bytes per ring entry; each ring's slice is
    /// sorted by node id.
    members: Vec<CompactId>,
}

impl RingFamily {
    /// Builds net rings: for each node `u` and each net level `j`, the ring
    /// `B_u(r) ∩ G_j` where `r = ring_radius(j, net_radius_j)`; levels
    /// mapped to `None` are skipped (`ring_radius` is called once per
    /// level).
    ///
    /// This is the construction of Theorem 2.1 (`r_j = 4 Delta / (delta
    /// 2^j)` after re-indexing) and of the Y-neighbors in Theorems 3.2/4.1.
    ///
    /// The loop is *inverted* relative to the definition: instead of one
    /// ball query per `(node, level)` pair, each net member `m` answers a
    /// single query `B_m(r)` and is scattered into the rings of every node
    /// it reaches — `O(sum over members of |B_m(r)|)` work per level,
    /// which the packing bound keeps near-linear, and the only orientation
    /// that scales on the sparse backend. The member queries run in
    /// parallel on [`par`]; the scatter is sequential in member order, so
    /// the result is bit-identical for every thread count.
    #[must_use]
    pub fn from_nets<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        nets: &NestedNets,
        ring_radius: impl Fn(usize, f64) -> Option<f64> + Sync,
    ) -> Self {
        let _stage = ron_obs::stage("rings");
        let _span = ron_obs::span("construct.rings");
        let n = space.len();
        let oracle = space.index();
        let mut levels: Vec<(usize, f64)> = Vec::new();
        let mut start: Vec<u32> = Vec::new();
        let mut arena: Vec<CompactId> = Vec::new();
        for (j, net) in nets.iter() {
            let Some(r) = ring_radius(j, net.radius()) else {
                continue;
            };
            let members = net.members();
            let reached: Vec<Vec<Node>> = par::map(members.len(), |i| {
                let mut hit = Vec::new();
                oracle.for_each_in_ball(members[i], r, &mut |_, v| hit.push(v));
                hit
            });
            // Counting-sort scatter into this level's CSR block. Members
            // are scanned in ascending id order, so each node's ring
            // arrives already sorted.
            let base = arena.len();
            let mut counts = vec![0u32; n + 1];
            for hit in &reached {
                for v in hit {
                    counts[v.index() + 1] += 1;
                }
            }
            for i in 1..counts.len() {
                counts[i] += counts[i - 1];
            }
            let total = counts[n] as usize;
            let level_start: Vec<u32> = counts
                .iter()
                .map(|&c| u32::try_from(base + c as usize).expect("ring arena exceeds u32"))
                .collect();
            let mut cursor = counts;
            arena.resize(base + total, CompactId::default());
            for (i, hit) in reached.iter().enumerate() {
                for v in hit {
                    arena[base + cursor[v.index()] as usize] = CompactId::from(members[i]);
                    cursor[v.index()] += 1;
                }
            }
            levels.push((j, r));
            start.extend_from_slice(&level_start[..n]);
            start.push(level_start[n]);
        }
        // The family is never resized after this: hold no growth slack.
        levels.shrink_to_fit();
        start.shrink_to_fit();
        arena.shrink_to_fit();
        RingFamily {
            n,
            levels,
            start,
            members: arena,
        }
    }
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the family is empty (never true: construction panics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The ring at built-level position `idx` (not scale index) of `u`.
    fn view_at(&self, u: Node, idx: usize) -> RingView<'_> {
        let (level, radius) = self.levels[idx];
        let base = idx * (self.n + 1) + u.index();
        let lo = self.start[base] as usize;
        let hi = self.start[base + 1] as usize;
        RingView {
            level,
            radius,
            members: &self.members[lo..hi],
        }
    }

    /// The rings of node `u`, one [`RingView`] per built level.
    pub fn rings_of(&self, u: Node) -> impl Iterator<Item = RingView<'_>> + '_ {
        (0..self.levels.len()).map(move |idx| self.view_at(u, idx))
    }

    /// The ring of `u` with the given scale index, if present.
    #[must_use]
    pub fn ring(&self, u: Node, level: usize) -> Option<RingView<'_>> {
        let idx = self.levels.iter().position(|&(l, _)| l == level)?;
        Some(self.view_at(u, idx))
    }

    /// All distinct neighbors of `u` across rings (sorted by node id).
    #[must_use]
    pub fn neighbors_of(&self, u: Node) -> Vec<Node> {
        let mut all = Vec::new();
        self.collect_neighbors(u, &mut all);
        all
    }

    /// Fills `buf` with the distinct neighbors of `u`, sorted by node id
    /// (allocation-free when `buf` has capacity).
    fn collect_neighbors(&self, u: Node, buf: &mut Vec<Node>) {
        buf.clear();
        buf.extend(self.rings_of(u).flat_map(|r| r.members().iter().copied()));
        buf.sort_unstable();
        buf.dedup();
    }

    /// Out-degree of `u` (distinct neighbors).
    #[must_use]
    pub fn out_degree(&self, u: Node) -> usize {
        self.neighbors_of(u).len()
    }

    /// Maximum out-degree over all nodes — the quantity bounded by the
    /// small-world theorems.
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        (0..self.len())
            .map(|i| self.out_degree(Node::new(i)))
            .max()
            .unwrap_or(0)
    }

    /// Histogram of out-degrees: entry `d` is the number of nodes with
    /// exactly `d` distinct neighbors (length `max_out_degree() + 1`).
    ///
    /// Collects the whole degree distribution in one pass with a reused
    /// scratch buffer, so callers wanting load reports or percentile
    /// columns avoid the per-node allocation of `out_degree` in a loop.
    #[must_use]
    pub fn neighbor_count_histogram(&self) -> Vec<usize> {
        let mut hist: Vec<usize> = Vec::new();
        let mut scratch: Vec<Node> = Vec::new();
        for i in 0..self.len() {
            self.collect_neighbors(Node::new(i), &mut scratch);
            let d = scratch.len();
            if d >= hist.len() {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
        hist
    }

    /// Total pointer count (with ring multiplicity), the raw size of the
    /// distributed structure.
    #[must_use]
    pub fn total_pointers(&self) -> usize {
        self.members.len()
    }

    /// Largest single ring cardinality (the paper's `K`).
    #[must_use]
    pub fn max_ring_size(&self) -> usize {
        self.start
            .chunks(self.n + 1)
            .flat_map(|level_start| level_start.windows(2).map(|w| (w[1] - w[0]) as usize))
            .max()
            .unwrap_or(0)
    }
    /// Checks that every ring member lies inside the ring's ball.
    ///
    /// Returns the first violation as `(node, level, member)`.
    #[must_use]
    pub fn check_containment<M: Metric, I>(
        &self,
        space: &Space<M, I>,
    ) -> Option<(Node, usize, Node)> {
        for u in space.nodes() {
            for ring in self.rings_of(u) {
                for &v in ring.members() {
                    if space.dist(u, v) > ring.radius * (1.0 + 1e-12) {
                        return Some((u, ring.level, v));
                    }
                }
            }
        }
        None
    }
}

impl HeapBytes for RingFamily {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.levels)
            + vec_capacity_bytes(&self.start)
            + vec_capacity_bytes(&self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::LineMetric;

    fn family() -> (Space<LineMetric>, RingFamily) {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let nets = NestedNets::build(&space);
        // Ring radius = 4x the net radius at every level (Theorem 2.1 shape
        // with delta = 1).
        let rings = RingFamily::from_nets(&space, &nets, |_, r| Some(4.0 * r));
        (space, rings)
    }

    #[test]
    fn rings_contained_in_balls() {
        let (space, rings) = family();
        assert_eq!(rings.check_containment(&space), None);
    }

    #[test]
    fn rings_hold_only_net_points() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let nets = NestedNets::build(&space);
        let rings = RingFamily::from_nets(&space, &nets, |_, r| Some(4.0 * r));
        for u in space.nodes() {
            for ring in rings.rings_of(u) {
                let net = nets.net(ring.level);
                for &v in ring.members() {
                    assert!(net.contains(v));
                }
            }
        }
    }

    #[test]
    fn every_ring_is_nonempty_at_generous_radius() {
        // With ring radius 4x net radius, covering guarantees a member.
        let (_, rings) = family();
        for i in 0..rings.len() {
            for ring in rings.rings_of(Node::new(i)) {
                assert!(
                    !ring.is_empty(),
                    "empty ring at node {i} level {}",
                    ring.level
                );
            }
        }
    }

    #[test]
    fn degree_statistics() {
        let (_, rings) = family();
        assert!(rings.max_out_degree() >= 1);
        assert!(rings.total_pointers() >= rings.len());
        assert!(rings.max_ring_size() >= 1);
        let u = Node::new(0);
        assert_eq!(rings.out_degree(u), rings.neighbors_of(u).len());
    }

    #[test]
    fn histogram_counts_every_node_once() {
        let (_, rings) = family();
        let hist = rings.neighbor_count_histogram();
        assert_eq!(hist.iter().sum::<usize>(), rings.len());
        assert_eq!(hist.len(), rings.max_out_degree() + 1);
        assert!(*hist.last().unwrap() >= 1);
        // The histogram agrees with the per-node accounting.
        let d0 = rings.out_degree(Node::new(0));
        assert!(hist[d0] >= 1);
    }

    #[test]
    fn skipping_levels() {
        let space = Space::new(LineMetric::uniform(16).unwrap());
        let nets = NestedNets::build(&space);
        let rings =
            RingFamily::from_nets(&space, &nets, |j, r| if j == 0 { None } else { Some(r) });
        assert!(rings.ring(Node::new(0), 0).is_none());
        assert!(rings.ring(Node::new(0), 1).is_some());
    }
    #[test]
    fn heap_bytes_tracks_the_arena() {
        let (_, rings) = family();
        let bytes = rings.heap_bytes();
        assert!(bytes >= rings.total_pointers() * 4);
        // Shrunk-to-fit arena stays within a small constant of the raw
        // pointer payload plus offsets.
        assert!(bytes < (rings.total_pointers() + rings.len() * 16) * 32);
    }
}
