//! Memory-sparse ball-query backend: a hierarchy of coarse nets.
//!
//! [`NetTreeIndex`] answers the [`BallOracle`](crate::BallOracle) queries
//! by descending a ladder of greedy nets at geometrically shrinking radii
//! (cover-tree / navigating-nets style, after Lemma 1.4's net-ball
//! cardinality bound): level 0 is a net at the eccentricity of node 0
//! (a handful of members), each level halves the radius, and the last
//! level contains every node. Each member of level `k+1` is linked to a
//! level-`k` parent within the level-`k` radius, so the nodes reachable
//! below a level-`k` member all lie within `2 r_k` of it. Each internal
//! member stores its measured *reach*, the largest of those distances
//! (on a 128 × 128 jittered grid, 0.1–1 `r_k` on average and at most
//! 1.63 `r_k`), and every query prunes by it: a member at distance `d`
//! is dropped when `d` exceeds `r + reach` by more than a `1e-9`
//! relative rounding margin of `d` (cover-tree style: Beygelzimer,
//! Kakade and Langford, ICML 2006).
//!
//! Costs on a doubling metric of aspect ratio `Delta`:
//!
//! * build: `O(n log Delta)` distance evaluations (each level is built by
//!   *marking* the open ball of every accepted member, with candidate
//!   nodes located through the already-built coarser levels — no
//!   all-pairs pass anywhere), plus one distance per (new member,
//!   ancestor) to keep the reaches exact;
//! * the exact `min_distance`: one parallel pass after the ladder, an
//!   unordered descent per node at twice the last radius (the closest
//!   pair always lies within it), so `n` balls of packing-bounded size
//!   and `O(n log Delta)` distance evaluations — no heaps, no sort;
//! * memory: `O(n log Delta)` **words of 4 bytes** — members, child links
//!   and the internal members' `f32` reaches are struct-of-arrays CSR
//!   arenas, accounted exactly by
//!   [`HeapBytes`](crate::HeapBytes)::`heap_bytes`;
//! * queries: `O(|B_u(r)| + log Delta)`-ish, by descent pruned by each
//!   member's reach. Descent reuses thread-local scratch frontiers (no
//!   per-query allocation), and the doubling searches behind
//!   [`nearest_where`](crate::BallOracle::nearest_where) and
//!   [`radius_for_count`](crate::BallOracle::radius_for_count) keep
//!   per-level heaps across rounds so each `(level, member)` distance is
//!   evaluated **at most once per query**.
//!
//! The answers are **exact** and match the dense
//! [`MetricIndex`](crate::MetricIndex) bit for bit (property-tested on
//! every generator family): the hierarchy only steers the search, every
//! reported distance is a fresh `metric.dist` evaluation, and ties are
//! broken by node id exactly like the dense index. The one deliberate
//! approximation is [`diameter_ub`](crate::BallOracle::diameter_ub),
//! reported as the upper bound `2 * ecc(v0)` (computing the exact
//! diameter needs `Omega(n^2)` in general); every consumer only needs a
//! covering radius.
//!
//! # Canonical levels
//!
//! Every level stores its members **sorted by node id**, and membership
//! of level `k` is exactly the insertion-order-free rule: a node is a
//! member iff it is a member of level `k-1` (a *seed* — nets are nested),
//! or no seed lies strictly within the radius and no smaller-id non-seed
//! member lies strictly within the radius. The marking construction
//! implements this rule directly, so a level depends only on the node set
//! and the radius, never on the order the nodes were visited in.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::mem::vec_capacity_bytes;
use crate::{BallOracle, CompactId, HeapBytes, Metric, Node};

/// One net of the hierarchy. All arrays are compact (4-byte entries) and
/// `members` is always sorted by node id (see the module docs).
#[derive(Clone, Debug)]
struct TreeLevel {
    /// Net radius at this level (halves per level).
    radius: f64,
    /// Net members, sorted by node id.
    members: Vec<CompactId>,
    /// Each member's reach: its largest distance to a descendant on the
    /// last level, rounded up to `f32`; empty on the last level. At most
    /// `2 r_k` before rounding, since every child lies within `r_k` of
    /// its parent and the radii halve.
    reach: Vec<f32>,
    /// CSR offsets into `children`; empty for the last (all-nodes) level.
    child_start: Vec<u32>,
    /// Positions into the **next** level's `members`: the members
    /// assigned to each member of this level (each within this level's
    /// radius), ascending within each parent's range.
    children: Vec<u32>,
}

/// Relative margin for the rounding error of computed distances in the
/// reach test: a distance is exact to a few ulps of itself, so the
/// margin must scale with `d`, not with the (possibly far smaller) reach.
const ROUNDING: f64 = 1e-9;

/// A lower bound on the distance from the query to any last-level
/// descendant of a member at computed distance `d` with reach `reach`
/// (the triangle inequality, shrunk by [`ROUNDING`]). A member whose
/// bound exceeds `r` has no descendant in `B_q(r)`.
fn lower_bound(d: f64, reach: f32) -> f64 {
    d * (1.0 - ROUNDING) - f64::from(reach)
}

/// `x` rounded up to the nearest `f32`, so a stored reach never
/// understates the exact one.
fn round_up(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) < x {
        f.next_up()
    } else {
        f
    }
}

/// Min-heap entry of the expanding query frontier: a member of some level,
/// identified by its position in that level's member array and keyed by
/// its distance from the query on the last level, by its
/// [`lower_bound`] on the levels above.
#[derive(Copy, Clone, PartialEq)]
struct Cand {
    key: f64,
    pos: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap pops the smallest (distance, position)
        // first. Position order equals id order (members are id-sorted),
        // so ties break exactly like the dense index.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

thread_local! {
    /// Reusable descent frontiers: ball queries at every level of the
    /// pipeline are hot (see the `oracle.ball.sparse` histograms), so the
    /// candidate vectors are kept per thread instead of allocated per
    /// query. Taken out (not borrowed across) the descent so re-entrant
    /// queries from inside a visitor stay sound.
    static SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The sparse ball-query backend (see the module-level docs above for
/// the hierarchy and its cost model).
///
/// Owns a copy of the metric (distances are evaluated on demand instead of
/// stored), so the usual entry point is
/// [`Space::new_sparse`](crate::Space::new_sparse), which clones the
/// metric into the index.
///
/// # Example
///
/// ```
/// use ron_metric::{BallOracle, LineMetric, NetTreeIndex, Node};
///
/// let tree = NetTreeIndex::build(LineMetric::uniform(64)?);
/// let u = Node::new(0);
/// assert_eq!(tree.ball_size(u, 2.0), 3); // {0, 1, 2}
/// assert_eq!(tree.radius_for_count(u, 4), 3.0);
/// assert_eq!(tree.min_distance(), 1.0);
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NetTreeIndex<M> {
    metric: M,
    diameter_ub: f64,
    min_dist: f64,
    levels: Vec<TreeLevel>,
}

impl<M: Metric> NetTreeIndex<M> {
    /// Builds the hierarchy for `metric` without ever materializing a
    /// distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if the metric is empty.
    #[must_use]
    pub fn build(metric: M) -> Self {
        let n = metric.len();
        assert!(n > 0, "cannot index an empty metric");
        let ecc0 = eccentricity_of_v0(&metric);

        // Top level: greedy net at radius ecc(v0) over all nodes, brute
        // force in id order — its cardinality is bounded by the doubling
        // constant, and id-order acceptance makes it id-sorted for free.
        let top_radius = ecc0;
        let mut members: Vec<CompactId> = Vec::new();
        for j in 0..n {
            let u = Node::new(j);
            if members
                .iter()
                .all(|&m| metric.dist(m.node(), u) >= top_radius)
            {
                members.push(CompactId::from(u));
            }
        }
        // First member (in canonical id order) within the radius, per node.
        let mut assign: Vec<u32> = (0..n)
            .map(|j| {
                let u = Node::new(j);
                members
                    .iter()
                    .position(|&m| metric.dist(m.node(), u) <= top_radius)
                    .expect("greedy net covers the space") as u32
            })
            .collect();
        let mut levels = vec![TreeLevel {
            radius: top_radius,
            members,
            reach: Vec::new(),
            child_start: Vec::new(),
            children: Vec::new(),
        }];

        // Halve the radius until every node is a member.
        while levels.last().expect("nonempty").members.len() < n {
            assert!(
                levels.len() < 4096,
                "net-tree ladder failed to terminate (radius underflow?)"
            );
            let (members_acc, assign_acc) = build_level(&metric, n, &levels, &assign);
            // Canonicalize: re-sort the accepted members by id and remap
            // the coverage assignment through the permutation.
            let mut perm: Vec<u32> = (0..members_acc.len() as u32).collect();
            perm.sort_unstable_by_key(|&p| members_acc[p as usize]);
            let mut inv = vec![0u32; perm.len()];
            for (newpos, &oldpos) in perm.iter().enumerate() {
                inv[oldpos as usize] = newpos as u32;
            }
            let next_members: Vec<CompactId> = perm
                .iter()
                .map(|&p| CompactId::from(members_acc[p as usize]))
                .collect();
            let next_assign: Vec<u32> = assign_acc.iter().map(|&a| inv[a as usize]).collect();

            // Parent of each new member: the position of the
            // previous-level member that covers it (within the previous
            // radius).
            let parent_pos: Vec<u32> = next_members.iter().map(|&m| assign[m.index()]).collect();
            let prev = levels.last_mut().expect("nonempty");
            debug_assert!(next_members.iter().zip(&parent_pos).all(|(&m, &p)| {
                let p = prev.members[p as usize];
                metric.dist(p.node(), m.node()) <= prev.radius * (1.0 + 1e-12)
            }));
            (prev.child_start, prev.children) = counting_csr(&parent_pos, prev.members.len());
            let radius = prev.radius / 2.0;
            extend_reach(&metric, &mut levels, &next_members, &parent_pos);
            assign = next_assign;
            levels.push(TreeLevel {
                radius,
                members: next_members,
                reach: Vec::new(),
                child_start: Vec::new(),
                children: Vec::new(),
            });
        }

        let mut tree = NetTreeIndex {
            metric,
            diameter_ub: 2.0 * ecc0,
            min_dist: 1.0,
            levels,
        };
        if n >= 2 {
            tree.min_dist = tree.closest_pair_distance();
        }
        tree
    }

    /// The exact smallest distance between two distinct nodes, by one
    /// unordered descent per node at `2 r_last`. The ladder stops at the
    /// first level holding every node, so the level above left some node
    /// out: a member lay strictly within `r_{last-1} = 2 r_last` of it,
    /// and the closest pair is inside that ball around either end. With a
    /// single level, `2 r_last` is `diameter_ub` and covers everything.
    fn closest_pair_distance(&self) -> f64 {
        let r = 2.0 * self.levels[self.levels.len() - 1].radius;
        // The last level holds every node in id order: position is id.
        let nearest = crate::par::map(self.metric.len(), |i| {
            let mut best = f64::INFINITY;
            let mut others = |pos: u32, d: f64| {
                if pos as usize != i {
                    best = best.min(d);
                }
            };
            descend(&self.metric, &self.levels, Node::new(i), r, &mut others);
            best
        });
        nearest.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// The metric the index answers queries about.
    #[must_use]
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Number of net levels in the hierarchy (`O(log Delta)`).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total stored member slots across all levels — the index's memory
    /// footprint in (4-byte) words, `O(n log Delta)` (versus the dense
    /// backend's `n^2`). See [`HeapBytes::heap_bytes`] for the exact
    /// byte accounting.
    #[cfg(test)]
    fn stored_entries(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.members.len() + l.children.len())
            .sum()
    }

    /// The closed ball `B_q(r)` sorted by `(distance, id)` — the exact
    /// dense-index order.
    fn sorted_ball(&self, q: Node, r: f64) -> Vec<(f64, Node)> {
        let leaves = &self.levels[self.levels.len() - 1].members;
        let mut out = Vec::new();
        descend(&self.metric, &self.levels, q, r, &mut |pos, d| {
            out.push((d, leaves[pos as usize].node()));
        });
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// The heap key of the member at `pos` on level `k`, at distance `d`
    /// from the query: `d` itself on the last level, the
    /// [`lower_bound`] of its descendants' distances above it.
    fn key(&self, k: usize, pos: u32, d: f64) -> f64 {
        if k + 1 == self.levels.len() {
            d
        } else {
            lower_bound(d, self.levels[k].reach[pos as usize])
        }
    }

    /// Fresh per-level frontier heaps for an expanding query from `q`,
    /// seeded with the top level.
    fn new_frontier(&self, q: Node) -> Vec<BinaryHeap<Cand>> {
        let mut heaps: Vec<BinaryHeap<Cand>> =
            (0..self.levels.len()).map(|_| BinaryHeap::new()).collect();
        for (pos, &m) in self.levels[0].members.iter().enumerate() {
            let pos = pos as u32;
            let key = self.key(0, pos, self.metric.dist(q, m.node()));
            heaps[0].push(Cand { key, pos });
        }
        heaps
    }

    /// Expands the frontier to radius `r`: internal-level entries whose
    /// lower bound is within `r` are popped and their children's
    /// distances evaluated (once, ever — the other entries stay queued
    /// for a later, larger `r`), then leaf entries with `d <= r` are
    /// popped in ascending `(distance, id)` order and offered to `emit`.
    /// Returns the first leaf for which `emit` returns `true`.
    fn expand_frontier(
        &self,
        q: Node,
        heaps: &mut [BinaryHeap<Cand>],
        r: f64,
        emit: &mut impl FnMut(f64, Node) -> bool,
    ) -> Option<(f64, Node)> {
        let last = self.levels.len() - 1;
        for k in 0..last {
            // A member whose lower bound exceeds `r` has no descendant in
            // the ball, and neither has any member queued behind it.
            while let Some(&Cand { key, pos }) = heaps[k].peek() {
                if key > r {
                    break;
                }
                heaps[k].pop();
                let level = &self.levels[k];
                let next = &self.levels[k + 1];
                let lo = level.child_start[pos as usize] as usize;
                let hi = level.child_start[pos as usize + 1] as usize;
                for &cpos in &level.children[lo..hi] {
                    let d = self.metric.dist(q, next.members[cpos as usize].node());
                    let key = self.key(k + 1, cpos, d);
                    heaps[k + 1].push(Cand { key, pos: cpos });
                }
            }
        }
        while let Some(&Cand { key: d, pos }) = heaps[last].peek() {
            if d > r {
                break;
            }
            heaps[last].pop();
            let v = self.levels[last].members[pos as usize].node();
            if emit(d, v) {
                return Some((d, v));
            }
        }
        None
    }
}

/// Eccentricity of node 0 over the whole metric, by one linear pass.
fn eccentricity_of_v0<M: Metric>(metric: &M) -> f64 {
    let v0 = Node::new(0);
    let mut ecc0 = 0.0f64;
    for j in 1..metric.len() {
        ecc0 = ecc0.max(metric.dist(v0, Node::new(j)));
    }
    ecc0
}

/// Builds the next (half-radius) net level by greedy marking: members of
/// the previous level seed the net (nesting), then nodes join in id order
/// unless an accepted member has already marked them as strictly within
/// the new radius. Candidate nodes near a new member are located through
/// the previous level's coverage buckets, found by descending the
/// completed levels. The seed phase — the bulk of the distance
/// evaluations — runs in parallel; the merge is sequential in seed order,
/// so the result is bit-identical to a sequential pass.
///
/// Returns the accepted members (seeds first, then id-order joiners) and
/// each node's first-covering member position, both in acceptance order;
/// the caller canonicalizes to id order.
fn build_level<M: Metric>(
    metric: &M,
    n: usize,
    levels: &[TreeLevel],
    assign: &[u32],
) -> (Vec<Node>, Vec<u32>) {
    let prev = levels.last().expect("at least the top level exists");
    let radius = prev.radius / 2.0;
    // Coverage buckets of the previous level: the nodes each previous
    // member is responsible for (every node, exactly once), ascending by
    // id within each bucket.
    let (bucket_start, bucket_nodes) = counting_csr(assign, prev.members.len());
    let bucket = |p: u32| {
        let lo = bucket_start[p as usize] as usize;
        let hi = bucket_start[p as usize + 1] as usize;
        bucket_nodes[lo..hi].iter().map(|&v| Node::new(v as usize))
    };

    let mut members: Vec<Node> = Vec::new();
    let mut is_member = vec![false; n];
    let mut covered = vec![false; n];
    let mut next_assign: Vec<u32> = vec![u32::MAX; n];
    // A node within `radius` of a new member lies in the bucket of a
    // previous member within `radius + prev.radius` of it.
    let span = radius + prev.radius;

    // Seed phase, parallel: each previous member's hits (candidate nodes
    // within the new radius) are gathered independently...
    let seed_hits: Vec<Vec<(u32, f64)>> = crate::par::map(prev.members.len(), |i| {
        let m = prev.members[i].node();
        let mut hits = Vec::new();
        descend(metric, levels, m, span, &mut |p, _| {
            for v in bucket(p) {
                let d = metric.dist(m, v);
                if d <= radius {
                    hits.push((v.index() as u32, d));
                }
            }
        });
        hits
    });
    // ...and merged sequentially in seed order, reproducing the
    // sequential marking exactly.
    for (i, hits) in seed_hits.iter().enumerate() {
        let s = prev.members[i].node();
        is_member[s.index()] = true;
        members.push(s);
        for &(v, d) in hits {
            if d < radius {
                covered[v as usize] = true;
            }
            if next_assign[v as usize] == u32::MAX {
                next_assign[v as usize] = i as u32;
            }
        }
    }

    // Joiner phase, sequential by construction (each acceptance depends
    // on the marks of all earlier ones).
    for j in 0..n {
        let u = Node::new(j);
        if !is_member[j] && !covered[j] {
            let pos = members.len() as u32;
            is_member[j] = true;
            members.push(u);
            descend(metric, levels, u, span, &mut |p, _| {
                for v in bucket(p) {
                    let d = metric.dist(u, v);
                    if d <= radius {
                        if d < radius {
                            covered[v.index()] = true;
                        }
                        if next_assign[v.index()] == u32::MAX {
                            next_assign[v.index()] = pos;
                        }
                    }
                }
            });
        }
    }
    debug_assert!(
        next_assign.iter().all(|&p| p != u32::MAX),
        "greedy marking must cover every node"
    );
    (members, next_assign)
}

/// Joiners per parallel task in [`extend_reach`].
const REACH_CHUNK: usize = 16384;

/// Re-targets every reach of the completed prefix `levels` at `next`, the
/// level about to be appended below it (`parent_pos`: each next member's
/// parent position on the prefix's last level). That level gets a fresh
/// reach; an ancestor's reach grows to its distance to each new
/// descendant. Only joiners are new: a seed is its own parent, already
/// covered by the reaches it replaces. One distance per (joiner, level),
/// in parallel per level in chunks of [`REACH_CHUNK`] joiners; the
/// transients are `O(|next|)` 4-byte arrays.
fn extend_reach<M: Metric>(
    metric: &M,
    levels: &mut [TreeLevel],
    next: &[CompactId],
    parent_pos: &[u32],
) {
    let last = levels.len() - 1;
    // The joiners, and each one's ancestor position on level `k` as `k`
    // walks up from the prefix's last level.
    let (mut anc, joiners): (Vec<u32>, Vec<CompactId>) = parent_pos
        .iter()
        .zip(next)
        .filter(|&(&p, &m)| levels[last].members[p as usize] != m)
        .map(|(&p, &m)| (p, m))
        .unzip();
    levels[last].reach = vec![0.0; levels[last].members.len()];
    for k in (0..=last).rev() {
        if k < last {
            let up = parents_from_csr(&levels[k]);
            for a in &mut anc {
                *a = up[*a as usize];
            }
        }
        // In chunks: below a chunk's worth of joiners, spawning workers
        // costs more than the distances.
        let level = &levels[k];
        let dist = crate::par::map(joiners.len().div_ceil(REACH_CHUNK), |c| {
            let lo = c * REACH_CHUNK;
            let hi = (lo + REACH_CHUNK).min(joiners.len());
            (lo..hi)
                .map(|i| {
                    let a = level.members[anc[i] as usize].node();
                    round_up(metric.dist(a, joiners[i].node()))
                })
                .collect::<Vec<f32>>()
        });
        let reach = &mut levels[k].reach;
        for (&a, &d) in anc.iter().zip(dist.iter().flatten()) {
            reach[a as usize] = reach[a as usize].max(d);
        }
    }
}

/// The parent position on `level` of each next-level member, read off
/// `level`'s child CSR.
fn parents_from_csr(level: &TreeLevel) -> Vec<u32> {
    let mut up = vec![0u32; level.children.len()];
    for (pos, range) in level.child_start.windows(2).enumerate() {
        for &c in &level.children[range[0] as usize..range[1] as usize] {
            up[c as usize] = pos as u32;
        }
    }
    up
}

/// Descends `levels` from the top and emits `(position, distance)` for
/// every member of the last level within `r` of `q`, in unsorted order.
/// Every descendant of an internal member lies within its reach, so a
/// member whose [`lower_bound`] exceeds `r` is pruned; the lower bound
/// gives up a relative [`ROUNDING`] of `d` so that rounding in computed
/// distances never drops a member with a descendant in the ball. Queries
/// descend the whole tree; a level under construction descends the
/// completed prefix, whose reaches point at its own last level. The
/// frontiers are the thread-local `SCRATCH`, so nothing is allocated.
fn descend<M: Metric>(
    metric: &M,
    levels: &[TreeLevel],
    q: Node,
    r: f64,
    emit: &mut impl FnMut(u32, f64),
) {
    let (mut cands, mut next_cands) = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    cands.clear();
    let last = levels.len() - 1;
    let top = &levels[0];
    for (pos, &m) in top.members.iter().enumerate() {
        let d = metric.dist(q, m.node());
        if last == 0 {
            if d <= r {
                emit(pos as u32, d);
            }
        } else if lower_bound(d, top.reach[pos]) <= r {
            cands.push(pos as u32);
        }
    }
    for k in 0..last {
        let level = &levels[k];
        let next = &levels[k + 1];
        let at_leaf = k + 1 == last;
        next_cands.clear();
        for &pos in &cands {
            let lo = level.child_start[pos as usize] as usize;
            let hi = level.child_start[pos as usize + 1] as usize;
            for &cpos in &level.children[lo..hi] {
                let d = metric.dist(q, next.members[cpos as usize].node());
                if at_leaf {
                    if d <= r {
                        emit(cpos, d);
                    }
                } else if lower_bound(d, next.reach[cpos as usize]) <= r {
                    next_cands.push(cpos);
                }
            }
        }
        std::mem::swap(&mut cands, &mut next_cands);
    }
    SCRATCH.with(|s| *s.borrow_mut() = (cands, next_cands));
}

/// Groups the indices `0..keys.len()` by key, for keys in `0..buckets`:
/// returns CSR offsets and the grouped indices. Counting sort keeps each
/// group ascending by index.
fn counting_csr(keys: &[u32], buckets: usize) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; buckets + 1];
    for &p in keys {
        start[p as usize + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut cursor = start.clone();
    let mut items = vec![0u32; keys.len()];
    for (i, &p) in keys.iter().enumerate() {
        items[cursor[p as usize] as usize] = i as u32;
        cursor[p as usize] += 1;
    }
    (start, items)
}

impl<M: Metric> HeapBytes for NetTreeIndex<M> {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.levels)
            + self
                .levels
                .iter()
                .map(|l| {
                    vec_capacity_bytes(&l.members)
                        + vec_capacity_bytes(&l.reach)
                        + vec_capacity_bytes(&l.child_start)
                        + vec_capacity_bytes(&l.children)
                })
                .sum::<usize>()
    }
}

impl<M: Metric> BallOracle for NetTreeIndex<M> {
    fn len(&self) -> usize {
        self.metric.len()
    }

    fn diameter_ub(&self) -> f64 {
        self.diameter_ub
    }

    fn min_distance(&self) -> f64 {
        self.min_dist
    }

    fn for_each_in_ball(&self, u: Node, r: f64, visit: &mut dyn FnMut(f64, Node)) {
        let t = ron_obs::start();
        for (d, v) in self.sorted_ball(u, r) {
            visit(d, v);
        }
        ron_obs::finish("oracle.ball.sparse", t);
    }

    fn for_each_in_ball_unordered(&self, u: Node, r: f64, visit: &mut dyn FnMut(f64, Node)) {
        let t = ron_obs::start();
        let leaves = &self.levels[self.levels.len() - 1].members;
        descend(&self.metric, &self.levels, u, r, &mut |pos, d| {
            visit(d, leaves[pos as usize].node());
        });
        ron_obs::finish("oracle.ball.sparse", t);
    }

    fn ball(&self, u: Node, r: f64) -> Vec<(f64, Node)> {
        let t = ron_obs::start();
        let out = self.sorted_ball(u, r);
        ron_obs::finish("oracle.ball.sparse", t);
        out
    }

    fn ball_size(&self, u: Node, r: f64) -> usize {
        let t = ron_obs::start();
        let mut count = 0usize;
        descend(&self.metric, &self.levels, u, r, &mut |_, _| count += 1);
        ron_obs::finish("oracle.ball_size.sparse", t);
        count
    }

    fn nearest_where(&self, u: Node, pred: &mut dyn FnMut(Node) -> bool) -> Option<(f64, Node)> {
        let t = ron_obs::start();
        let mut heaps = self.new_frontier(u);
        let mut r = self.levels.last().expect("nonempty").radius;
        let mut offered = 0usize;
        let out = loop {
            let hit = self.expand_frontier(u, &mut heaps, r, &mut |_, v| {
                offered += 1;
                pred(v)
            });
            if hit.is_some() {
                break hit;
            }
            if offered == self.metric.len() {
                break None;
            }
            r *= 2.0;
        };
        ron_obs::finish("oracle.nearest.sparse", t);
        out
    }

    fn radius_for_count(&self, u: Node, k: usize) -> f64 {
        assert!(
            k >= 1 && k <= self.metric.len(),
            "count {k} out of range 1..={}",
            self.metric.len()
        );
        let t = ron_obs::start();
        let mut heaps = self.new_frontier(u);
        let mut r = self.levels.last().expect("nonempty").radius;
        let mut kth = 0.0f64;
        let mut emitted = 0usize;
        loop {
            // Leaf pops arrive in globally ascending (distance, id)
            // order across rounds, so the k-th pop is the k-th smallest
            // distance — exactly the dense answer.
            let done = self.expand_frontier(u, &mut heaps, r, &mut |d, _| {
                emitted += 1;
                kth = d;
                emitted >= k
            });
            if done.is_some() {
                break;
            }
            r *= 2.0;
        }
        ron_obs::finish("oracle.radius.sparse", t);
        kth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, LineMetric, MetricIndex};

    fn both(n: usize) -> (MetricIndex, NetTreeIndex<LineMetric>) {
        let line = LineMetric::uniform(n).unwrap();
        (MetricIndex::build(&line), NetTreeIndex::build(line))
    }

    #[test]
    fn ball_matches_dense_on_the_line() {
        let (dense, tree) = both(32);
        for i in 0..32 {
            let u = Node::new(i);
            for r in [0.0, 1.0, 2.5, 7.0, 100.0] {
                assert_eq!(
                    BallOracle::ball(&tree, u, r),
                    BallOracle::ball(&dense, u, r),
                    "ball({u}, {r})"
                );
                assert_eq!(tree.ball_size(u, r), dense.ball_size(u, r));
            }
        }
    }

    #[test]
    fn radius_for_count_matches_dense() {
        let (dense, tree) = both(17);
        for i in 0..17 {
            let u = Node::new(i);
            for k in 1..=17 {
                assert_eq!(
                    tree.radius_for_count(u, k),
                    MetricIndex::radius_for_count(&dense, u, k)
                );
            }
        }
    }

    #[test]
    fn nearest_where_matches_dense() {
        let (dense, tree) = both(24);
        for i in 0..24 {
            let u = Node::new(i);
            let t = BallOracle::nearest_where(&tree, u, &mut |v| v.index() % 5 == 3);
            let d = MetricIndex::nearest_where(&dense, u, |v| v.index() % 5 == 3);
            assert_eq!(t, d);
            assert_eq!(BallOracle::nearest_where(&tree, u, &mut |_| false), None);
        }
    }

    #[test]
    fn nearest_where_offers_each_node_once_in_dense_order() {
        let cube = gen::uniform_cube(48, 2, 11);
        let dense = MetricIndex::build(&cube);
        let tree = NetTreeIndex::build(cube);
        for i in 0..48 {
            let u = Node::new(i);
            let mut dense_order = Vec::new();
            let _ = MetricIndex::nearest_where(&dense, u, |v| {
                dense_order.push(v);
                false
            });
            let mut tree_order = Vec::new();
            let _ = BallOracle::nearest_where(&tree, u, &mut |v| {
                tree_order.push(v);
                false
            });
            assert_eq!(tree_order, dense_order, "predicate call order from {u}");
        }
    }

    #[test]
    fn extremes_match_dense_conventions() {
        let (dense, tree) = both(40);
        assert_eq!(tree.min_distance(), dense.min_distance());
        assert!(BallOracle::diameter_ub(&tree) >= MetricIndex::diameter(&dense));
        assert!(BallOracle::diameter_ub(&tree) <= 2.0 * MetricIndex::diameter(&dense));
        assert!(!BallOracle::is_empty(&tree));
        assert_eq!(BallOracle::len(&tree), 40);
    }

    #[test]
    fn singleton_space() {
        let tree = NetTreeIndex::build(LineMetric::new(vec![5.0]).unwrap());
        assert_eq!(BallOracle::len(&tree), 1);
        assert_eq!(tree.min_distance(), 1.0);
        assert_eq!(tree.aspect_ratio(), 1.0);
        assert_eq!(tree.ball_size(Node::new(0), 0.0), 1);
        assert_eq!(tree.radius_for_count(Node::new(0), 1), 0.0);
    }

    #[test]
    fn exponential_line_deep_ladder() {
        let line = LineMetric::exponential(20).unwrap();
        let dense = MetricIndex::build(&line);
        let tree = NetTreeIndex::build(line);
        assert!(tree.depth() >= 18, "depth {} too shallow", tree.depth());
        for i in 0..20 {
            let u = Node::new(i);
            for k in 1..=20 {
                assert_eq!(
                    tree.radius_for_count(u, k),
                    MetricIndex::radius_for_count(&dense, u, k)
                );
            }
        }
        assert_eq!(tree.min_distance(), dense.min_distance());
    }

    #[test]
    fn memory_is_subquadratic_on_a_cube() {
        let cube = gen::uniform_cube(512, 2, 7);
        let tree = NetTreeIndex::build(cube);
        // The dense index stores n^2 = 262144 entries; the tree must stay
        // an order of magnitude below that.
        assert!(
            tree.stored_entries() < 512 * 512 / 10,
            "stored {} entries",
            tree.stored_entries()
        );
        // And heap_bytes agrees with the 4-byte-per-slot layout, within
        // Vec over-allocation and the reach arrays.
        assert!(tree.heap_bytes() < 512 * 512);
    }

    #[test]
    fn levels_are_canonical() {
        let cube = gen::uniform_cube(256, 3, 13);
        let tree = NetTreeIndex::build(cube);
        for (k, level) in tree.levels.iter().enumerate() {
            assert!(
                level.members.windows(2).all(|w| w[0] < w[1]),
                "level {k} members not id-sorted"
            );
            if k + 1 < tree.levels.len() {
                let next = &tree.levels[k + 1];
                assert_eq!(level.child_start.len(), level.members.len() + 1);
                assert_eq!(level.children.len(), next.members.len());
                assert_eq!(level.reach.len(), level.members.len());
                // Each child range is ascending; each next-level member
                // appears exactly once.
                let mut seen = vec![false; next.members.len()];
                for (pos, _) in level.members.iter().enumerate() {
                    let lo = level.child_start[pos] as usize;
                    let hi = level.child_start[pos + 1] as usize;
                    assert!(level.children[lo..hi].windows(2).all(|w| w[0] < w[1]));
                    for &c in &level.children[lo..hi] {
                        assert!(!seen[c as usize]);
                        seen[c as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s));
                // The covering invariant, through parents read off the CSR.
                for (&p, &m) in parents_from_csr(level).iter().zip(&next.members) {
                    let p = level.members[p as usize];
                    assert!(
                        tree.metric.dist(p.node(), m.node()) <= level.radius * (1.0 + 1e-12),
                        "covering invariant violated below level {k}"
                    );
                }
            } else {
                assert!(level.reach.is_empty() && level.children.is_empty());
            }
        }
    }

    /// The exact largest distance from each member of level `k` to its
    /// last-level descendants, by walking the child CSR.
    fn exact_reach<M: Metric>(tree: &NetTreeIndex<M>, k: usize) -> Vec<f64> {
        let levels = &tree.levels;
        let last = levels.len() - 1;
        (0..levels[k].members.len())
            .map(|pos| {
                let a = levels[k].members[pos].node();
                let mut frontier = vec![pos as u32];
                for level in &levels[k..last] {
                    frontier = frontier
                        .iter()
                        .flat_map(|&p| {
                            let lo = level.child_start[p as usize] as usize;
                            let hi = level.child_start[p as usize + 1] as usize;
                            level.children[lo..hi].iter().copied()
                        })
                        .collect();
                }
                frontier
                    .iter()
                    .map(|&p| tree.metric.dist(a, levels[last].members[p as usize].node()))
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    #[test]
    fn reach_is_a_sound_and_tight_bound() {
        fn check<M: Metric>(metric: M) {
            let tree = NetTreeIndex::build(metric);
            for k in 0..tree.levels.len() - 1 {
                let level = &tree.levels[k];
                let cap = round_up(2.0 * level.radius);
                for (pos, exact) in exact_reach(&tree, k).into_iter().enumerate() {
                    let reach = level.reach[pos];
                    assert!(
                        f64::from(reach) >= exact,
                        "level {k} pos {pos}: {reach} < {exact}"
                    );
                    assert!(reach <= cap, "level {k} pos {pos}: {reach} > 2 r_k");
                }
            }
        }
        check(gen::uniform_cube(200, 2, 3));
        check(gen::clustered(160, 2, 6, 0.02, 5));
        check(gen::perturbed_grid(12, 2, 0.25, 7));
        // Zero jitter: an exact grid, ties at every radius.
        check(gen::perturbed_grid(12, 2, 0.0, 1));
        check(LineMetric::uniform(100).unwrap());
        // Aspect 2^63: a reach of 1 beside distances of 2^62.
        check(LineMetric::exponential(64).unwrap());
    }

    #[test]
    fn lower_bound_absorbs_rounding() {
        // Three points on a line whose computed distances break the
        // triangle inequality by an ulp: without the margin, `a` would be
        // pruned although `v`, one of its possible descendants, is in
        // `B_q(r)`.
        let (q, a, v) = (
            -485_593_045_749_512.0f64,
            45.969_590_390_402_665,
            45.966_731_218_509_28,
        );
        let (d, r) = ((q - a).abs(), (q - v).abs());
        let reach = round_up((a - v).abs());
        assert!(d - f64::from(reach) > r, "the rounding the margin is for");
        assert!(lower_bound(d, reach) <= r);
        // The stored reach is the least `f32` not below the exact one.
        for x in [0.1, 0.7, 1.0 / 3.0, 0.5, f64::from(u32::MAX)] {
            let f = round_up(x);
            assert!(f64::from(f) >= x && f64::from(f.next_down()) < x, "{x}");
        }
    }

    #[test]
    fn metric_accessor_returns_the_metric() {
        let tree = NetTreeIndex::build(LineMetric::uniform(4).unwrap());
        assert_eq!(tree.metric().len(), 4);
    }
}
