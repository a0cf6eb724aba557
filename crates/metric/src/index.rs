use crate::{HeapBytes, Metric, Node};

/// Per-node sorted-by-distance index over a finite metric.
///
/// The paper's constructions repeatedly ask for the closed ball `B_u(r)`,
/// its cardinality, and the radius `r_u(eps)` of the smallest ball around
/// `u` containing at least an `eps`-fraction of the nodes (Section 1.1).
/// `MetricIndex` precomputes, for every node, all other nodes sorted by
/// distance (`O(n^2 log n)` build, `O(n^2)` memory), after which each query
/// is a binary search or a slice.
///
/// Ties are broken by node id, which implements the paper's
/// "all distances are distinct" convention (Section 5.1) deterministically.
///
/// Each row stores its distances and its ids in two separate slices, 12
/// bytes per ordered pair. A row is built by sorting one packed `u128` key
/// per entry, the distance's [`f64::total_cmp`] rank above the node id,
/// with an unstable integer sort: the keys are unique, so the order is the
/// `(distance, id)` order whatever the sort.
///
/// # Example
///
/// ```
/// use ron_metric::{LineMetric, MetricIndex, Node};
///
/// let line = LineMetric::uniform(8)?;
/// let idx = MetricIndex::build(&line);
/// let u = Node::new(0);
/// assert_eq!(idx.ball_size(u, 2.0), 3); // {0, 1, 2}
/// assert_eq!(idx.radius_for_count(u, 4), 3.0);
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MetricIndex {
    n: usize,
    rows: Vec<Row>,
    diameter: f64,
    min_dist: f64,
}

/// One node's row: distances and ids, both in `(distance, id)` order.
#[derive(Clone, Debug)]
struct Row {
    dists: Box<[f64]>,
    nodes: Box<[Node]>,
}

impl Row {
    /// Every node of `metric`, sorted by `(distance from u, id)`.
    fn build<M: Metric + ?Sized>(metric: &M, u: Node) -> Self {
        let mut keys: Vec<u128> = Node::all(metric.len())
            .map(|v| (u128::from(total_key(metric.dist(u, v))) << 32) | v.index() as u128)
            .collect();
        keys.sort_unstable();
        Row {
            dists: keys
                .iter()
                .map(|&k| from_total_key((k >> 32) as u64))
                .collect(),
            nodes: keys.iter().map(|&k| Node::new(k as u32 as usize)).collect(),
        }
    }
}

/// Maps `d` to a `u64` whose integer order is `f64::total_cmp`'s order:
/// negative values have every bit flipped, the rest only the sign bit.
fn total_key(d: f64) -> u64 {
    let bits = d.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The inverse of [`total_key`], bit for bit.
fn from_total_key(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// A borrowed run of one [`MetricIndex`] row: nodes in ascending
/// `(distance, id)` order, distances and ids as parallel slices.
#[derive(Clone, Copy, Debug)]
pub struct SortedRow<'a> {
    dists: &'a [f64],
    nodes: &'a [Node],
}

impl<'a> SortedRow<'a> {
    /// Number of entries.
    #[must_use]
    pub fn len(self) -> usize {
        self.nodes.len()
    }

    /// Whether the run holds no entry.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.nodes.is_empty()
    }

    /// The distances, ascending.
    #[must_use]
    pub fn dists(self) -> &'a [f64] {
        self.dists
    }

    /// The nodes, in the same order as [`dists`](SortedRow::dists).
    #[must_use]
    pub fn nodes(self) -> &'a [Node] {
        self.nodes
    }

    /// The entries as `(distance, node)` pairs.
    pub fn iter(self) -> impl ExactSizeIterator<Item = (f64, Node)> + 'a {
        self.dists.iter().copied().zip(self.nodes.iter().copied())
    }

    /// The entries as an owned vector of `(distance, node)` pairs.
    #[must_use]
    pub fn to_vec(self) -> Vec<(f64, Node)> {
        self.iter().collect()
    }

    /// The entries at positions `start..end`.
    fn range(self, start: usize, end: usize) -> Self {
        SortedRow {
            dists: &self.dists[start..end],
            nodes: &self.nodes[start..end],
        }
    }

    /// The number of leading entries within distance `r`.
    fn count_within(self, r: f64) -> usize {
        self.dists.partition_point(|&d| d <= r)
    }
}

impl MetricIndex {
    /// Builds the index for `metric` in `O(n^2 log n)` work, with the rows
    /// computed in parallel on the [`par`](crate::par) executor (the
    /// output is identical for every thread count: rows are independent
    /// and merged in node order).
    ///
    /// # Panics
    ///
    /// Panics if the metric is empty.
    #[must_use]
    pub fn build<M: Metric + ?Sized>(metric: &M) -> Self {
        let n = metric.len();
        assert!(n > 0, "cannot index an empty metric");
        let rows = crate::par::map(n, |i| Row::build(metric, Node::new(i)));
        let mut diameter = 0.0f64;
        let mut min_dist = f64::INFINITY;
        for row in &rows {
            diameter = diameter.max(row.dists[n - 1]);
            if n > 1 {
                // dists[0] is u itself at distance 0; dists[1] is the closest other node.
                min_dist = min_dist.min(row.dists[1]);
            }
        }
        if n == 1 {
            min_dist = 1.0;
        }
        MetricIndex {
            n,
            rows,
            diameter,
            min_dist,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the indexed space is empty (never true: construction panics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Largest pairwise distance.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Smallest positive pairwise distance (`1.0` for a single node).
    #[must_use]
    pub fn min_distance(&self) -> f64 {
        self.min_dist
    }

    /// Aspect ratio `Delta = diameter / min_distance` (at least `1.0`).
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        if self.n < 2 {
            1.0
        } else {
            (self.diameter / self.min_dist).max(1.0)
        }
    }

    /// All nodes sorted by distance from `u`; the first entry is `(0.0, u)`.
    #[must_use]
    pub fn sorted_from(&self, u: Node) -> SortedRow<'_> {
        let row = &self.rows[u.index()];
        SortedRow {
            dists: &row.dists,
            nodes: &row.nodes,
        }
    }

    /// The closed ball `B_u(r)`: all nodes within distance `r` of `u`,
    /// sorted by distance. Includes `u` itself for `r >= 0`.
    #[must_use]
    pub fn ball(&self, u: Node, r: f64) -> SortedRow<'_> {
        let row = self.sorted_from(u);
        row.range(0, row.count_within(r))
    }

    /// Cardinality of the closed ball `B_u(r)`.
    #[must_use]
    pub fn ball_size(&self, u: Node, r: f64) -> usize {
        self.ball(u, r).len()
    }

    /// Nodes in the annulus `(inner, outer]` around `u`, sorted by distance.
    ///
    /// The half-open convention matches Section 5.1's annuli
    /// `B_u(rho_j) \ B_u(rho_{j-1})`.
    #[must_use]
    pub fn annulus(&self, u: Node, inner: f64, outer: f64) -> SortedRow<'_> {
        let row = self.sorted_from(u);
        row.range(row.count_within(inner), row.count_within(outer))
    }

    /// Radius of the smallest closed ball around `u` containing at least
    /// `k` nodes (including `u`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > n`.
    #[must_use]
    pub fn radius_for_count(&self, u: Node, k: usize) -> f64 {
        assert!(
            k >= 1 && k <= self.n,
            "count {k} out of range 1..={}",
            self.n
        );
        self.sorted_from(u).dists[k - 1]
    }

    /// `r_u(eps)` under the counting measure: radius of the smallest closed
    /// ball around `u` containing at least `ceil(eps * n)` nodes.
    ///
    /// This is the quantity the paper writes `r_u(eps)`; with
    /// `eps = 2^-i` it yields the radii `r_ui` of Theorem 3.2.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1]`.
    #[must_use]
    pub fn r_fraction(&self, u: Node, eps: f64) -> f64 {
        assert!(eps > 0.0 && eps <= 1.0, "eps {eps} out of range (0, 1]");
        let k = ((eps * self.n as f64).ceil() as usize).clamp(1, self.n);
        self.radius_for_count(u, k)
    }

    /// The radii `r_ui = r_u(2^-i)` for `i in [levels]`, per Theorem 3.2.
    ///
    /// `r_u0` is the radius containing all `n` nodes; radii are
    /// non-increasing in `i`.
    #[must_use]
    pub fn cardinality_radii(&self, u: Node, levels: usize) -> Vec<f64> {
        (0..levels)
            .map(|i| self.r_fraction(u, (0.5f64).powi(i as i32)))
            .collect()
    }

    /// Nearest node to `u` (inclusive of `u`) satisfying `pred`, together
    /// with its distance. Linear scan in distance order.
    #[must_use]
    pub fn nearest_where(
        &self,
        u: Node,
        mut pred: impl FnMut(Node) -> bool,
    ) -> Option<(f64, Node)> {
        let row = self.sorted_from(u);
        let k = row.nodes.iter().position(|&v| pred(v))?;
        Some((row.dists[k], row.nodes[k]))
    }
}

impl HeapBytes for MetricIndex {
    fn heap_bytes(&self) -> usize {
        crate::mem::vec_capacity_bytes(&self.rows)
            + self
                .rows
                .iter()
                .map(|row| std::mem::size_of_val(&*row.dists) + std::mem::size_of_val(&*row.nodes))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineMetric;

    fn idx() -> MetricIndex {
        MetricIndex::build(&LineMetric::uniform(10).unwrap())
    }

    #[test]
    fn sorted_from_starts_at_self() {
        let idx = idx();
        for i in 0..10 {
            let u = Node::new(i);
            let row = idx.sorted_from(u);
            assert_eq!((row.dists()[0], row.nodes()[0]), (0.0, u));
        }
    }

    #[test]
    fn ball_is_closed() {
        let idx = idx();
        let u = Node::new(0);
        assert_eq!(idx.ball_size(u, 3.0), 4);
        assert_eq!(idx.ball_size(u, 2.5), 3);
    }

    #[test]
    fn annulus_half_open() {
        let idx = idx();
        let u = Node::new(0);
        let ring: Vec<usize> = idx
            .annulus(u, 2.0, 5.0)
            .nodes()
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(ring, vec![3, 4, 5]);
    }

    #[test]
    fn radius_for_count_monotone() {
        let idx = idx();
        let u = Node::new(5);
        let mut prev = 0.0;
        for k in 1..=10 {
            let r = idx.radius_for_count(u, k);
            assert!(r >= prev);
            prev = r;
        }
        assert_eq!(idx.radius_for_count(u, 1), 0.0);
    }

    #[test]
    fn r_fraction_matches_counts() {
        let idx = idx();
        let u = Node::new(0);
        // eps = 1.0 needs all 10 nodes -> radius 9.
        assert_eq!(idx.r_fraction(u, 1.0), 9.0);
        // eps = 0.5 needs 5 nodes -> radius 4.
        assert_eq!(idx.r_fraction(u, 0.5), 4.0);
    }

    #[test]
    fn cardinality_radii_non_increasing() {
        let idx = idx();
        let radii = idx.cardinality_radii(Node::new(3), 4);
        for w in radii.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn aspect_ratio_and_extremes() {
        let idx = idx();
        assert_eq!(idx.diameter(), 9.0);
        assert_eq!(idx.min_distance(), 1.0);
        assert_eq!(idx.aspect_ratio(), 9.0);
    }

    #[test]
    fn nearest_where_finds_first_match() {
        let idx = idx();
        let u = Node::new(0);
        let hit = idx.nearest_where(u, |v| v.index() >= 4).unwrap();
        assert_eq!(hit, (4.0, Node::new(4)));
        assert!(idx.nearest_where(u, |_| false).is_none());
    }

    #[test]
    fn tie_break_by_node_id() {
        // Node 1 is equidistant from 0 and 2.
        let idx = MetricIndex::build(&LineMetric::uniform(3).unwrap());
        let row = idx.sorted_from(Node::new(1));
        assert_eq!(row.nodes(), [Node::new(1), Node::new(0), Node::new(2)]);
    }

    #[test]
    fn singleton_space() {
        let idx = MetricIndex::build(&LineMetric::new(vec![5.0]).unwrap());
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.aspect_ratio(), 1.0);
        assert_eq!(idx.ball_size(Node::new(0), 0.0), 1);
    }

    #[test]
    fn heap_bytes_counts_every_row() {
        let idx = MetricIndex::build(&LineMetric::uniform(16).unwrap());
        assert_eq!(idx.len(), 16);
        assert!(idx.heap_bytes() >= 16 * 16 * 12);
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            assert_eq!(from_total_key(total_key(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
