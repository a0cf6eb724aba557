use crate::{HeapBytes, Metric, MetricIndex, NetTreeIndex, Node};

/// A metric bundled with a ball-query backend.
///
/// Nearly every construction in the paper needs both raw distances and
/// ball/radius queries, so the higher-level crates take `&Space<M, I>` as
/// input, generic over the [`BallOracle`](crate::BallOracle) backend `I`:
///
/// * `Space<M>` (the default, [`Space::new`]) carries the dense
///   [`MetricIndex`] — exact `O(log n)` queries, `O(n^2)` memory;
/// * [`Space::new_sparse`] carries a [`NetTreeIndex`] — the same answers
///   from `O(n log Delta)` memory, the only backend that scales past
///   ~10^4 nodes.
///
/// The built artifacts (rings, labels, routing tables) own their data and
/// do not borrow from the space.
///
/// # Example
///
/// ```
/// use ron_metric::{BallOracle, LineMetric, Node, Space};
///
/// let space = Space::new(LineMetric::uniform(16)?);
/// assert_eq!(space.len(), 16);
/// assert_eq!(space.dist(Node::new(2), Node::new(5)), 3.0);
/// assert_eq!(space.index().ball_size(Node::new(0), 1.0), 2);
///
/// let sparse = Space::new_sparse(LineMetric::uniform(16)?);
/// assert_eq!(sparse.index().ball_size(Node::new(0), 1.0), 2);
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Space<M, I = MetricIndex> {
    metric: M,
    index: I,
}

impl<M: Metric> Space<M> {
    /// Builds the dense index and bundles it with the metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric is empty.
    #[must_use]
    pub fn new(metric: M) -> Self {
        let _stage = ron_obs::stage("index");
        let _span = ron_obs::span("construct.index.dense");
        let index = MetricIndex::build(&metric);
        record_index_bytes(&index);
        Space { metric, index }
    }
}

impl<M: Metric + Clone> Space<M, NetTreeIndex<M>> {
    /// Builds the memory-sparse [`NetTreeIndex`] backend (which owns its
    /// own clone of the metric) and bundles it with the metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric is empty.
    #[must_use]
    pub fn new_sparse(metric: M) -> Self {
        let _stage = ron_obs::stage("index");
        let _span = ron_obs::span("construct.index.sparse");
        let index = NetTreeIndex::build(metric.clone());
        record_index_bytes(&index);
        Space { metric, index }
    }
}

/// Raises the `metric.index.bytes` gauge to what `index` holds on the heap.
fn record_index_bytes(index: &impl HeapBytes) {
    if ron_obs::enabled() {
        ron_obs::gauge_max("metric.index.bytes", index.heap_bytes() as u64);
    }
}

impl<M: Metric, I> Space<M, I> {
    /// The underlying metric.
    #[must_use]
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The ball-query backend.
    #[must_use]
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metric.len()
    }

    /// Whether the space is empty (never true: construction panics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metric.is_empty()
    }

    /// Distance between two nodes.
    #[must_use]
    pub fn dist(&self, u: Node, v: Node) -> f64 {
        self.metric.dist(u, v)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + Clone {
        Node::all(self.len())
    }
}

impl<M: Metric, I: Sync> Metric for Space<M, I> {
    fn len(&self) -> usize {
        self.metric.len()
    }

    fn dist(&self, u: Node, v: Node) -> f64 {
        self.metric.dist(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BallOracle, LineMetric};

    #[test]
    fn bundles_metric_and_index() {
        let space = Space::new(LineMetric::uniform(4).unwrap());
        assert_eq!(space.len(), 4);
        assert_eq!(space.index().len(), 4);
        assert_eq!(space.dist(Node::new(0), Node::new(3)), 3.0);
        assert_eq!(space.nodes().count(), 4);
        assert!(!space.is_empty());
    }

    #[test]
    fn space_is_a_metric() {
        fn diameter_of<M: Metric>(m: &M) -> f64 {
            use crate::MetricExt;
            m.diameter()
        }
        let space = Space::new(LineMetric::uniform(4).unwrap());
        assert_eq!(diameter_of(&space), 3.0);
    }

    #[test]
    fn sparse_space_answers_like_dense() {
        let dense = Space::new(LineMetric::uniform(12).unwrap());
        let sparse = Space::new_sparse(LineMetric::uniform(12).unwrap());
        for u in dense.nodes() {
            assert_eq!(
                BallOracle::ball(sparse.index(), u, 3.0),
                BallOracle::ball(dense.index(), u, 3.0)
            );
        }
        assert_eq!(sparse.dist(Node::new(1), Node::new(4)), 3.0);
    }
}
