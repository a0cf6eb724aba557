//! The pluggable ball-query backend of the construction pipeline.
//!
//! Every structure in the reproduction — nets, rings, triangulation
//! labels, routing tables, the location directory — only ever asks four
//! kinds of questions about the metric: *who is in the ball `B_u(r)`*,
//! *how many nodes is that*, *who is the nearest node satisfying a
//! predicate*, and *how large must a ball around `u` be to hold `k`
//! nodes* (`r_u(eps)` after normalization). None of them need a
//! materialized distance matrix.
//!
//! [`BallOracle`] captures exactly that interface. Two backends implement
//! it:
//!
//! * [`MetricIndex`](crate::MetricIndex) — the dense per-node sorted
//!   index: `O(n^2)` memory, `O(log n)` queries, exact everything;
//! * [`NetTreeIndex`](crate::NetTreeIndex) — a memory-sparse hierarchy of
//!   coarse nets (cover-tree style): `O(n log Delta)` memory, queries by
//!   descending the net ladder, built without ever holding `n^2` numbers.
//!
//! [`Space`](crate::Space) is generic over the backend
//! (`Space<M, I = MetricIndex>`), so construction code written against
//! `I: BallOracle` runs unchanged on either; tests pin that the sparse
//! backend's answers match the dense one's bit for bit.

use crate::Node;

/// Ball membership, ball cardinality, nearest-member and
/// radius-for-count queries over a finite metric — the complete query
/// surface the paper's constructions need (Section 1.1).
///
/// Contracts every implementation upholds (property-tested):
///
/// * [`for_each_in_ball`](BallOracle::for_each_in_ball) visits the closed
///   ball `B_u(r)` in ascending `(distance, node id)` order, starting at
///   `(0.0, u)` for `r >= 0`;
/// * [`nearest_where`](BallOracle::nearest_where) calls the predicate on
///   nodes in that same global order, each node at most once, and returns
///   the first match;
/// * [`radius_for_count`](BallOracle::radius_for_count) is exact: the
///   `(k-1)`-th smallest distance from `u` under the same tie order;
/// * [`min_distance`](BallOracle::min_distance) is the exact smallest
///   positive pairwise distance (`1.0` for a single node, matching the
///   dense index's convention); [`diameter_ub`](BallOracle::diameter_ub)
///   may be an **upper bound** within a factor of 2 of the true diameter
///   (exact for the dense backend) — every use in the pipeline only needs
///   a radius that covers the space.
pub trait BallOracle: Sync {
    /// Number of nodes in the indexed space.
    fn len(&self) -> usize;

    /// Whether the indexed space is empty (never true: backends reject
    /// empty metrics at construction).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest pairwise distance, or an upper bound within a factor of 2
    /// (exact for [`MetricIndex`](crate::MetricIndex); see the trait
    /// docs). The `_ub` suffix is the contract: callers may only rely on
    /// this covering the space, never on it being attained by a pair.
    fn diameter_ub(&self) -> f64;

    /// Exact smallest positive pairwise distance (`1.0` for a single
    /// node).
    fn min_distance(&self) -> f64;

    /// Aspect ratio `Delta = diameter / min_distance`, at least `1.0`
    /// (inherits [`diameter_ub`](BallOracle::diameter_ub)'s upper-bound
    /// slack).
    fn aspect_ratio(&self) -> f64 {
        if self.len() < 2 {
            1.0
        } else {
            (self.diameter_ub() / self.min_distance()).max(1.0)
        }
    }

    /// Visits every node of the closed ball `B_u(r)` as `(distance, node)`
    /// in ascending `(distance, id)` order. Includes `u` itself for
    /// `r >= 0`.
    fn for_each_in_ball(&self, u: Node, r: f64, visit: &mut dyn FnMut(f64, Node));

    /// The closed ball `B_u(r)` as an owned, `(distance, id)`-sorted
    /// vector.
    fn ball(&self, u: Node, r: f64) -> Vec<(f64, Node)> {
        let mut out = Vec::new();
        self.for_each_in_ball(u, r, &mut |d, v| out.push((d, v)));
        out
    }

    /// Cardinality of the closed ball `B_u(r)`.
    fn ball_size(&self, u: Node, r: f64) -> usize {
        let mut count = 0usize;
        self.for_each_in_ball(u, r, &mut |_, _| count += 1);
        count
    }

    /// Nearest node to `u` (inclusive of `u`) satisfying `pred`, with its
    /// distance; ties broken by node id. The predicate is called on each
    /// candidate at most once, in ascending `(distance, id)` order.
    fn nearest_where(&self, u: Node, pred: &mut dyn FnMut(Node) -> bool) -> Option<(f64, Node)>;

    /// Radius of the smallest closed ball around `u` containing at least
    /// `k` nodes (including `u`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > len()`.
    fn radius_for_count(&self, u: Node, k: usize) -> f64;

    /// `r_u(eps)` under the counting measure: radius of the smallest
    /// closed ball around `u` containing at least `ceil(eps * n)` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1]`.
    fn r_fraction(&self, u: Node, eps: f64) -> f64 {
        assert!(eps > 0.0 && eps <= 1.0, "eps {eps} out of range (0, 1]");
        let n = self.len();
        let k = ((eps * n as f64).ceil() as usize).clamp(1, n);
        self.radius_for_count(u, k)
    }
}

impl BallOracle for crate::MetricIndex {
    fn len(&self) -> usize {
        crate::MetricIndex::len(self)
    }

    fn diameter_ub(&self) -> f64 {
        crate::MetricIndex::diameter(self)
    }

    fn min_distance(&self) -> f64 {
        crate::MetricIndex::min_distance(self)
    }

    fn aspect_ratio(&self) -> f64 {
        crate::MetricIndex::aspect_ratio(self)
    }

    fn for_each_in_ball(&self, u: Node, r: f64, visit: &mut dyn FnMut(f64, Node)) {
        let t = ron_obs::start();
        for (d, v) in crate::MetricIndex::ball(self, u, r).iter() {
            visit(d, v);
        }
        ron_obs::finish("oracle.ball.dense", t);
    }

    fn ball(&self, u: Node, r: f64) -> Vec<(f64, Node)> {
        let t = ron_obs::start();
        let out = crate::MetricIndex::ball(self, u, r).to_vec();
        ron_obs::finish("oracle.ball.dense", t);
        out
    }

    fn ball_size(&self, u: Node, r: f64) -> usize {
        let t = ron_obs::start();
        let out = crate::MetricIndex::ball_size(self, u, r);
        ron_obs::finish("oracle.ball_size.dense", t);
        out
    }

    fn nearest_where(&self, u: Node, pred: &mut dyn FnMut(Node) -> bool) -> Option<(f64, Node)> {
        let t = ron_obs::start();
        let out = crate::MetricIndex::nearest_where(self, u, pred);
        ron_obs::finish("oracle.nearest.dense", t);
        out
    }

    fn radius_for_count(&self, u: Node, k: usize) -> f64 {
        let t = ron_obs::start();
        let out = crate::MetricIndex::radius_for_count(self, u, k);
        ron_obs::finish("oracle.radius.dense", t);
        out
    }

    fn r_fraction(&self, u: Node, eps: f64) -> f64 {
        crate::MetricIndex::r_fraction(self, u, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineMetric, MetricIndex};

    fn oracle() -> MetricIndex {
        MetricIndex::build(&LineMetric::uniform(10).unwrap())
    }

    fn generic_probe<O: BallOracle>(o: &O) -> (usize, usize, f64, Option<(f64, Node)>) {
        let u = Node::new(0);
        (
            o.len(),
            o.ball_size(u, 3.0),
            o.radius_for_count(u, 4),
            o.nearest_where(u, &mut |v| v.index() >= 4),
        )
    }

    #[test]
    fn dense_index_is_an_oracle() {
        let idx = oracle();
        let (n, ball, r4, hit) = generic_probe(&idx);
        assert_eq!(n, 10);
        assert_eq!(ball, 4);
        assert_eq!(r4, 3.0);
        assert_eq!(hit, Some((4.0, Node::new(4))));
        assert!(!BallOracle::is_empty(&idx));
        assert_eq!(BallOracle::aspect_ratio(&idx), 9.0);
    }

    #[test]
    fn trait_ball_matches_inherent_slice() {
        let idx = oracle();
        let u = Node::new(3);
        let trait_ball = BallOracle::ball(&idx, u, 2.5);
        assert_eq!(trait_ball, MetricIndex::ball(&idx, u, 2.5).to_vec());
        let mut visited = Vec::new();
        idx.for_each_in_ball(u, 2.5, &mut |d, v| visited.push((d, v)));
        assert_eq!(visited, trait_ball);
    }

    #[test]
    fn default_r_fraction_matches_dense() {
        let idx = oracle();
        for u in 0..10 {
            let u = Node::new(u);
            for eps in [0.1, 0.5, 1.0] {
                assert_eq!(
                    BallOracle::r_fraction(&idx, u, eps),
                    MetricIndex::r_fraction(&idx, u, eps)
                );
            }
        }
    }
}
