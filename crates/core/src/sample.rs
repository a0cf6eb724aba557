//! Deterministic sampling from balls, uniform or measure-weighted.
//!
//! The small-world models of Section 5 sample contacts "independently and
//! uniformly at random from the ball `B_ui`" (X-type) or "from the ball
//! `B = B_u(2^j)` according to the probability distribution
//! `mu(.)/mu(B)`" (Y-type). These helpers implement both against the
//! sorted-ball rows of a [`MetricIndex`](ron_metric::MetricIndex), using
//! a caller-supplied RNG so experiments are reproducible.

use rand::{Rng, RngExt};
use ron_measure::NodeMeasure;
use ron_metric::{Metric, Node, Space};

/// Draws one node uniformly from the closed ball `B_u(r)`.
///
/// Returns `None` only if the ball is empty (impossible for `r >= 0` since
/// `u` itself is a member).
pub fn uniform_in_ball<M: Metric, R: Rng + ?Sized>(
    space: &Space<M>,
    u: Node,
    r: f64,
    rng: &mut R,
) -> Option<Node> {
    let ball = space.index().ball(u, r);
    if ball.is_empty() {
        return None;
    }
    let k = rng.random_range(0..ball.len());
    Some(ball.nodes()[k])
}

/// Draws `count` nodes independently and uniformly from `B_u(r)`,
/// returning the de-duplicated set (the paper stores neighbor *sets*).
pub fn uniform_set_in_ball<M: Metric, R: Rng + ?Sized>(
    space: &Space<M>,
    u: Node,
    r: f64,
    count: usize,
    rng: &mut R,
) -> Vec<Node> {
    let mut picks: Vec<Node> = (0..count)
        .filter_map(|_| uniform_in_ball(space, u, r, rng))
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// Draws one node from `B_u(r)` with probability proportional to the
/// measure `mu` restricted to the ball (the paper's `mu(.)/mu(B)`).
///
/// Returns `None` only if the ball is empty.
pub fn weighted_in_ball<M: Metric, R: Rng + ?Sized>(
    space: &Space<M>,
    measure: &NodeMeasure,
    u: Node,
    r: f64,
    rng: &mut R,
) -> Option<Node> {
    let ball = space.index().ball(u, r);
    if ball.is_empty() {
        return None;
    }
    let total: f64 = ball.nodes().iter().map(|&v| measure.mass(v)).sum();
    let mut roll = rng.random_range(0.0..total);
    for &v in ball.nodes() {
        roll -= measure.mass(v);
        if roll <= 0.0 {
            return Some(v);
        }
    }
    // Floating-point slack: the roll exhausted the mass; return the last.
    ball.nodes().last().copied()
}

/// Draws `count` nodes independently from `B_u(r)` proportionally to `mu`,
/// returning the de-duplicated set.
///
/// Builds the cumulative-mass table once (`O(|ball|)`), then each draw is
/// a binary search — the small-world constructions draw `Theta(log n)`
/// contacts per ring, so this path is hot.
pub fn weighted_set_in_ball<M: Metric, R: Rng + ?Sized>(
    space: &Space<M>,
    measure: &NodeMeasure,
    u: Node,
    r: f64,
    count: usize,
    rng: &mut R,
) -> Vec<Node> {
    let ball = space.index().ball(u, r);
    if ball.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut cum = Vec::with_capacity(ball.len());
    let mut total = 0.0f64;
    for &v in ball.nodes() {
        total += measure.mass(v);
        cum.push(total);
    }
    let mut picks: Vec<Node> = (0..count)
        .map(|_| {
            let roll = rng.random_range(0.0..total);
            let k = cum.partition_point(|&c| c <= roll).min(ball.len() - 1);
            ball.nodes()[k]
        })
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// Draws one node uniformly from the annulus `(inner, outer]` around `u`;
/// if the annulus is empty, falls back to the closest node strictly outside
/// `B_u(inner)` (ties by node id), per the Z-type contact rule of
/// Theorem 5.2(b). Returns `None` if no node lies outside `B_u(inner)`.
pub fn uniform_in_annulus_or_next<M: Metric, R: Rng + ?Sized>(
    space: &Space<M>,
    u: Node,
    inner: f64,
    outer: f64,
    rng: &mut R,
) -> Option<Node> {
    let ring = space.index().annulus(u, inner, outer);
    if !ring.is_empty() {
        let k = rng.random_range(0..ring.len());
        return Some(ring.nodes()[k]);
    }
    let row = space.index().sorted_from(u);
    let start = row.dists().partition_point(|&d| d <= inner);
    row.nodes().get(start).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ron_metric::LineMetric;

    fn space() -> Space<LineMetric> {
        Space::new(LineMetric::uniform(16).unwrap())
    }

    #[test]
    fn uniform_samples_stay_in_ball() {
        let space = space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = uniform_in_ball(&space, Node::new(8), 3.0, &mut rng).unwrap();
            assert!(space.dist(Node::new(8), v) <= 3.0);
        }
    }

    #[test]
    fn uniform_set_is_deduped_sorted() {
        let space = space();
        let mut rng = StdRng::seed_from_u64(2);
        let set = uniform_set_in_ball(&space, Node::new(8), 2.0, 50, &mut rng);
        assert!(set.len() <= 5); // ball has 5 nodes
        assert!(set.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn weighted_sampling_respects_mass() {
        let space = space();
        // All mass on node 0: any ball containing node 0 must sample it.
        let mut weights = vec![1e-9; 16];
        weights[0] = 1.0;
        let mu = NodeMeasure::from_weights(weights);
        let mut rng = StdRng::seed_from_u64(3);
        let mut zero_hits = 0;
        for _ in 0..200 {
            let v = weighted_in_ball(&space, &mu, Node::new(2), 5.0, &mut rng).unwrap();
            if v == Node::new(0) {
                zero_hits += 1;
            }
        }
        assert!(
            zero_hits >= 195,
            "heavy node sampled only {zero_hits}/200 times"
        );
    }

    #[test]
    fn weighted_sampling_is_uniform_under_counting() {
        let space = space();
        let mu = NodeMeasure::counting(16);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 16];
        for _ in 0..3000 {
            let v = weighted_in_ball(&space, &mu, Node::new(0), 3.0, &mut rng).unwrap();
            counts[v.index()] += 1;
        }
        // Ball = {0,1,2,3}: each should get ~750 draws.
        for (i, &c) in counts.iter().enumerate().take(4) {
            assert!(c > 500, "node {i} undersampled: {c}");
        }
        for (i, &c) in counts.iter().enumerate().skip(4) {
            assert_eq!(c, 0, "node {i} outside the ball was sampled");
        }
    }

    #[test]
    fn annulus_sampling_and_fallback() {
        let space = space();
        let mut rng = StdRng::seed_from_u64(5);
        // Annulus (2, 4] around node 0 = {3, 4}.
        for _ in 0..50 {
            let v = uniform_in_annulus_or_next(&space, Node::new(0), 2.0, 4.0, &mut rng).unwrap();
            assert!(v == Node::new(3) || v == Node::new(4));
        }
        // Empty annulus (20, 30]: fallback = nearest outside B(0, 20) = none.
        assert_eq!(
            uniform_in_annulus_or_next(&space, Node::new(0), 20.0, 30.0, &mut rng),
            None
        );
        // Empty annulus (8.5, 8.7] with nodes beyond: falls back to node 9.
        let v = uniform_in_annulus_or_next(&space, Node::new(0), 8.5, 8.7, &mut rng).unwrap();
        assert_eq!(v, Node::new(9));
    }
}
