//! Doubling and grid dimension estimators (Section 1 of the paper).
//!
//! The *doubling dimension* of a metric is the infimum `alpha` such that
//! every set of diameter `d` can be covered by `2^alpha` sets of diameter
//! `d/2`. Computing it exactly is NP-hard in general; the standard
//! 2-approximation covers balls with balls of half the radius (Lemma 1.1
//! style), which is what [`doubling_dimension`] measures.
//!
//! The *grid dimension* (footnote 2) is the smallest `alpha` such that
//! `|B_u(2r)| <= 2^alpha * |B_u(r)|` for every ball; grids have it bounded,
//! while the exponential line does not — the paper's motivating separation
//! between growth-constrained and doubling metrics.

use crate::cover::greedy_cover_size;
use crate::{Metric, MetricIndex, Node};

/// Estimates the doubling dimension: the maximum over sampled balls
/// `B_u(r)` of `log2(cover size)` where the cover uses balls of radius
/// `r/2` (greedy, Lemma 1.1).
///
/// This is the usual constant-factor approximation of the true doubling
/// dimension: it never underestimates the "cover balls by half-radius
/// balls" variant of the dimension and is within a factor 2 of the
/// diameter-based definition.
///
/// Radii are swept over the distance scales `min_dist * 2^j`; all `n` nodes
/// are tried as centers, so the estimate is deterministic. `O(n^2 log
/// Delta)` distance evaluations overall.
///
/// # Example
///
/// ```
/// use ron_metric::{doubling, GridMetric, Space};
///
/// let space = Space::new(GridMetric::new(8, 2)?);
/// let alpha = doubling::doubling_dimension(&space.metric(), space.index());
/// assert!(alpha <= 4.0, "2-D grid should have small doubling dimension");
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[must_use]
pub fn doubling_dimension<M: Metric + ?Sized>(metric: &M, index: &MetricIndex) -> f64 {
    let n = index.len();
    if n <= 1 {
        return 0.0;
    }
    let mut worst = 1usize;
    let mut r = index.min_distance();
    while r <= index.diameter() * 2.0 {
        for i in 0..n {
            let u = Node::new(i);
            let ball: Vec<Node> = index.ball(u, r).iter().map(|&(_, v)| v).collect();
            if ball.len() > worst {
                let cover = greedy_cover_size(metric, &ball, r / 2.0);
                worst = worst.max(cover);
            }
        }
        r *= 2.0;
    }
    (worst as f64).log2()
}

/// Estimates the grid dimension: `max_u,r log2(|B_u(2r)| / |B_u(r)|)`,
/// sweeping `r` over the distance scales.
///
/// For metrics with unbounded growth (like the exponential line) this grows
/// with `n` while [`doubling_dimension`] stays bounded; the pair of
/// estimators reproduces the paper's separation example.
#[must_use]
pub fn grid_dimension(index: &MetricIndex) -> f64 {
    let n = index.len();
    if n <= 1 {
        return 0.0;
    }
    let mut worst = 1.0f64;
    let mut r = index.min_distance();
    while r <= index.diameter() {
        for i in 0..n {
            let u = Node::new(i);
            let small = index.ball_size(u, r) as f64;
            let big = index.ball_size(u, 2.0 * r) as f64;
            worst = worst.max(big / small);
        }
        r *= 2.0;
    }
    worst.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridMetric, LineMetric, Space};

    #[test]
    fn line_has_dimension_about_one() {
        let space = Space::new(LineMetric::uniform(64).unwrap());
        let alpha = doubling_dimension(space.metric(), space.index());
        assert!((0.9..=3.0).contains(&alpha), "got alpha = {alpha}");
    }

    #[test]
    fn grid_has_dimension_about_two() {
        let space = Space::new(GridMetric::new(8, 2).unwrap());
        let alpha = doubling_dimension(space.metric(), space.index());
        assert!((1.5..=4.5).contains(&alpha), "got alpha = {alpha}");
    }

    #[test]
    fn exponential_line_is_doubling_but_not_growth_constrained() {
        let space = Space::new(LineMetric::exponential(24).unwrap());
        let alpha = doubling_dimension(space.metric(), space.index());
        let grid = grid_dimension(space.index());
        // Doubling dimension stays small...
        assert!(alpha <= 3.5, "doubling dim too large: {alpha}");
        // ...but grid dimension reveals the unbounded growth:
        // B_u(2r) can catch many points at once on the exponential line.
        assert!(
            grid >= alpha,
            "expected grid dim ({grid}) >= doubling dim ({alpha})"
        );
    }

    #[test]
    fn singleton_dimensions_are_zero() {
        let space = Space::new(LineMetric::new(vec![3.0]).unwrap());
        assert_eq!(doubling_dimension(space.metric(), space.index()), 0.0);
        assert_eq!(grid_dimension(space.index()), 0.0);
    }

    #[test]
    fn lemma_1_2_holds_on_generated_metrics() {
        for n in [8usize, 32, 64] {
            let space = Space::new(LineMetric::uniform(n).unwrap());
            let alpha = doubling_dimension(space.metric(), space.index()).max(1.0);
            // Lemma 1.2: `1 + log2(Delta) >= log2(n) / alpha`.
            let slack = (1.0 + space.index().aspect_ratio().log2()) - (n as f64).log2() / alpha;
            assert!(
                slack >= -1e-9,
                "Lemma 1.2 violated: slack {slack} for n={n}"
            );
        }
    }
}
