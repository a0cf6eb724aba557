//! Random metric generators used across tests, examples and benchmarks.
//!
//! Each generator is deterministic in its seed, so every experiment is
//! reproducible. The families cover the regimes the paper
//! distinguishes:
//!
//! * [`uniform_cube`] — points in `[0,1]^d`: low doubling dimension,
//!   polynomial aspect ratio (the "nice" regime);
//! * [`clustered`] — hierarchical clusters, the shape of Internet latency
//!   matrices that motivated triangulation [33, 50, 57];
//! * [`perturbed_grid`] — a jittered lattice, UL-constrained growth;
//! * [`LineMetric::exponential`](crate::LineMetric::exponential) — the
//!   super-polynomial aspect-ratio regime (re-exported here as
//!   [`exponential_line`]).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{EuclideanMetric, LineMetric, MetricError};

/// `n` points uniform in the unit cube `[0,1]^dim`.
///
/// # Panics
///
/// Panics if `n == 0` or `dim == 0`, or if (astronomically unlikely) the
/// generator fails to produce distinct points after several retries.
#[must_use]
pub fn uniform_cube(n: usize, dim: usize, seed: u64) -> EuclideanMetric {
    assert!(n > 0 && dim > 0, "need n > 0 points of dim > 0");
    retrying(seed, |rng| {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
            .collect();
        EuclideanMetric::new(points)
    })
}

/// `n` points grouped into `clusters` clusters in `[0,1]^dim`.
///
/// Cluster centers are uniform in the cube; each point is uniform in a box
/// of half-width `spread` around its (round-robin assigned) center. With
/// `spread << 1/clusters^(1/dim)` this produces the two-scale structure of
/// Internet latency metrics: small intra-cluster distances, large
/// inter-cluster distances.
///
/// # Panics
///
/// Panics if `n == 0`, `dim == 0`, `clusters == 0`, or `spread <= 0`.
#[must_use]
pub fn clustered(n: usize, dim: usize, clusters: usize, spread: f64, seed: u64) -> EuclideanMetric {
    assert!(
        n > 0 && dim > 0 && clusters > 0,
        "need nonempty configuration"
    );
    assert!(spread > 0.0, "spread must be positive");
    retrying(seed, |rng| {
        let centers: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
            .collect();
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let c = &centers[i % clusters];
                c.iter()
                    .map(|&x| x + rng.random_range(-spread..spread))
                    .collect()
            })
            .collect();
        EuclideanMetric::new(points)
    })
}

/// A `side^dim` lattice with every coordinate jittered by up to `jitter`.
///
/// With `jitter < 0.5` the points remain distinct and the metric remains
/// UL-constrained (ball growth bounded above and below), the hypothesis of
/// Theorem 5.4.
///
/// # Panics
///
/// Panics if `side == 0`, `dim == 0`, or `jitter` is not in `[0, 0.5)`.
#[must_use]
pub fn perturbed_grid(side: usize, dim: usize, jitter: f64, seed: u64) -> EuclideanMetric {
    assert!(side > 0 && dim > 0, "need a nonempty grid");
    assert!((0.0..0.5).contains(&jitter), "jitter must be in [0, 0.5)");
    let n = side.pow(dim as u32);
    retrying(seed, |rng| {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|mut i| {
                let mut p = vec![0.0f64; dim];
                for c in p.iter_mut().rev() {
                    *c = (i % side) as f64;
                    i /= side;
                }
                for c in p.iter_mut() {
                    if jitter > 0.0 {
                        *c += rng.random_range(-jitter..jitter);
                    }
                }
                p
            })
            .collect();
        EuclideanMetric::new(points)
    })
}

/// The exponential line `{1, 2, 4, ..., 2^(n-1)}`.
///
/// Convenience re-export of [`LineMetric::exponential`]; this is the
/// paper's canonical doubling metric with super-polynomial aspect ratio.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 1023`.
#[must_use]
pub fn exponential_line(n: usize) -> LineMetric {
    LineMetric::exponential(n).expect("n must be in 1..=1023")
}

/// Runs `make` with derived seeds until it produces a valid metric.
///
/// Duplicate points have probability ~0 under continuous sampling but the
/// retry keeps the generators total without panicking on cosmic bad luck.
fn retrying<T>(seed: u64, mut make: impl FnMut(&mut StdRng) -> Result<T, MetricError>) -> T {
    for attempt in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)));
        if let Ok(m) = make(&mut rng) {
            return m;
        }
    }
    panic!("metric generator failed 8 times; seed {seed} is cursed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, MetricExt};

    #[test]
    fn uniform_cube_is_deterministic() {
        let a = uniform_cube(32, 3, 42);
        let b = uniform_cube(32, 3, 42);
        let c = uniform_cube(32, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_cube_is_valid_metric() {
        let m = uniform_cube(24, 2, 7);
        assert_eq!(m.len(), 24);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn clustered_has_two_scales() {
        let m = clustered(40, 2, 4, 0.01, 11);
        assert_eq!(m.len(), 40);
        // Intra-cluster distances are tiny, inter-cluster typically large:
        // the aspect ratio must be much larger than for a uniform cube.
        assert!(m.aspect_ratio() > 10.0);
    }

    #[test]
    fn perturbed_grid_is_valid() {
        let m = perturbed_grid(4, 2, 0.2, 3);
        assert_eq!(m.len(), 16);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn perturbed_grid_zero_jitter_is_exact_lattice() {
        let m = perturbed_grid(3, 2, 0.0, 0);
        assert_eq!(m.len(), 9);
        assert_eq!(m.min_distance(), 1.0);
    }

    #[test]
    fn exponential_line_shape() {
        let m = exponential_line(6);
        assert_eq!(m.len(), 6);
        assert_eq!(m.aspect_ratio(), 31.0);
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn uniform_cube_rejects_empty() {
        let _ = uniform_cube(0, 2, 0);
    }
}
