//! Shared sample statistics: the nearest-rank quantile every report in
//! the workspace summarizes with.
//!
//! The simulator's `Percentiles` and the location engine's
//! `LatencySummary` both rank through this module, so every pinned table
//! agrees on what a p50 is. The convention is **nearest-rank**: the
//! `q`-quantile of `n` samples is the `ceil(q * n)`-th smallest sample
//! (1-indexed), i.e. `sorted[ceil(q * n) - 1]` — the smallest sample `x`
//! such that at least a `q`-fraction of the samples are `<= x`.
//!
//! Histograms share one type the same way: the power-of-two bucket
//! histogram behind the simulator's per-node load and the observability
//! registry's distributions is [`ron_obs::Pow2Histogram`], re-exported
//! here so stats consumers get one bucket convention (bucket 0 = value
//! 0, bucket `k >= 1` = `[2^(k-1), 2^k)`) and one merge rule.

pub use ron_obs::Pow2Histogram;

/// Zero-based index of the nearest-rank `q`-quantile in a sorted sample
/// of `count` elements: `ceil(q * count) - 1`, clamped into range.
///
/// # Panics
///
/// Panics if `count == 0` or `q` is not in `(0, 1]`.
#[must_use]
pub fn nearest_rank_index(count: usize, q: f64) -> usize {
    assert!(count > 0, "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
    let rank = (q * count as f64).ceil() as usize;
    rank.clamp(1, count) - 1
}

/// The nearest-rank `q`-quantile of an ascending-sorted sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is not in `(0, 1]` (and debug
/// builds assert the slice is actually sorted).
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1] || w[1].is_nan()),
        "samples must be sorted ascending"
    );
    sorted[nearest_rank_index(sorted.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_one_to_hundred() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // ceil(q * 100) - 1: the p50 of 1..=100 is 50, not 51.
        assert_eq!(nearest_rank(&samples, 0.50), 50.0);
        assert_eq!(nearest_rank(&samples, 0.90), 90.0);
        assert_eq!(nearest_rank(&samples, 0.99), 99.0);
        assert_eq!(nearest_rank(&samples, 1.0), 100.0);
        assert_eq!(nearest_rank(&samples, 0.001), 1.0);
    }

    #[test]
    fn nearest_rank_is_the_smallest_sample_covering_q() {
        // Reference definition: smallest x with |{y <= x}| >= ceil(q n).
        let samples = [1.0, 1.0, 2.0, 5.0, 9.0];
        for q in [0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 1.0] {
            let x = nearest_rank(&samples, q);
            let need = (q * samples.len() as f64).ceil() as usize;
            let covered = samples.iter().filter(|&&y| y <= x).count();
            assert!(covered >= need, "q = {q}");
            let smaller = samples.iter().filter(|&&y| y < x).count();
            assert!(smaller < need, "q = {q}: {x} is not the smallest");
        }
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(nearest_rank(&[7.5], 0.5), 7.5);
        assert_eq!(nearest_rank_index(1, 1.0), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_rejected() {
        let _ = nearest_rank_index(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn zero_quantile_rejected() {
        let _ = nearest_rank_index(4, 0.0);
    }
}
