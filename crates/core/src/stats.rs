//! Shared sample statistics: the nearest-rank quantile every report in
//! the workspace summarizes with, and the hops/stretch accounting of
//! routed packets and directory lookups ([`PathStats`]).
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

/// Stretch of a path of weighted `length` against the true distance
/// `shortest`: `length / shortest`, and `1.0` when `shortest <= 0` (a
/// path from a node to itself). Every stretch in the workspace is this
/// one.
#[inline]
#[must_use]
pub fn stretch(length: f64, shortest: f64) -> f64 {
    if shortest <= 0.0 {
        1.0
    } else {
        length / shortest
    }
}

/// Incremental hops/stretch accounting over a set of traversed paths.
///
/// One `record` call per path; the same arithmetic serves the routing
/// schemes of `ron-routing` and the object-location lookups of
/// `ron-location`, with the [`stretch`] convention. Accumulators from
/// different workers can be [`merge`](PathStats::merge)d.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathStats {
    /// Number of paths recorded.
    pub count: usize,
    /// Worst stretch observed (`0.0` until the first record).
    pub max_stretch: f64,
    /// Worst hop count observed.
    pub max_hops: usize,
    /// Sum of traversed path lengths.
    pub total_length: f64,
    sum_stretch: f64,
}

impl PathStats {
    /// Records one traversed path of weighted `length` and `hops` edges
    /// against the true shortest-path distance `shortest`.
    pub fn record(&mut self, length: f64, shortest: f64, hops: usize) {
        let stretch = stretch(length, shortest);
        self.count += 1;
        self.max_stretch = self.max_stretch.max(stretch);
        self.max_hops = self.max_hops.max(hops);
        self.total_length += length;
        self.sum_stretch += stretch;
    }

    /// Folds another accumulator into this one (for per-worker stats).
    pub fn merge(&mut self, other: &PathStats) {
        self.count += other.count;
        self.max_stretch = self.max_stretch.max(other.max_stretch);
        self.max_hops = self.max_hops.max(other.max_hops);
        self.total_length += other.total_length;
        self.sum_stretch += other.sum_stretch;
    }

    /// Mean stretch over the recorded paths (`1.0` when empty).
    #[must_use]
    pub fn mean_stretch(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.sum_stretch / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_stats_accumulate_and_merge() {
        let mut a = PathStats::default();
        a.record(3.0, 2.0, 2);
        a.record(2.0, 2.0, 1);
        assert_eq!(a.count, 2);
        assert_eq!(a.max_stretch, 1.5);
        assert_eq!(a.max_hops, 2);
        assert_eq!(a.total_length, 5.0);
        assert!((a.mean_stretch() - 1.25).abs() < 1e-12);
        // Zero true distance is neutral stretch 1.0.
        a.record(0.5, 0.0, 1);
        assert_eq!(a.max_stretch, 1.5);
        let mut b = PathStats::default();
        assert_eq!(b.mean_stretch(), 1.0);
        b.record(8.0, 2.0, 7);
        b.merge(&a);
        assert_eq!(b.count, 4);
        assert_eq!(b.max_stretch, 4.0);
        assert_eq!(b.max_hops, 7);
    }

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
