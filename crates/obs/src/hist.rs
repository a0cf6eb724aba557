//! Power-of-two bucket histograms.
//!
//! The bucket convention is shared with the simulator's per-node load
//! histogram (`ron_sim::SimReport::load_histogram_pow2`): bucket 0
//! counts the value 0 and bucket `k >= 1` counts values in
//! `[2^(k-1), 2^k)`. Buckets grow on demand, so a histogram costs a
//! handful of words until something large is recorded, and merging two
//! histograms is bucket-wise addition — associative and commutative, so
//! per-thread shards merge to the same totals in any order.

/// A histogram over `u64` values with power-of-two buckets.
///
/// Tracks count, sum, min, and max exactly; the distribution itself is
/// quantised to pow2 buckets, which is plenty for latency-shape and
/// fan-out-shape questions while keeping `record` allocation-free in
/// the steady state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pow2Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Pow2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index for `value`: 0 for 0, else `64 - leading_zeros`,
    /// i.e. `k` such that `value` is in `[2^(k-1), 2^k)`.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The closed value range `[lo, hi]` covered by bucket `bucket`.
    #[must_use]
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        if bucket == 0 {
            (0, 0)
        } else {
            (1u64 << (bucket - 1), ((1u128 << bucket) - 1) as u64)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = Self::bucket_of(value);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds every observation of `other` into `self` (bucket-wise sum).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts; index with [`Pow2Histogram::bucket_range`].
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate nearest-rank quantile: the lower bound of the bucket
    /// holding the `ceil(q * count)`-th smallest observation. Exact for
    /// values 0 and 1; within 2x above that. `None` when empty.
    #[must_use]
    pub fn quantile_lower_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_range(bucket).0);
            }
        }
        Some(Self::bucket_range(self.buckets.len().saturating_sub(1)).0)
    }

    /// Compact `range:count` rendering of the non-empty buckets, in the
    /// same format as the simulator's load histogram: `0:12 1:30 2-3:51`.
    fn render_compact(&self) -> String {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(bucket, &c)| {
                let (lo, hi) = Self::bucket_range(bucket);
                if lo == hi {
                    format!("{lo}:{c}")
                } else {
                    format!("{lo}-{hi}:{c}")
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// One-line summary: count, mean, approximate p50/p99, max, and the
    /// compact bucket rendering.
    #[must_use]
    pub fn render_summary(&self) -> String {
        if self.count == 0 {
            return "count=0".to_string();
        }
        format!(
            "count={} mean={:.1} p50~{} p99~{} max={}  [{}]",
            self.count,
            self.mean(),
            self.quantile_lower_bound(0.50).unwrap_or(0),
            self.quantile_lower_bound(0.99).unwrap_or(0),
            self.max,
            self.render_compact()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_the_pow2_convention() {
        assert_eq!(Pow2Histogram::bucket_of(0), 0);
        assert_eq!(Pow2Histogram::bucket_of(1), 1);
        assert_eq!(Pow2Histogram::bucket_of(2), 2);
        assert_eq!(Pow2Histogram::bucket_of(3), 2);
        assert_eq!(Pow2Histogram::bucket_of(4), 3);
        assert_eq!(Pow2Histogram::bucket_of(u64::MAX), 64);
        for bucket in 1..64 {
            let (lo, hi) = Pow2Histogram::bucket_range(bucket);
            assert_eq!(Pow2Histogram::bucket_of(lo), bucket);
            assert_eq!(Pow2Histogram::bucket_of(hi), bucket);
        }
    }

    #[test]
    fn record_tracks_exact_moments() {
        let mut h = Pow2Histogram::new();
        for v in [0, 1, 2, 3, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.render_compact(), "0:1 1:1 2-3:2 4-7:1 8-15:1");
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let values_a = [0u64, 1, 7, 900, 900, 3];
        let values_b = [2u64, 2, 65536, 1];
        let mut merged = Pow2Histogram::new();
        let mut a = Pow2Histogram::new();
        let mut b = Pow2Histogram::new();
        for &v in &values_a {
            a.record(v);
            merged.record(v);
        }
        for &v in &values_b {
            b.record(v);
            merged.record(v);
        }
        // Merge in both orders: the result is identical (commutative).
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, merged);
        assert_eq!(ba, merged);
        // Merging an empty histogram is the identity.
        ab.merge(&Pow2Histogram::new());
        assert_eq!(ab, merged);
    }

    #[test]
    fn quantiles_are_bucket_lower_bounds() {
        let mut h = Pow2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 of 1..=100 is 50, which lives in bucket [32, 63].
        assert_eq!(h.quantile_lower_bound(0.50), Some(32));
        assert_eq!(h.quantile_lower_bound(1.0), Some(64));
        assert_eq!(h.quantile_lower_bound(0.0), Some(1));
        assert_eq!(Pow2Histogram::new().quantile_lower_bound(0.5), None);
    }
}
