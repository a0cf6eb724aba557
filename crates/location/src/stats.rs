//! Serving statistics: latency percentiles and batch reports.

use std::time::Duration;

use ron_core::stats::PathStats;

/// Latency percentiles over a set of served queries, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of measured queries.
    pub count: usize,
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Worst latency.
    pub max_us: f64,
    /// Mean latency.
    pub mean_us: f64,
}

impl LatencySummary {
    /// Summarizes raw per-query latencies in nanoseconds. Quantiles use
    /// the workspace-wide nearest-rank convention
    /// ([`ron_core::stats::nearest_rank_index`]).
    #[must_use]
    pub fn from_nanos(mut nanos: Vec<u64>) -> Self {
        if nanos.is_empty() {
            return LatencySummary::default();
        }
        nanos.sort_unstable();
        let us = |n: u64| n as f64 / 1000.0;
        let at = |p: f64| us(nanos[ron_core::stats::nearest_rank_index(nanos.len(), p)]);
        let sum: u64 = nanos.iter().sum();
        LatencySummary {
            count: nanos.len(),
            p50_us: at(0.50),
            p99_us: at(0.99),
            max_us: us(*nanos.last().expect("nonempty")),
            mean_us: us(sum) / nanos.len() as f64,
        }
    }
}

/// Hit/miss accounting for one shard of the engine's LRU result cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups absent from this shard (cold keys and evicted entries).
    pub misses: u64,
    /// Lookups that found the key but cached against a superseded
    /// publication epoch — rejected, never served.
    pub stale: u64,
}

/// The outcome of serving one batch through the query engine.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Queries served.
    pub served: usize,
    /// Queries that located the current home.
    pub successes: usize,
    /// Queries that failed (only possible on damaged overlays).
    pub failures: usize,
    /// Queries answered from the LRU result cache.
    pub cache_hits: usize,
    /// Times a worker found a newer publication mid-batch and reloaded
    /// the snapshot (summed over workers).
    pub reloads: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Per-query latency percentiles.
    pub latency: LatencySummary,
    /// Hops/stretch statistics over the successful lookups.
    pub paths: PathStats,
    /// Per-shard cache accounting for the batch, in shard order (empty
    /// when the cache is disabled).
    pub cache_shards: Vec<CacheShardStats>,
}

impl BatchReport {
    /// Lookups served per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.served as f64 / secs
        }
    }

    /// Fraction of queries that located the current home.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.served == 0 {
            1.0
        } else {
            self.successes as f64 / self.served as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let nanos: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        let s = LatencySummary::from_nanos(nanos);
        assert_eq!(s.count, 100);
        // Nearest rank (shared with ron-sim): the p50 of 1..=100 is 50.
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(
            LatencySummary::from_nanos(Vec::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn report_rates() {
        let mut r = BatchReport::default();
        assert_eq!(r.success_rate(), 1.0);
        r.served = 4;
        r.successes = 3;
        r.failures = 1;
        r.elapsed = Duration::from_millis(2);
        assert_eq!(r.success_rate(), 0.75);
        assert!((r.throughput() - 2000.0).abs() < 1e-9);
        assert_eq!(BatchReport::default().throughput(), f64::INFINITY);
    }
}
