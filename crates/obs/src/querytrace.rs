//! Per-query flight records: structured traces of individual lookups
//! and publishes, sampled deterministically and aggregated into a
//! latency-attribution table.
//!
//! The aggregate registry answers "how many and how long in total"; a
//! [`QueryTrace`] answers "where did *this* query's time go" — which
//! cache shard it probed (and whether the probe hit, missed, or found a
//! stale-epoch entry), which publication epoch served it, how many
//! zoom-chain levels the walk visited, and how many nanoseconds each
//! stage of the query owned.
//!
//! Sampling is **index-based** (`RON_QTRACE=k` traces every `k`-th
//! query by its position in the batch), never randomized: tracing must
//! not consume RNG draws or perturb scheduling, so the simulator's
//! trace fingerprints stay byte-identical whether query tracing is
//! off, on, or sampled (property-tested in `ron-sim`). Records are
//! buffered on the recording thread's collector, merged on
//! [`flush`](crate::flush), and drained sorted by `(kind, id)` — ids
//! are batch positions, so the drained order is identical no matter
//! how a worker pool split the batch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::Pow2Histogram;
use crate::registry;

static QTRACE_RATE: AtomicU64 = AtomicU64::new(0);

/// The current sampling rate: 0 when query tracing is off, else `k`
/// meaning every `k`-th query (by batch position) is traced.
#[inline]
#[must_use]
pub fn qtrace_rate() -> u64 {
    // ordering: Relaxed -- an independent sampling-rate cell set
    // before serving starts; spawn synchronizes it to workers.
    QTRACE_RATE.load(Ordering::Relaxed)
}

/// Sets the sampling rate (0 disables, 1 traces every query, `k`
/// traces ids divisible by `k`). See [`init_from_env`] for the
/// `RON_QTRACE` knob.
///
/// [`init_from_env`]: crate::init_from_env
pub fn set_qtrace(rate: u64) {
    // ordering: Relaxed -- see qtrace_rate above.
    QTRACE_RATE.store(rate, Ordering::Relaxed);
}

/// Whether the query with batch position `id` should be traced. One
/// relaxed load and a branch when tracing is off; deterministic in
/// `id` (no RNG), so the set of sampled queries is identical across
/// reruns and worker counts.
#[inline]
#[must_use]
pub fn qtrace_sampled(id: u64) -> bool {
    let rate = qtrace_rate();
    rate != 0 && id.is_multiple_of(rate)
}

/// How a traced query's cache probe went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheOutcome {
    /// The query never probed a cache (publishes, cache-less engines).
    #[default]
    Uncached,
    /// Served from the cache under the current epoch.
    Hit,
    /// Not in the cache.
    Miss,
    /// Present, but tagged with a superseded publication epoch.
    Stale,
}

/// One sampled query's flight record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// Query family: `"lookup"` or `"publish"`.
    pub kind: &'static str,
    /// Position of the query in its batch (the sampling index).
    pub id: u64,
    /// Publication epoch the query was served against.
    pub epoch: u64,
    /// Cache shard probed, if the query went through a sharded cache.
    pub cache_shard: Option<u32>,
    /// Outcome of the cache probe.
    pub cache: CacheOutcome,
    /// Zoom-chain levels visited (fingers probed on the climb, or
    /// ladder levels written by a publish).
    pub levels_visited: u32,
    /// Ladder level where the walk found its directory entry (`None`
    /// for cache hits, failures, and publishes).
    pub found_level: Option<u32>,
    /// Probe count: finger probes for lookups, pointer writes (the
    /// fan-out) for publishes.
    pub probes: u64,
    /// Overlay hops traversed (a cache hit reports the hops of the
    /// walk that populated the entry).
    pub hops: u32,
    /// Per-stage wall time, `(stage name, ns)` in execution order —
    /// e.g. `[("cache", 120), ("walk", 5400)]` for a lookup or
    /// `[("plan", 8000), ("install", 900)]` for a publish.
    pub stages: Vec<(&'static str, u64)>,
}

impl QueryTrace {
    /// Total nanoseconds across all stages.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().map(|&(_, ns)| ns).sum()
    }

    /// The record with its wall-clock fields zeroed: what two runs of
    /// the same batch must agree on byte for byte (ids, epochs, shards,
    /// cache outcomes, levels, probes, hops — everything but time).
    #[must_use]
    pub fn structural(&self) -> QueryTrace {
        QueryTrace {
            stages: self.stages.iter().map(|&(s, _)| (s, 0)).collect(),
            ..self.clone()
        }
    }
}

/// Buffers a flight record on the calling thread's collector. Safe to
/// call from worker pools; records merge on [`flush`](crate::flush)
/// and drain in `(kind, id)` order regardless of which thread recorded
/// them.
pub fn record_query_trace(trace: QueryTrace) {
    registry::push_query_trace(trace);
}

/// Flushes the calling thread and takes every buffered flight record,
/// sorted by `(kind, id)` — byte-stable across worker counts, since
/// ids are batch positions.
#[must_use]
pub fn drain_query_traces() -> Vec<QueryTrace> {
    let mut traces = registry::take_query_traces();
    traces.sort_by(|a, b| (a.kind, a.id).cmp(&(b.kind, b.id)));
    traces
}

/// The latency attribution: per `(kind, stage)` latency histograms built
/// from drained flight records, answering which stage owns a query
/// family's p50 and p99.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyAttribution {
    /// Per-stage ns histograms, keyed `(kind, stage)`.
    stages: BTreeMap<(&'static str, &'static str), Pow2Histogram>,
    /// Per-kind total ns histograms (sum of a record's stages).
    totals: BTreeMap<&'static str, Pow2Histogram>,
}

impl LatencyAttribution {
    /// Aggregates drained flight records.
    #[must_use]
    pub fn from_traces(traces: &[QueryTrace]) -> Self {
        let mut out = LatencyAttribution::default();
        for t in traces {
            for &(stage, ns) in &t.stages {
                out.stages.entry((t.kind, stage)).or_default().record(ns);
            }
            out.totals.entry(t.kind).or_default().record(t.total_ns());
        }
        out
    }

    /// True when no records were aggregated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// The aggregated `(kind, stage)` histograms, sorted by key.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &'static str, &Pow2Histogram)> {
        self.stages.iter().map(|(&(k, s), h)| (k, s, h))
    }

    /// Total-latency histogram for `kind` (sum of each record's
    /// stages).
    #[must_use]
    pub fn total(&self, kind: &str) -> Option<&Pow2Histogram> {
        self.totals.get(kind)
    }

    /// The stage that **owns** `kind`'s `q`-quantile: the stage whose
    /// own `q`-quantile lower bound is largest (first in stage-name
    /// order on ties). `None` when the kind was never traced.
    #[must_use]
    pub fn owner(&self, kind: &str, q: f64) -> Option<&'static str> {
        let mut best: Option<(u64, &'static str)> = None;
        for (k, stage, h) in self.stages() {
            if k != kind {
                continue;
            }
            let lb = h.quantile_lower_bound(q)?;
            if best.is_none_or(|(b, _)| lb > b) {
                best = Some((lb, stage));
            }
        }
        best.map(|(_, stage)| stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(kind: &'static str, id: u64, cache_ns: u64, walk_ns: u64) -> QueryTrace {
        QueryTrace {
            kind,
            id,
            epoch: 3,
            cache_shard: Some(1),
            cache: CacheOutcome::Miss,
            levels_visited: 2,
            found_level: Some(1),
            probes: 2,
            hops: 4,
            stages: vec![("cache", cache_ns), ("walk", walk_ns)],
        }
    }

    #[test]
    fn sampling_is_index_based_and_off_by_default() {
        let prev = qtrace_rate();
        set_qtrace(0);
        assert!(!qtrace_sampled(0));
        set_qtrace(3);
        assert!(qtrace_sampled(0));
        assert!(!qtrace_sampled(1));
        assert!(!qtrace_sampled(2));
        assert!(qtrace_sampled(3));
        set_qtrace(1);
        assert!(qtrace_sampled(7));
        set_qtrace(prev);
    }

    #[test]
    fn attribution_finds_the_owning_stage() {
        // walk dwarfs cache on every record: walk owns both quantiles.
        let traces: Vec<QueryTrace> = (0..100).map(|i| trace("lookup", i, 10, 5000)).collect();
        let lat = LatencyAttribution::from_traces(&traces);
        assert!(!lat.is_empty());
        assert_eq!(lat.owner("lookup", 0.50), Some("walk"));
        assert_eq!(lat.owner("lookup", 0.99), Some("walk"));
        assert_eq!(lat.owner("publish", 0.99), None);
        assert_eq!(lat.total("lookup").unwrap().count(), 100);
        let stages: Vec<_> = lat.stages().map(|(k, s, _)| (k, s)).collect();
        assert_eq!(stages, vec![("lookup", "cache"), ("lookup", "walk")]);
    }

    #[test]
    fn structural_projection_zeroes_time_only() {
        let t = trace("lookup", 9, 123, 456);
        let s = t.structural();
        assert_eq!(s.id, 9);
        assert_eq!(s.stages, vec![("cache", 0), ("walk", 0)]);
        assert_eq!(s.total_ns(), 0);
        assert_eq!(t.total_ns(), 579);
    }
}
