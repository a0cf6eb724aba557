//! Time-series telemetry: a ring buffer of registry snapshots taken at
//! deterministic tick points.
//!
//! A single end-of-run [`drain`](crate::drain) collapses a 2^20 build
//! or a churn run into one total; the sampler turns it into a curve.
//! Instrumented code calls [`timeseries_tick`] at *structural* moments
//! — a construction stage ends (the [`stage`](crate::stage) guard does
//! this automatically), a simulator phase is marked, a query-engine
//! batch completes — and each tick snapshots the live registry
//! ([`peek`](crate::peek), non-destructive) together with a
//! monotonically increasing tick index and the label of the moment.
//!
//! Ticks are tied to the *work*, never to wall-clock timers or
//! background threads, so the sequence of (tick, label) pairs is
//! byte-identical across reruns and `RON_THREADS`, and capture cannot
//! perturb scheduling or trace fingerprints (property-tested in
//! `ron-sim`). Two bounds keep high-frequency tick sites cheap: per
//! label, occurrences are **exponentially thinned** (the first 8 are
//! kept, then only power-of-two occurrences — a per-object `publish`
//! stage loop costs one snapshot per doubling, and its curve comes out
//! log-spaced), and the buffer is a ring of 1024 points, so long runs
//! keep the most recent window rather than growing without bound.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::registry::{self, Registry};

/// Ring-buffer size in points (oldest evicted first).
const CAPACITY: usize = 1024;

/// One sampled point: the registry as it stood at a tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimePoint {
    /// Monotone tick index, 0-based from process start (or the last
    /// [`take_timeseries`]/[`reset`](crate::reset)).
    pub tick: u64,
    /// What structural moment the tick marks, e.g. `"stage:rings"`,
    /// `"sim:phase:steady"`, `"engine:batch"`.
    pub label: String,
    /// Non-destructive registry snapshot at the tick.
    pub registry: Registry,
}

struct SeriesBuf {
    next_tick: u64,
    points: VecDeque<TimePoint>,
    /// Occurrence counts per label, for exponential thinning.
    seen: BTreeMap<String, u64>,
}

static SERIES: Mutex<SeriesBuf> = Mutex::new(SeriesBuf {
    next_tick: 0,
    points: VecDeque::new(),
    seen: BTreeMap::new(),
});

/// Records a time-series point labelled `label` by snapshotting the
/// live registry. A no-op (one relaxed load) when observability is
/// off. Call at structural moments — stage exits, phase marks, batch
/// boundaries — never from timers, so tick sequences stay
/// deterministic. Per label, only occurrences 1..=8 and powers of two
/// take a snapshot (exponential thinning), so a hot loop that exits a
/// stage thousands of times pays for O(log n) snapshots.
pub fn timeseries_tick(label: &str) {
    if !registry::enabled() {
        return;
    }
    {
        let mut buf = SERIES.lock().unwrap();
        let seen = buf.seen.entry(label.to_string()).or_insert(0);
        *seen += 1;
        let n = *seen;
        if n > 8 && !n.is_power_of_two() {
            return;
        }
    }
    // Snapshot outside the SERIES lock: peek() flushes the calling
    // thread's collector, which takes the registry lock.
    let snapshot = registry::peek();
    let mut buf = SERIES.lock().unwrap();
    let tick = buf.next_tick;
    buf.next_tick += 1;
    let point = TimePoint {
        tick,
        label: label.to_string(),
        registry: snapshot,
    };
    buf.points.push_back(point);
    while buf.points.len() > CAPACITY {
        buf.points.pop_front();
    }
}

/// Takes every buffered point in tick order, restarting the tick
/// counter and the per-label thinning counts.
#[must_use]
pub fn take_timeseries() -> Vec<TimePoint> {
    let mut buf = SERIES.lock().unwrap();
    buf.next_tick = 0;
    buf.seen.clear();
    buf.points.drain(..).collect()
}

/// Empties the buffer and restarts the tick counter (part of
/// [`reset`](crate::reset)).
pub(crate) fn clear() {
    let mut buf = SERIES.lock().unwrap();
    buf.next_tick = 0;
    buf.seen.clear();
    buf.points.clear();
}

fn csv_field(s: &str) -> String {
    // The schema is comma-separated with no quoting; commas and
    // newlines in labels/keys become ';' so a row is always 5 fields.
    s.replace([',', '\n', '\r'], ";")
}

/// Renders points as CSV with header `tick,label,kind,name,value` —
/// one row per metric per point. `kind` is `counter`, `gauge`,
/// `hist_count`, or `hist_sum`; histogram rows split into their count
/// and sum so the curve of a latency total is plottable directly.
#[must_use]
pub fn timeseries_csv(points: &[TimePoint]) -> String {
    let mut out = String::from("tick,label,kind,name,value\n");
    for p in points {
        let prefix = format!("{},{}", p.tick, csv_field(&p.label));
        for (k, v) in &p.registry.counters {
            out.push_str(&format!("{prefix},counter,{},{v}\n", csv_field(k)));
        }
        for (k, v) in &p.registry.gauges {
            out.push_str(&format!("{prefix},gauge,{},{v}\n", csv_field(k)));
        }
        for (k, h) in &p.registry.histograms {
            let name = csv_field(k);
            out.push_str(&format!("{prefix},hist_count,{name},{}\n", h.count()));
            out.push_str(&format!("{prefix},hist_sum,{name},{}\n", h.sum()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_field_never_breaks_the_row() {
        assert_eq!(csv_field("a,b\nc"), "a;b;c");
    }
}
