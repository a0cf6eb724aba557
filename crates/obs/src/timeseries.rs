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
//! log-spaced), and the buffer is a ring
//! ([`set_timeseries_capacity`], default 1024 points) so long runs
//! keep the most recent window rather than growing without bound.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::registry::{self, Registry};

const DEFAULT_CAPACITY: usize = 1024;

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
    capacity: usize,
    points: VecDeque<TimePoint>,
    /// Occurrence counts per label, for exponential thinning.
    seen: BTreeMap<String, u64>,
}

static SERIES: Mutex<SeriesBuf> = Mutex::new(SeriesBuf {
    next_tick: 0,
    capacity: DEFAULT_CAPACITY,
    points: VecDeque::new(),
    seen: BTreeMap::new(),
});

/// Caps the ring buffer at `capacity` points (oldest evicted first).
/// Zero is clamped to 1.
pub fn set_timeseries_capacity(capacity: usize) {
    let mut buf = SERIES.lock().unwrap();
    buf.capacity = capacity.max(1);
    while buf.points.len() > buf.capacity {
        buf.points.pop_front();
    }
}

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
    while buf.points.len() > buf.capacity {
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

/// Serializes points as a JSON array of
/// `{"tick":t,"label":"...","counters":{...},"gauges":{...},"hists":{name:{"count":c,"sum":s}}}`
/// — the compact per-tick view (full bucket vectors stay in the
/// end-of-run [`Registry::to_json`](crate::Registry::to_json)).
#[must_use]
pub fn timeseries_json(points: &[TimePoint]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"tick\":{},\"label\":\"{}\",\"counters\":{{",
            p.tick,
            registry::json_escape(&p.label)
        ));
        for (j, (k, v)) in p.registry.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", registry::json_escape(k)));
        }
        out.push_str("},\"gauges\":{");
        for (j, (k, v)) in p.registry.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", registry::json_escape(k)));
        }
        out.push_str("},\"hists\":{");
        for (j, (k, h)) in p.registry.histograms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{}}}",
                registry::json_escape(k),
                h.count(),
                h.sum(),
            ));
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

/// Renders values as a unicode sparkline (`▁` to `█`, space for
/// absent data), scaled to the slice maximum — the report's one-line
/// curve view of a time series.
#[must_use]
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return values.iter().map(|_| BARS[0]).collect();
    }
    values
        .iter()
        .map(|&v| {
            // Scale v/max into 0..8; nonzero values always show at
            // least the lowest bar.
            let idx = (v * 8 / max).clamp(u64::from(v > 0), 8) as usize;
            BARS[idx.saturating_sub(1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[0, 1, 4, 8]);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        // Nonzero values never render as the zero bar height... they
        // get at least the lowest visible bar.
        let tiny = sparkline(&[1, 1_000_000]);
        assert_eq!(tiny.chars().next(), Some('▁'));
    }

    #[test]
    fn csv_field_never_breaks_the_row() {
        assert_eq!(csv_field("a,b\nc"), "a;b;c");
    }
}
