//! Simulation reports: message accounting, latency percentiles and the
//! per-node load distribution.

use std::collections::BTreeMap;

use ron_core::stats;
use ron_metric::Node;

use crate::engine::{FailKind, Resolution};

/// Message-level accounting over one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Transmissions attempted.
    pub sent: u64,
    /// Messages delivered and processed.
    pub delivered: u64,
    /// Messages lost to the drop probability.
    pub dropped: u64,
    /// Messages that arrived at a crashed node.
    pub lost_to_crash: u64,
    /// Messages that arrived after their query had already resolved
    /// (publish installs after the home's ack, or arrivals racing a
    /// deadline). Processed normally; a late resolution is ignored.
    pub stale: u64,
}

/// Percentile summary of a sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Summarizes `samples` (all zeros when empty). Quantiles use the
    /// workspace-wide nearest-rank convention
    /// ([`ron_core::stats::nearest_rank`]).
    #[must_use]
    pub fn of(mut samples: Vec<f64>) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        Percentiles {
            count,
            mean: samples.iter().sum::<f64>() / count as f64,
            p50: stats::nearest_rank(&samples, 0.50),
            p90: stats::nearest_rank(&samples, 0.90),
            p99: stats::nearest_rank(&samples, 0.99),
            max: samples[count - 1],
        }
    }
}

/// Renders an optional success rate as `"87.5%"`, or `"n/a"` when there
/// were no queries to rate (shared by [`SimReport::render`] and the
/// bench tables).
#[must_use]
pub fn render_rate(rate: Option<f64>) -> String {
    rate.map_or_else(|| String::from("n/a"), |r| format!("{:.1}%", r * 100.0))
}

/// One query's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryRecord {
    /// Where the query was injected.
    pub origin: Node,
    /// Injection time.
    pub injected_at: f64,
    /// Resolution time (end of run for unresolved queries).
    pub resolved_at: f64,
    /// How it ended.
    pub resolution: Resolution,
    /// Messages delivered on behalf of this query — its hop count.
    pub hops: u32,
    /// The type ([`SimNode::gram_type`]) of the first of this query's
    /// messages that arrived at a crashed node, if one did.
    ///
    /// [`SimNode::gram_type`]: crate::SimNode::gram_type
    pub lost: Option<&'static str>,
}

/// One phase boundary recorded by `Simulator::mark_phase`: the phase
/// name, its start time, and the per-node received-message counters at
/// that instant (so phase loads can be reported as deltas).
#[derive(Clone, Debug)]
pub struct PhaseMark {
    /// Phase name.
    pub name: String,
    /// Simulated time the phase began.
    pub start: f64,
    /// Snapshot of the per-node received counters when the phase began.
    pub(crate) received_before: Vec<u64>,
}

/// Per-phase slice of a run: the queries injected during one phase and
/// the message load served during it.
#[derive(Clone, Debug)]
pub struct PhaseSummary {
    /// Phase name.
    pub name: String,
    /// Phase start time.
    pub start: f64,
    /// Start of the next phase (end of the run for the last phase).
    pub end: f64,
    /// Queries injected during the phase.
    pub queries: usize,
    /// Of those, queries that resolved as delivered (whenever they
    /// resolved — a query injected in one phase may complete in a later
    /// one; it counts for the phase that injected it).
    pub completed: usize,
    /// Per-node messages received *during* the phase (delta between the
    /// boundary snapshots).
    pub load: Percentiles,
    /// Of the phase's queries that failed, how many by kind and by the
    /// type of the message a crashed node lost ([`QueryRecord::lost`]).
    pub failures: BTreeMap<(FailKind, Option<&'static str>), usize>,
}

impl PhaseSummary {
    /// Fraction of this phase's queries that completed (`None` when the
    /// phase injected none).
    #[must_use]
    pub fn success_rate(&self) -> Option<f64> {
        if self.queries == 0 {
            None
        } else {
            Some(self.completed as f64 / self.queries as f64)
        }
    }
}

/// One window of the availability timeline: the queries injected during
/// `[start, end)` (the last bucket is closed at the run's end) and how
/// they fared, whenever they resolved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvailabilityBucket {
    /// Window start (simulated time).
    pub start: f64,
    /// Window end (simulated time).
    pub end: f64,
    /// Queries injected during the window.
    pub injected: usize,
    /// Of those, queries that resolved as delivered.
    pub completed: usize,
    /// p99 of the simulated completion latency of this window's
    /// delivered queries (0 when none completed).
    pub p99_latency: f64,
}

impl AvailabilityBucket {
    /// Fraction of the window's queries that completed (`None` when the
    /// window injected none).
    #[must_use]
    pub fn success_rate(&self) -> Option<f64> {
        if self.injected == 0 {
            None
        } else {
            Some(self.completed as f64 / self.injected as f64)
        }
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Queries injected.
    pub queries: usize,
    /// Queries that resolved as delivered.
    pub completed: usize,
    /// Message accounting.
    pub messages: MessageCounts,
    /// Simulated completion latency over delivered queries.
    pub latency: Percentiles,
    /// Hop counts over delivered queries.
    pub hops: Percentiles,
    /// Messages sent by each node.
    pub node_sent: Vec<u64>,
    /// Messages received (and processed) by each node — the serving load
    /// the §5 STRUCTURES uniform-load discussion is about.
    pub node_received: Vec<u64>,
    /// Phase boundaries recorded by `Simulator::mark_phase`, in time
    /// order (empty unless the run marked phases).
    pub phases: Vec<PhaseMark>,
    /// Per-query outcomes, in injection order.
    pub records: Vec<QueryRecord>,
    /// Order-sensitive digest of the full event trace: two runs with the
    /// same fingerprint executed byte-identical schedules.
    pub trace_fingerprint: u64,
    /// Simulated time of the last event.
    pub end_time: f64,
}

impl SimReport {
    /// Fraction of queries that completed, or `None` for a run with no
    /// queries — an empty run has no success rate, and reporting `1.0`
    /// would render as a misleading "100.0%" in every table.
    #[must_use]
    pub fn success_rate(&self) -> Option<f64> {
        if self.queries == 0 {
            None
        } else {
            Some(self.completed as f64 / self.queries as f64)
        }
    }

    /// Failure counts by kind (empty when everything completed).
    #[must_use]
    pub fn failures(&self) -> BTreeMap<FailKind, usize> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            if let Resolution::Failed(kind) = r.resolution {
                *out.entry(kind).or_insert(0) += 1;
            }
        }
        out
    }

    /// Percentile summary of the per-node received-message load.
    #[must_use]
    pub fn load_percentiles(&self) -> Percentiles {
        Percentiles::of(self.node_received.iter().map(|&c| c as f64).collect())
    }

    /// Per-phase success and load over the boundaries recorded by
    /// `Simulator::mark_phase`. Each phase covers queries injected in
    /// `[start, next start)` and the messages received between the two
    /// boundary snapshots (the last phase runs to the end of the run).
    /// Queries injected before the first mark are not covered — mark a
    /// phase at time 0 to account for everything.
    #[must_use]
    pub fn phase_breakdown(&self) -> Vec<PhaseSummary> {
        let mut out = Vec::with_capacity(self.phases.len());
        for (k, mark) in self.phases.iter().enumerate() {
            let end = self
                .phases
                .get(k + 1)
                .map_or(f64::INFINITY, |next| next.start);
            let in_phase = |r: &&QueryRecord| r.injected_at >= mark.start && r.injected_at < end;
            let queries = self.records.iter().filter(in_phase).count();
            let mut failures = BTreeMap::new();
            for r in self.records.iter().filter(in_phase) {
                if let Resolution::Failed(kind) = r.resolution {
                    *failures.entry((kind, r.lost)).or_insert(0) += 1;
                }
            }
            let completed = queries - failures.values().sum::<usize>();
            let after = self
                .phases
                .get(k + 1)
                .map_or(&self.node_received, |next| &next.received_before);
            let load = Percentiles::of(
                after
                    .iter()
                    .zip(&mark.received_before)
                    .map(|(&a, &b)| (a - b) as f64)
                    .collect(),
            );
            out.push(PhaseSummary {
                name: mark.name.clone(),
                start: mark.start,
                end: if end.is_finite() { end } else { self.end_time },
                queries,
                completed,
                load,
                failures,
            });
        }
        out
    }

    /// Renders [`phase_breakdown`](SimReport::phase_breakdown) as an
    /// aligned text block (empty string when no phases were marked).
    #[must_use]
    pub fn render_phases(&self) -> String {
        let mut out = String::new();
        for phase in self.phase_breakdown() {
            out.push_str(&format!(
                "phase {:<12} [{:>9.2}, {:>9.2})  {:>6} queries, {:>6} completed ({:>6}), load p99 {:.0} max {:.0}\n",
                phase.name,
                phase.start,
                phase.end,
                phase.queries,
                phase.completed,
                render_rate(phase.success_rate()),
                phase.load.p99,
                phase.load.max,
            ));
        }
        out
    }

    /// The per-time-bucket availability timeline: queries bucketed by
    /// injection time over `[0, end_time]` into `buckets` equal windows
    /// (at least one; the last bucket is closed so the final injection
    /// counts). Every query lands in exactly one bucket, so the injected
    /// and completed sums equal the run totals.
    ///
    /// This is the serve-during-repair measurement: with epoch
    /// publication the driver keeps injecting lookups through the
    /// coordinator's repair rounds, and the timeline shows whether (and
    /// for how long) success dipped while the epochs applied.
    #[must_use]
    pub fn availability_timeline(&self, buckets: usize) -> Vec<AvailabilityBucket> {
        let buckets = buckets.max(1);
        let span = if self.end_time > 0.0 {
            self.end_time
        } else {
            1.0
        };
        let width = span / buckets as f64;
        let mut injected = vec![0usize; buckets];
        let mut completed = vec![0usize; buckets];
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); buckets];
        for r in &self.records {
            let k = ((r.injected_at / width) as usize).min(buckets - 1);
            injected[k] += 1;
            if matches!(r.resolution, Resolution::Delivered { .. }) {
                completed[k] += 1;
                latencies[k].push(r.resolved_at - r.injected_at);
            }
        }
        (0..buckets)
            .map(|k| AvailabilityBucket {
                start: k as f64 * width,
                end: (k + 1) as f64 * width,
                injected: injected[k],
                completed: completed[k],
                p99_latency: Percentiles::of(std::mem::take(&mut latencies[k])).p99,
            })
            .collect()
    }

    /// The availability timeline with empty trailing windows removed.
    /// The run's end-of-run bookkeeping (final repair acks, deadline
    /// flushes) often pushes `end_time` well past the last injection,
    /// which would otherwise render as trailing rows of "0 injected"
    /// noise. Leading and interior empty windows are kept — a mid-run
    /// gap is signal — and at least one window always survives.
    #[must_use]
    pub fn availability_timeline_trimmed(&self, buckets: usize) -> Vec<AvailabilityBucket> {
        let mut timeline = self.availability_timeline(buckets);
        while timeline.len() > 1 && timeline.last().is_some_and(|b| b.injected == 0) {
            timeline.pop();
        }
        timeline
    }

    /// Renders the [trimmed](SimReport::availability_timeline_trimmed)
    /// availability timeline as an aligned text block, one line per
    /// bucket. Windows containing a phase boundary recorded by
    /// `Simulator::mark_phase` (a churn wave, a repair round) are
    /// annotated with the phase names, so a success-rate dip can be
    /// read against the event that caused it.
    #[must_use]
    pub fn render_availability(&self, buckets: usize) -> String {
        let timeline = self.availability_timeline_trimmed(buckets);
        let width = timeline[0].end - timeline[0].start;
        let mut marks: Vec<Vec<&str>> = vec![Vec::new(); timeline.len()];
        for mark in &self.phases {
            // Same bucketing rule as the records, clamped so marks in
            // the trimmed tail annotate the last visible window.
            let k = if width > 0.0 {
                ((mark.start / width) as usize).min(timeline.len() - 1)
            } else {
                0
            };
            marks[k].push(mark.name.as_str());
        }
        let mut out = String::new();
        for (b, names) in timeline.iter().zip(&marks) {
            out.push_str(&format!(
                "avail [{:>9.2}, {:>9.2})  {:>6} injected, {:>6} completed ({:>6}), p99 {:.3}",
                b.start,
                b.end,
                b.injected,
                b.completed,
                render_rate(b.success_rate()),
                b.p99_latency,
            ));
            if !names.is_empty() {
                out.push_str(&format!("  <- {}", names.join(", ")));
            }
            out.push('\n');
        }
        out
    }

    /// Power-of-two histogram of the per-node received-message load:
    /// bucket 0 counts idle nodes, bucket `k >= 1` counts nodes with load
    /// in `[2^(k-1), 2^k)`.
    #[must_use]
    pub fn load_histogram_pow2(&self) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        for &load in &self.node_received {
            let bucket = if load == 0 {
                0
            } else {
                64 - load.leading_zeros() as usize
            };
            if bucket >= hist.len() {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        hist
    }

    /// Renders [`load_histogram_pow2`](SimReport::load_histogram_pow2)
    /// as a compact `range:count` string, e.g. `0:12 1:30 2-3:51 4-7:9`.
    #[must_use]
    pub fn load_histogram_rendered(&self) -> String {
        self.load_histogram_pow2()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(bucket, &c)| {
                let (lo, hi) = if bucket == 0 {
                    (0u64, 0u64)
                } else {
                    (1u64 << (bucket - 1), (1u64 << bucket) - 1)
                };
                if lo == hi {
                    format!("{lo}:{c}")
                } else {
                    format!("{lo}-{hi}:{c}")
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Renders the report as an aligned text block for examples/logs.
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        let load = self.load_percentiles();
        let mut out = format!("-- {title} --\n");
        out.push_str(&format!(
            "queries   {} injected, {} completed ({})\n",
            self.queries,
            self.completed,
            render_rate(self.success_rate())
        ));
        out.push_str(&format!(
            "messages  {} sent, {} delivered, {} dropped, {} lost-to-crash, {} stale\n",
            self.messages.sent,
            self.messages.delivered,
            self.messages.dropped,
            self.messages.lost_to_crash,
            self.messages.stale
        ));
        out.push_str(&format!(
            "hops      mean {:.2}, p50 {:.0}, p99 {:.0}, max {:.0}\n",
            self.hops.mean, self.hops.p50, self.hops.p99, self.hops.max
        ));
        out.push_str(&format!(
            "latency   p50 {:.3}, p90 {:.3}, p99 {:.3}, max {:.3}\n",
            self.latency.p50, self.latency.p90, self.latency.p99, self.latency.max
        ));
        out.push_str(&format!(
            "load/node mean {:.2}, p50 {:.0}, p99 {:.0}, max {:.0}  [{}]\n",
            load.mean,
            load.p50,
            load.p99,
            load.max,
            self.load_histogram_rendered()
        ));
        for (kind, count) in self.failures() {
            out.push_str(&format!("failed    {count} x {kind:?}\n"));
        }
        out.push_str(&format!(
            "trace     {:016x} (t_end = {:.3})\n",
            self.trace_fingerprint, self.end_time
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let p = Percentiles::of((1..=100).map(f64::from).collect());
        assert_eq!(p.count, 100);
        assert!((p.mean - 50.5).abs() < 1e-12);
        // Nearest rank: ceil(q * 100) - 1. The p50 of 1..=100 is 50.
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p90, 90.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert_eq!(Percentiles::of(Vec::new()), Percentiles::default());
    }

    fn report_with_loads(loads: Vec<u64>) -> SimReport {
        SimReport {
            queries: 0,
            completed: 0,
            messages: MessageCounts::default(),
            latency: Percentiles::default(),
            hops: Percentiles::default(),
            node_sent: vec![0; loads.len()],
            node_received: loads,
            phases: Vec::new(),
            records: Vec::new(),
            trace_fingerprint: 0,
            end_time: 0.0,
        }
    }

    #[test]
    fn pow2_histogram_buckets() {
        let r = report_with_loads(vec![0, 0, 1, 2, 3, 4, 7, 8]);
        // load 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3; 8 -> 4.
        assert_eq!(r.load_histogram_pow2(), vec![2, 1, 2, 2, 1]);
        assert_eq!(r.load_histogram_rendered(), "0:2 1:1 2-3:2 4-7:2 8-15:1");
        let sum: u64 = r.load_histogram_pow2().iter().sum();
        assert_eq!(sum as usize, r.node_received.len());
    }

    #[test]
    fn render_mentions_the_title_and_counts() {
        let r = report_with_loads(vec![1, 2]);
        let text = r.render("smoke");
        assert!(text.contains("smoke"));
        assert!(text.contains("load/node"));
        assert!(text.contains("trace"));
    }

    #[test]
    fn availability_timeline_partitions_the_run() {
        let mut r = report_with_loads(vec![0, 0]);
        r.end_time = 10.0;
        let mk = |t: f64, ok: bool| QueryRecord {
            origin: Node::new(0),
            injected_at: t,
            resolved_at: t + 0.5,
            resolution: if ok {
                Resolution::Delivered {
                    at: Node::new(1),
                    detail: 0,
                }
            } else {
                Resolution::Failed(FailKind::TimedOut)
            },
            hops: 1,
            lost: None,
        };
        // 2.5 lands in bucket 0 of 4 ([0, 2.5) is half-open, [2.5, 5)
        // takes it); 10.0 (the last injection) lands in the final,
        // closed bucket.
        r.records = vec![mk(0.0, true), mk(2.5, false), mk(7.0, true), mk(10.0, true)];
        r.queries = 4;
        r.completed = 3;
        let timeline = r.availability_timeline(4);
        assert_eq!(timeline.len(), 4);
        assert_eq!(
            timeline.iter().map(|b| b.injected).sum::<usize>(),
            r.queries,
            "every query lands in exactly one bucket"
        );
        assert_eq!(timeline.iter().map(|b| b.completed).sum::<usize>(), 3);
        assert_eq!(timeline[0].injected, 1);
        assert_eq!(timeline[1].injected, 1);
        assert_eq!(timeline[1].completed, 0);
        assert_eq!(timeline[1].success_rate(), Some(0.0));
        assert_eq!(timeline[3].injected, 1, "end-of-run injection counts");
        assert_eq!(timeline[0].success_rate(), Some(1.0));
        assert!((timeline[0].p99_latency - 0.5).abs() < 1e-12);
        assert_eq!(timeline[1].p99_latency, 0.0, "no completions, no p99");
        // Degenerate shapes: zero buckets clamps to one; an empty run
        // renders a single empty window.
        assert_eq!(r.availability_timeline(0).len(), 1);
        let empty = report_with_loads(vec![0]);
        let t = empty.availability_timeline(3);
        assert!(t
            .iter()
            .all(|b| b.injected == 0 && b.success_rate().is_none()));
        let text = r.render_availability(4);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("0.0%"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn trimmed_timeline_drops_empty_tail_and_labels_phases() {
        let mut r = report_with_loads(vec![0, 0]);
        // Injections stop at t=3; the run's bookkeeping tail stretches
        // end_time to 10, which untrimmed renders as empty windows.
        r.end_time = 10.0;
        let mk = |t: f64| QueryRecord {
            origin: Node::new(0),
            injected_at: t,
            resolved_at: t + 0.5,
            resolution: Resolution::Delivered {
                at: Node::new(1),
                detail: 0,
            },
            hops: 1,
            lost: None,
        };
        r.records = vec![mk(0.5), mk(1.5), mk(3.0)];
        r.queries = 3;
        r.completed = 3;
        r.phases = vec![
            PhaseMark {
                name: String::from("wave1"),
                start: 1.0,
                received_before: vec![0, 0],
            },
            PhaseMark {
                name: String::from("repair"),
                start: 9.0,
                received_before: vec![0, 0],
            },
        ];
        assert_eq!(r.availability_timeline(10).len(), 10);
        let trimmed = r.availability_timeline_trimmed(10);
        assert_eq!(trimmed.len(), 4, "buckets past the last injection go");
        assert_eq!(trimmed.iter().map(|b| b.injected).sum::<usize>(), 3);
        let text = r.render_availability(10);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("<- wave1"), "{text}");
        assert!(
            text.lines().last().unwrap().contains("<- repair"),
            "marks in the trimmed tail clamp to the last window: {text}"
        );
        // An empty run still renders (one empty window, no panic).
        let empty = report_with_loads(vec![0]);
        assert_eq!(empty.availability_timeline_trimmed(5).len(), 1);
        assert_eq!(empty.render_availability(5).lines().count(), 1);
    }

    #[test]
    fn empty_run_has_no_success_rate() {
        let r = report_with_loads(vec![0, 0]);
        assert_eq!(r.success_rate(), None);
        assert!(
            r.render("empty").contains("0 injected, 0 completed (n/a)"),
            "an empty run must render n/a, not 100.0%"
        );
        assert_eq!(render_rate(None), "n/a");
        assert_eq!(render_rate(Some(0.875)), "87.5%");
    }
}
