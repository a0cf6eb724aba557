//! The discrete-event core: event queue, node contexts and the run loop.
//!
//! A [`Simulator`] owns a fleet of [`SimNode`]s — one per metric node,
//! each holding only its local protocol slice — and a time-ordered event
//! queue. Protocol progress happens exclusively through messages: a
//! handler receives one message and a [`Ctx`], and may read *its own*
//! state, send messages, and resolve its query. The borrow checker
//! enforces the partitioning: `on_message` gets `&mut self` for exactly
//! one node's state and no route to any other node's.
//!
//! Determinism: events are ordered by `(time, sequence number)` with
//! `f64::total_cmp`, latency/drop draws are hashed from
//! `(seed, transmission counter)` rather than drawn from shared RNG
//! state, and the run loop is sequential — so for a fixed seed the full
//! trace (and its [fingerprint](Simulator::run)) is byte-identical across
//! repeated runs and across `RON_THREADS` settings used to *build* the
//! partitioned inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ron_metric::Node;

use crate::latency::{mix, unit, LatencyModel};
use crate::report::{MessageCounts, Percentiles, PhaseMark, QueryRecord, SimReport};

/// How a query ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// The protocol completed at `at` (for a lookup: the located home;
    /// for a route: the target). `detail` is driver-specific (the
    /// directory driver stores the climb level the entry was found at).
    Delivered {
        /// Node where the query completed.
        at: Node,
        /// Driver-specific detail word.
        detail: u64,
    },
    /// The protocol failed.
    Failed(FailKind),
}

/// Failure modes a query can resolve to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailKind {
    /// The query was injected at a dead node.
    OriginDown,
    /// A forwarding rule had no admissible next hop (greedy stall).
    Stalled,
    /// The per-packet hop budget ran out (routing loop).
    BudgetExhausted,
    /// A directory descent found no entry to follow.
    BrokenChain,
    /// A directory climb exhausted every ladder level.
    NotFound,
    /// The configured deadline passed before completion (lost messages
    /// or crashed relays).
    TimedOut,
    /// The run ended with the query still pending (messages lost and no
    /// timeout configured).
    Unresolved,
}

/// A node behavior: one protocol's per-node message handler.
pub trait SimNode {
    /// The protocol's message type.
    type Msg;

    /// Handles one message delivered to this node. `ctx` is the only
    /// channel to the outside world: send messages, resolve the query,
    /// query the distance oracle.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, msg: Self::Msg);

    /// A short static name for the gram (message) variant: the
    /// observability layer counts traffic by it, and a query's record
    /// names the first of its grams a crashed node lost. The default
    /// lumps everything under `"gram"`; drivers override it per variant.
    fn gram_type(_msg: &Self::Msg) -> &'static str {
        "gram"
    }
}

/// The handler-side view of the simulator during one delivery.
pub struct Ctx<'a, M> {
    me: Node,
    now: f64,
    dist: &'a dyn Fn(Node, Node) -> f64,
    outbox: Vec<(Node, M)>,
    resolution: Option<Resolution>,
}

impl<'a, M> Ctx<'a, M> {
    /// The distance oracle itself, with the simulator's lifetime — so a
    /// handler can keep using it past its borrow of the `Ctx` (the
    /// repair coordinator wraps it in a `ScanOracle` while also sending
    /// messages).
    pub fn dist_fn(&self) -> &'a dyn Fn(Node, Node) -> f64 {
        self.dist
    }
}

impl<M> Ctx<'_, M> {
    /// The node this message was delivered to.
    #[must_use]
    pub fn me(&self) -> Node {
        self.me
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The metric distance between two nodes. Geometric awareness is
    /// local knowledge in every model simulated here (Definition 5.1's
    /// strongly local rules receive distances to the target), so the
    /// oracle is exposed to handlers; protocol *state* stays partitioned.
    #[must_use]
    pub fn dist(&self, a: Node, b: Node) -> f64 {
        (self.dist)(a, b)
    }

    /// Queues a message to `to` (transmitted when the handler returns).
    pub fn send(&mut self, to: Node, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Resolves the query successfully at this node.
    pub fn complete(&mut self, at: Node, detail: u64) {
        self.resolution = Some(Resolution::Delivered { at, detail });
    }

    /// Resolves the query as failed.
    pub fn fail(&mut self, kind: FailKind) {
        self.resolution = Some(Resolution::Failed(kind));
    }
}

/// Simulator knobs beyond the latency model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed for every latency/drop draw.
    pub seed: u64,
    /// Probability that any transmission is silently lost.
    pub drop_prob: f64,
    /// Per-query deadline: queries unresolved this long after injection
    /// fail with [`FailKind::TimedOut`].
    pub timeout: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            drop_prob: 0.0,
            timeout: None,
        }
    }
}

enum EventKind<M> {
    Inject {
        origin: Node,
        qid: u32,
        msg: M,
    },
    Deliver {
        src: Node,
        dst: Node,
        qid: u32,
        msg: M,
    },
    Crash {
        node: Node,
    },
    Revive {
        node: Node,
    },
    Deadline {
        qid: u32,
    },
    Phase {
        name: String,
    },
}

struct Event<M> {
    time: f64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Time first, insertion order as the tie-break: ties at equal
        // timestamps (e.g. the zero-latency network) execute in the
        // order they were scheduled — deterministic by construction.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

struct QueryState {
    origin: Node,
    injected_at: f64,
    hops: u32,
    lost: Option<&'static str>,
    resolution: Option<(f64, Resolution)>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The deterministic discrete-event simulator over one node fleet.
///
/// Build with a fleet of per-node states (see the driver modules), a
/// distance oracle, a [`LatencyModel`] and a [`SimConfig`]; schedule
/// queries with [`inject`](Simulator::inject) and failures with
/// [`crash_at`](Simulator::crash_at); then [`run`](Simulator::run).
pub struct Simulator<'a, N: SimNode> {
    nodes: Vec<N>,
    alive: Vec<bool>,
    dist: Box<dyn Fn(Node, Node) -> f64 + 'a>,
    latency: Box<dyn LatencyModel + 'a>,
    config: SimConfig,
    heap: BinaryHeap<Reverse<Event<N::Msg>>>,
    next_seq: u64,
    draws: u64,
    now: f64,
    queries: Vec<QueryState>,
    counts: MessageCounts,
    node_sent: Vec<u64>,
    node_received: Vec<u64>,
    phase_marks: Vec<PhaseMark>,
    trace: u64,
    /// Interned label of the most recent phase mark, attached to
    /// delivery counts when observability is on. Never read by the
    /// protocol or the trace fingerprint.
    phase_label: ron_obs::Label,
}

impl<'a, N: SimNode> Simulator<'a, N> {
    /// Creates a simulator over `nodes` (index `i` is metric node `i`).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    #[must_use]
    pub fn new(
        nodes: Vec<N>,
        dist: impl Fn(Node, Node) -> f64 + 'a,
        latency: impl LatencyModel + 'a,
        config: SimConfig,
    ) -> Self {
        assert!(!nodes.is_empty(), "simulator needs at least one node");
        let n = nodes.len();
        Simulator {
            nodes,
            alive: vec![true; n],
            dist: Box::new(dist),
            latency: Box::new(latency),
            config,
            heap: BinaryHeap::new(),
            next_seq: 0,
            draws: 0,
            now: 0.0,
            queries: Vec::new(),
            counts: MessageCounts::default(),
            node_sent: vec![0; n],
            node_received: vec![0; n],
            phase_marks: Vec::new(),
            trace: FNV_OFFSET,
            phase_label: ron_obs::Label::None,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty (never true: construction panics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The (post-run) state of one node.
    #[must_use]
    pub fn node(&self, v: Node) -> &N {
        &self.nodes[v.index()]
    }

    /// Consumes the simulator, returning the node fleet — e.g. to run a
    /// lookup phase over the state a simulated publish phase installed.
    #[must_use]
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// Schedules `v` to crash at `time`: it stops receiving from that
    /// instant on. Messages already in flight *from* it still arrive.
    pub fn crash_at(&mut self, time: f64, v: Node) {
        self.post(time, EventKind::Crash { node: v });
    }

    /// Schedules `v` to come back at `time`: it receives again from that
    /// instant on, with whatever local state it held when it crashed
    /// (crash-with-rejoin) — a fresh *join* additionally resets the
    /// state through the driver's repair protocol. Messages that arrived
    /// while it was down stay lost.
    pub fn revive_at(&mut self, time: f64, v: Node) {
        self.post(time, EventKind::Revive { node: v });
    }

    /// Schedules a named phase boundary at `time`: queries injected at or
    /// after it (and before the next boundary) are grouped under `name`
    /// in [`SimReport::phase_breakdown`], and the per-node received-load
    /// counters are snapshotted when the boundary fires so each phase
    /// reports its own load distribution.
    pub fn mark_phase(&mut self, time: f64, name: impl Into<String>) {
        self.post(time, EventKind::Phase { name: name.into() });
    }

    /// Schedules a query: `msg` is handed to `origin`'s handler at
    /// `time` (a local hand-off, not a network message). Returns the
    /// query id, which indexes [`SimReport::records`] in injection order.
    pub fn inject(&mut self, time: f64, origin: Node, msg: N::Msg) -> u32 {
        self.inject_with_deadline(time, origin, msg, self.config.timeout)
    }

    /// [`inject`](Simulator::inject) with an explicit per-query deadline
    /// overriding [`SimConfig::timeout`] — `None` disables the deadline
    /// for this query (long-running control queries like a repair epoch
    /// should not time out on the lookup deadline).
    pub fn inject_with_deadline(
        &mut self,
        time: f64,
        origin: Node,
        msg: N::Msg,
        deadline: Option<f64>,
    ) -> u32 {
        let qid = self.queries.len() as u32;
        self.queries.push(QueryState {
            origin,
            injected_at: time,
            hops: 0,
            lost: None,
            resolution: None,
        });
        self.post(time, EventKind::Inject { origin, qid, msg });
        if let Some(t) = deadline {
            self.post(time + t, EventKind::Deadline { qid });
        }
        qid
    }

    fn post(&mut self, time: f64, kind: EventKind<N::Msg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    fn resolve(&mut self, qid: u32, resolution: Resolution) {
        let q = &mut self.queries[qid as usize];
        if q.resolution.is_none() {
            q.resolution = Some((self.now, resolution));
        }
    }

    fn transmit(&mut self, src: Node, dst: Node, qid: u32, msg: N::Msg) {
        self.counts.sent += 1;
        self.node_sent[src.index()] += 1;
        self.draws += 1;
        let word = mix(self.config.seed ^ mix(self.draws));
        if self.config.drop_prob > 0.0 && unit(word) < self.config.drop_prob {
            self.counts.dropped += 1;
            return;
        }
        let delay = self.latency.sample((self.dist)(src, dst), mix(word));
        self.post(self.now + delay, EventKind::Deliver { src, dst, qid, msg });
    }

    fn handle(&mut self, at: Node, qid: u32, msg: N::Msg) {
        let mut ctx = Ctx {
            me: at,
            now: self.now,
            dist: &*self.dist,
            outbox: Vec::new(),
            resolution: None,
        };
        self.nodes[at.index()].on_message(&mut ctx, msg);
        let Ctx {
            outbox, resolution, ..
        } = ctx;
        if let Some(res) = resolution {
            self.resolve(qid, res);
        }
        // A handler may both resolve and send (a publish acknowledges at
        // the home while its installs fan out).
        for (to, m) in outbox {
            self.transmit(at, to, qid, m);
        }
    }

    /// Runs the simulation to quiescence and returns the report.
    /// Queries still pending when the queue drains resolve as
    /// [`FailKind::Unresolved`]. The fleet remains inspectable through
    /// [`node`](Simulator::node) afterwards.
    pub fn run(&mut self) -> SimReport {
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.now = self.now.max(ev.time);
            // High-water mark of the event queue; purely observational
            // (gauge_max is a no-op unless the registry is enabled).
            ron_obs::gauge_max("sim.queue.depth", self.heap.len() as u64 + 1);
            match ev.kind {
                EventKind::Crash { node } => {
                    fnv(&mut self.trace, 1);
                    fnv(&mut self.trace, ev.time.to_bits());
                    fnv(&mut self.trace, node.index() as u64);
                    self.alive[node.index()] = false;
                }
                EventKind::Revive { node } => {
                    fnv(&mut self.trace, 5);
                    fnv(&mut self.trace, ev.time.to_bits());
                    fnv(&mut self.trace, node.index() as u64);
                    self.alive[node.index()] = true;
                }
                EventKind::Phase { name } => {
                    fnv(&mut self.trace, 6);
                    fnv(&mut self.trace, ev.time.to_bits());
                    for byte in name.bytes() {
                        fnv(&mut self.trace, u64::from(byte));
                    }
                    if ron_obs::enabled() {
                        // Intern once per mark, not per delivery.
                        self.phase_label = ron_obs::label(&name);
                    }
                    self.phase_marks.push(PhaseMark {
                        name,
                        start: ev.time,
                        received_before: self.node_received.clone(),
                    });
                }
                EventKind::Deadline { qid } => {
                    if self.queries[qid as usize].resolution.is_none() {
                        fnv(&mut self.trace, 2);
                        fnv(&mut self.trace, ev.time.to_bits());
                        fnv(&mut self.trace, u64::from(qid));
                        self.resolve(qid, Resolution::Failed(FailKind::TimedOut));
                    }
                }
                EventKind::Inject { origin, qid, msg } => {
                    fnv(&mut self.trace, 3);
                    fnv(&mut self.trace, ev.time.to_bits());
                    fnv(&mut self.trace, origin.index() as u64);
                    fnv(&mut self.trace, u64::from(qid));
                    if !self.alive[origin.index()] {
                        self.resolve(qid, Resolution::Failed(FailKind::OriginDown));
                        continue;
                    }
                    self.handle(origin, qid, msg);
                }
                EventKind::Deliver { src, dst, qid, msg } => {
                    fnv(&mut self.trace, 4);
                    fnv(&mut self.trace, ev.time.to_bits());
                    fnv(&mut self.trace, src.index() as u64);
                    fnv(&mut self.trace, dst.index() as u64);
                    fnv(&mut self.trace, u64::from(qid));
                    if !self.alive[dst.index()] {
                        self.counts.lost_to_crash += 1;
                        let lost = &mut self.queries[qid as usize].lost;
                        lost.get_or_insert(N::gram_type(&msg));
                        continue;
                    }
                    if self.queries[qid as usize].resolution.is_some() {
                        // Late arrival for an already-resolved query —
                        // a publish install fanning out after the home
                        // acknowledged, or a message racing a deadline.
                        // Processed normally (the receiver does its
                        // work); a second resolution would be ignored.
                        self.counts.stale += 1;
                    }
                    self.counts.delivered += 1;
                    self.node_received[dst.index()] += 1;
                    self.queries[qid as usize].hops += 1;
                    if ron_obs::enabled() {
                        ron_obs::count_labeled(
                            "sim.gram",
                            ron_obs::Label::Static(N::gram_type(&msg)),
                            1,
                        );
                        ron_obs::count_labeled("sim.deliveries", self.phase_label, 1);
                    }
                    self.handle(dst, qid, msg);
                }
            }
        }
        self.report()
    }

    fn report(&self) -> SimReport {
        let records: Vec<QueryRecord> = self
            .queries
            .iter()
            .map(|q| {
                let (resolved_at, resolution) = q
                    .resolution
                    .unwrap_or((self.now, Resolution::Failed(FailKind::Unresolved)));
                QueryRecord {
                    origin: q.origin,
                    injected_at: q.injected_at,
                    resolved_at,
                    resolution,
                    hops: q.hops,
                    lost: q.lost,
                }
            })
            .collect();
        let completed = records
            .iter()
            .filter(|r| matches!(r.resolution, Resolution::Delivered { .. }))
            .count();
        let latencies: Vec<f64> = records
            .iter()
            .filter(|r| matches!(r.resolution, Resolution::Delivered { .. }))
            .map(|r| r.resolved_at - r.injected_at)
            .collect();
        let hop_counts: Vec<f64> = records
            .iter()
            .filter(|r| matches!(r.resolution, Resolution::Delivered { .. }))
            .map(|r| f64::from(r.hops))
            .collect();
        SimReport {
            queries: records.len(),
            completed,
            messages: self.counts.clone(),
            latency: Percentiles::of(latencies),
            hops: Percentiles::of(hop_counts),
            node_sent: self.node_sent.clone(),
            node_received: self.node_received.clone(),
            phases: self.phase_marks.clone(),
            records,
            trace_fingerprint: self.trace,
            end_time: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;

    /// A toy relay protocol: forward along an explicit chain, complete at
    /// the end.
    struct Relay {
        me: Node,
        next: Option<Node>,
    }

    impl SimNode for Relay {
        type Msg = u32; // remaining hops

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, remaining: u32) {
            if remaining == 0 {
                ctx.complete(self.me, 7);
            } else if let Some(next) = self.next {
                ctx.send(next, remaining - 1);
            } else {
                ctx.fail(FailKind::Stalled);
            }
        }
    }

    fn chain(n: usize) -> Vec<Relay> {
        (0..n)
            .map(|i| Relay {
                me: Node::new(i),
                next: (i + 1 < n).then(|| Node::new(i + 1)),
            })
            .collect()
    }

    #[test]
    fn relay_chain_counts_hops_and_latency() {
        let mut sim = Simulator::new(
            chain(5),
            |_, _| 1.0,
            ConstantLatency(2.0),
            SimConfig::default(),
        );
        let qid = sim.inject(0.0, Node::new(0), 4);
        let report = sim.run();
        assert_eq!(qid, 0);
        assert_eq!(report.queries, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.messages.sent, 4);
        assert_eq!(report.messages.delivered, 4);
        let r = &report.records[0];
        assert_eq!(r.hops, 4);
        assert_eq!(
            r.resolution,
            Resolution::Delivered {
                at: Node::new(4),
                detail: 7
            }
        );
        assert!((r.resolved_at - 8.0).abs() < 1e-12);
        assert_eq!(report.node_received, vec![0, 1, 1, 1, 1]);
        assert_eq!(report.node_sent, vec![1, 1, 1, 1, 0]);
    }

    #[test]
    fn crash_loses_messages_and_query_times_out() {
        let mut sim = Simulator::new(
            chain(5),
            |_, _| 1.0,
            ConstantLatency(2.0),
            SimConfig {
                timeout: Some(100.0),
                ..SimConfig::default()
            },
        );
        sim.crash_at(3.0, Node::new(2));
        sim.inject(0.0, Node::new(0), 4);
        let report = sim.run();
        assert_eq!(report.completed, 0);
        assert_eq!(report.messages.lost_to_crash, 1);
        assert_eq!(
            report.records[0].resolution,
            Resolution::Failed(FailKind::TimedOut)
        );
        assert_eq!(report.records[0].lost, Some("gram"));
    }

    #[test]
    fn injection_at_dead_origin_fails() {
        let mut sim = Simulator::new(
            chain(3),
            |_, _| 1.0,
            ConstantLatency(1.0),
            SimConfig::default(),
        );
        sim.crash_at(0.0, Node::new(0));
        sim.inject(1.0, Node::new(0), 2);
        let report = sim.run();
        assert_eq!(
            report.records[0].resolution,
            Resolution::Failed(FailKind::OriginDown)
        );
        assert_eq!(report.messages.sent, 0);
    }

    #[test]
    fn drops_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                chain(8),
                |_, _| 1.0,
                ConstantLatency(1.0),
                SimConfig {
                    seed,
                    drop_prob: 0.5,
                    timeout: Some(50.0),
                },
            );
            for t in 0..6 {
                sim.inject(f64::from(t), Node::new(0), 7);
            }
            let r = sim.run();
            (r.trace_fingerprint, r.messages.dropped, r.completed)
        };
        assert_eq!(run(11), run(11));
        let (_, dropped, completed) = run(11);
        assert!(dropped > 0, "p = 0.5 over ~42 sends must drop something");
        assert!(completed < 6, "a dropped relay message kills its query");
        assert_ne!(run(11).0, run(12).0, "different seed, different trace");
    }

    #[test]
    fn unresolved_without_timeout_is_reported() {
        let mut sim = Simulator::new(
            chain(3),
            |_, _| 1.0,
            ConstantLatency(1.0),
            SimConfig {
                drop_prob: 1.0,
                ..SimConfig::default()
            },
        );
        sim.inject(0.0, Node::new(0), 2);
        let report = sim.run();
        assert_eq!(
            report.records[0].resolution,
            Resolution::Failed(FailKind::Unresolved)
        );
        assert_eq!(report.messages.dropped, 1);
    }

    #[test]
    fn revive_restores_delivery() {
        let mut sim = Simulator::new(
            chain(3),
            |_, _| 1.0,
            ConstantLatency(1.0),
            SimConfig::default(),
        );
        sim.crash_at(0.0, Node::new(1));
        sim.inject(1.0, Node::new(0), 2); // relay dies at node 1
        sim.revive_at(5.0, Node::new(1));
        sim.inject(6.0, Node::new(0), 2); // full chain again
        let report = sim.run();
        assert_eq!(report.completed, 1);
        assert_eq!(report.messages.lost_to_crash, 1);
        assert_eq!(
            report.records[1].resolution,
            Resolution::Delivered {
                at: Node::new(2),
                detail: 7
            }
        );
    }

    #[test]
    fn explicit_deadline_overrides_the_config_timeout() {
        let mut sim = Simulator::new(
            chain(3),
            |_, _| 1.0,
            ConstantLatency(1.0),
            SimConfig {
                drop_prob: 1.0,
                timeout: Some(5.0),
                ..SimConfig::default()
            },
        );
        sim.inject(0.0, Node::new(0), 2);
        sim.inject_with_deadline(0.0, Node::new(0), 2, None);
        let report = sim.run();
        assert_eq!(
            report.records[0].resolution,
            Resolution::Failed(FailKind::TimedOut)
        );
        assert_eq!(
            report.records[1].resolution,
            Resolution::Failed(FailKind::Unresolved),
            "a deadline-free query must not inherit the config timeout"
        );
    }

    #[test]
    fn phases_partition_queries_and_load() {
        let mut sim = Simulator::new(
            chain(5),
            |_, _| 1.0,
            ConstantLatency(1.0),
            SimConfig::default(),
        );
        sim.mark_phase(0.0, "warm");
        sim.mark_phase(10.0, "steady");
        sim.inject(0.0, Node::new(0), 4); // 4 deliveries, completes
        sim.inject(12.0, Node::new(0), 2); // 2 deliveries, completes
        sim.inject(13.0, Node::new(0), 9); // 4 deliveries, stalls at the end
        let report = sim.run();
        let phases = report.phase_breakdown();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "warm");
        assert_eq!((phases[0].queries, phases[0].completed), (1, 1));
        assert_eq!(phases[0].success_rate(), Some(1.0));
        assert_eq!(phases[1].name, "steady");
        assert_eq!((phases[1].queries, phases[1].completed), (2, 1));
        let stalled = std::collections::BTreeMap::from([((FailKind::Stalled, None), 1)]);
        assert_eq!(phases[1].failures, stalled);
        // Loads are per-phase deltas: 4 deliveries before t = 10, the
        // other 6 after.
        let total = |p: &crate::report::PhaseSummary| p.load.mean * p.load.count as f64;
        assert!((total(&phases[0]) - 4.0).abs() < 1e-9);
        assert!((total(&phases[1]) - 6.0).abs() < 1e-9);
        assert!(report.render_phases().contains("steady"));
        // Phase marks change the trace (they are events).
        assert_eq!(report.phases.len(), 2);
    }

    #[test]
    fn stall_resolves_as_failure() {
        // Node 2 has no next pointer but the packet wants more hops.
        let mut sim = Simulator::new(
            chain(3),
            |_, _| 1.0,
            ConstantLatency(1.0),
            SimConfig::default(),
        );
        sim.inject(0.0, Node::new(0), 9);
        let report = sim.run();
        assert_eq!(
            report.records[0].resolution,
            Resolution::Failed(FailKind::Stalled)
        );
    }
}
