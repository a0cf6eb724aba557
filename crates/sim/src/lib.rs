//! Deterministic message-passing simulation of the rings-of-neighbors
//! protocols — the paper's claims, finally exercised as a *distributed
//! system*.
//!
//! Every other crate in this workspace executes the constructions as
//! in-process function calls over shared structures; this crate runs
//! them as fleets of nodes that own **only their local slice** of state
//! and make progress exclusively through typed point-to-point messages:
//!
//! * [`engine`]: a seeded discrete-event [`Simulator`] — events ordered
//!   by `(time, seq)`, latency and drop draws hashed from the seed, a
//!   sequential run loop — so for a fixed seed the full event trace (and
//!   its fingerprint) is byte-identical across repeated runs and across
//!   the `RON_THREADS` setting used to build the inputs;
//! * [`latency`]: pluggable [`LatencyModel`]s — constant,
//!   metric-proportional, lognormal jitter — plus message drops,
//!   per-query timeouts and mid-flight crash injection
//!   ([`Simulator::crash_at`]);
//! * protocol drivers over per-node state extracted by the `partition()`
//!   constructors of the structure crates: greedy small-world forwarding
//!   ([`greedy`]; Theorem 5.2 hops become message chains) and the
//!   object-location directory ([`directory`]; publish fan-out, finger
//!   climb and zoom descent as message rounds);
//! * [`churn`]: churn schedules (leaves, fresh joins, crash-with-rejoin)
//!   injected at simulated times, with repair epochs running as message
//!   rounds through a coordinator that carries the directory's control
//!   plane — zero-latency failure-free repair is property-tested equal
//!   to the in-process `DirectoryOverlay::repair`, down to every alive
//!   node's slice;
//! * [`report`]: a [`SimReport`] with message counts, hop statistics,
//!   simulated-latency percentiles, the **per-node message-load
//!   histogram** — the quantity the §5 STRUCTURES uniform-load
//!   discussion is about, measured rather than asserted — per-phase
//!   success/load breakdowns over marked phase boundaries, and a
//!   per-time-bucket availability timeline
//!   ([`SimReport::availability_timeline`]) measuring lookup success and
//!   p99 latency *through* churn waves and repair epochs (the
//!   serve-during-repair number).
//!
//! For zero-latency, failure-free configurations every driver is
//! property-tested to reproduce its in-process twin exactly (answers,
//! hop counts, found levels) on all four instance families.
//!
//! # Example
//!
//! ```
//! use ron_location::{DirectoryOverlay, ObjectId};
//! use ron_metric::{gen, Node, Space};
//! use ron_sim::directory::{DirectoryMsg, DirectoryNode};
//! use ron_sim::{MetricLatency, SimConfig, Simulator};
//!
//! let space = Space::new(gen::uniform_cube(64, 2, 7));
//! let mut overlay = DirectoryOverlay::build(&space);
//! overlay.publish(&space, ObjectId(1), Node::new(9));
//! let mut sim = Simulator::new(
//!     DirectoryNode::fleet(&space, &overlay),
//!     |u, v| space.dist(u, v),
//!     MetricLatency { scale: 1.0, floor: 0.1 },
//!     SimConfig::default(),
//! );
//! sim.inject(0.0, Node::new(40), DirectoryMsg::Lookup { obj: ObjectId(1) });
//! let report = sim.run();
//! assert_eq!(report.completed, 1);
//! assert!(report.messages.sent as usize >= report.records[0].hops as usize);
//! ```

pub mod churn;
pub mod directory;
pub mod engine;
pub mod greedy;
pub mod latency;
pub mod report;

pub use churn::{ChurnEvent, ChurnSchedule};

pub use engine::{Ctx, FailKind, Resolution, SimConfig, SimNode, Simulator};
pub use latency::{ConstantLatency, LatencyModel, LognormalLatency, MetricLatency};
pub use report::{
    render_rate, AvailabilityBucket, MessageCounts, Percentiles, PhaseMark, PhaseSummary,
    QueryRecord, SimReport,
};
