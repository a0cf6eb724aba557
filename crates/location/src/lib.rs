//! Object location over rings of neighbors — the serving half of
//! Slivkins (PODC 2005).
//!
//! The paper's title promises *distance estimation and object location*;
//! the sibling crates reproduce the estimation half (labels, routing,
//! small worlds). This crate turns the same static structures — the
//! nested net ladder of `ron-nets` and the net rings of `ron-core` — into
//! an object-location *system*:
//!
//! * [`DirectoryOverlay`]: a publish/lookup directory. `publish(obj, h)`
//!   installs pointers on the rings `B_h(c r_j) ∩ G_j` up the ladder,
//!   each pointing down the home's zooming sequence
//!   ([`ron_core::zoom`]); `lookup(s, obj)` climbs the origin's fingers
//!   and descends the chain, with constant worst-case stretch on static
//!   instances (tests pin 18);
//! * **dynamics** ([`churn`]): `join` / `leave` with incremental
//!   net-membership and directory-pointer [`DirectoryOverlay::repair`];
//! * **serving** ([`engine`]): a `std::thread` worker pool over owned,
//!   epoch-stamped [`Snapshot`]s published through an [`EpochCell`] —
//!   repairs build successor state off to the side and swap it in
//!   atomically, so lookups proceed at full rate *through* churn and
//!   repair — with a sharded, epoch-tagged LRU result cache, reporting
//!   throughput, p50/p99 latency and hops/stretch
//!   ([`ron_core::stats::PathStats`]).

pub mod authority;
pub mod churn;
mod directory;
pub mod engine;
mod lookup;
mod partition;
mod publish;
pub mod stats;
mod tables;

pub use authority::{NodeRepair, PointerOp, RepairAuthority, RepairOracle, RepairPlan, ScanOracle};
pub use churn::RepairReport;
pub use directory::{DirectoryOverlay, ObjectId, DEFAULT_RING_FACTOR};
pub use engine::{EngineConfig, QueryEngine, Snapshot};
pub use lookup::{LocateError, LookupOutcome, WalkStep};
pub use partition::DirectoryNodeState;
pub use ron_core::publish::{EpochCell, Published};
pub use stats::{BatchReport, LatencySummary};
