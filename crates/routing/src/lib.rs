//! (1+delta)-stretch compact routing schemes on doubling graphs and
//! metrics (Theorems 2.1, 4.1 and 4.2/B.1 of Slivkins, PODC 2005).
//!
//! Three schemes, sharing the rings-of-neighbors machinery:
//!
//! * [`BasicScheme`] (**Theorem 2.1**): the short re-derivation of Chan,
//!   Gupta, Maggs & Zhou — net rings `Y_uj = B_u(r_j) ∩ G_j` at every
//!   distance scale, zooming sequences as routing labels, host
//!   enumerations plus translation functions instead of global ids, and
//!   first-hop pointers connecting virtual links to graph edges. Tables
//!   cost `(1/delta)^O(alpha) (log Delta)(log Dout)` bits;
//! * [`SimpleScheme`] (**Theorem 4.1**): distance labels (Theorem 3.4) as
//!   a black box — each node stores labels of its net neighbors and greedily
//!   forwards towards the neighbor whose label looks closest to the target;
//! * [`TwoModeScheme`] (**Theorem 4.2 / B.1**): the large-aspect-ratio
//!   scheme; mode M1 zooms in via *landmarks* and *good nodes*, and when
//!   M1 runs out of resolution, mode M2 routes through a dense packing
//!   ball whose members collectively store routes to everything nearby
//!   (ID-range trees plus source routes along APSP first hops).
//!
//! Each scheme exposes [`route`](BasicScheme::route)-style simulation that
//! uses only the current node's table and the packet header (locality is
//! structural: the simulator has no other inputs), plus bit-level storage
//! reports matching the paper's encodings. [`FullTableBaseline`] is the
//! trivial stretch-1 scheme whose `Omega(n log n)`-bit tables motivate the
//! whole line of work. Section 4.1's routing-on-metrics variants are the
//! same constructions with virtual links priced as overlay edges; see
//! each scheme's `overlay_*` methods.

mod baseline;
mod basic;
pub mod scheme;
mod simple;
mod twomode;

pub use baseline::FullTableBaseline;
pub use basic::{BasicLabel, BasicScheme};
pub use scheme::{over_all_pairs, RouteError, RouteTrace};
pub use simple::SimpleScheme;
pub use twomode::{TwoModeScheme, TwoModeStats};
