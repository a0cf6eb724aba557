//! Searchable small-world networks on doubling metrics
//! (Section 5 of Slivkins, PODC 2005).
//!
//! A *small-world model* (Definition 5.1) is a random contact graph plus a
//! **strongly local** routing algorithm: the next hop is chosen among the
//! current node's contacts using only distances to the contacts and from
//! the contacts to the target. This crate implements:
//!
//! * [`GreedyModel`] (**Theorem 5.2(a)**): X-type contacts (uniform in the
//!   cardinality balls `B_ui`) plus Y-type contacts (doubling-measure
//!   samples in radius balls `B_u(2^j)`); greedy routing reaches any
//!   target in `O(log n)` hops w.h.p. — even when the aspect ratio is
//!   exponential, where plain distance-halving needs `Theta(log Delta)`;
//! * [`PrunedModel`] (**Theorem 5.2(b)**): prunes the Y rings to the
//!   radius window `(r_(u,i+1), r_(u,i-1))` around each cardinality scale
//!   (about `sqrt(log Delta) log log Delta` of them) and adds Z-type
//!   contacts sampled from annuli at radii `2^((1+1/x)^j)`,
//!   `x = sqrt(log Delta)`; routing is greedy unless no contact lands
//!   within `d/4` of the target, in which case the *non-greedy step* (**)
//!   jumps to the farthest contact not beyond the target distance — the
//!   first non-greedy strongly local routing rule in the literature;
//! * [`SingleLinkModel`] (**Theorem 5.5**): a local-contact graph plus
//!   exactly one long-range contact per node; greedy completes in
//!   `2^O(alpha) log^2 Delta` hops;
//! * [`KleinbergGrid`]: Kleinberg's original 2-D grid model \[30] (inverse
//!   square long-range distribution), the baseline Section 5 generalizes;
//! * [`Structures`]: Kleinberg's group-structure model \[32] instantiated
//!   on metric balls (`pi_u(v) ~ 1/x_uv`), which Theorem 5.4 shows our
//!   models match on UL-constrained metrics.
//!
//! All constructions are deterministic in their seed; hop-count
//! experiments are exact re-runs of the theorems' statements.

mod greedy_model;
mod kleinberg;
pub mod model;
mod pruned_model;
mod sample;
mod single_link;
mod structures;

pub use greedy_model::GreedyModel;
pub use kleinberg::KleinbergGrid;
pub use model::{ContactGraph, QueryOutcome, QueryStats};
pub use pruned_model::PrunedModel;
pub use single_link::SingleLinkModel;
pub use structures::Structures;
