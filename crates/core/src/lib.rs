//! Rings of neighbors — the unifying technique of Slivkins (PODC 2005).
//!
//! Every construction in the paper stores, at each node `u`, pointers to
//! some nodes ("neighbors") partitioned into *rings*: for an increasing
//! sequence of balls `{B_i}` around `u`, the `i`-ring neighbors lie inside
//! `B_i`. The radii and the selection rule vary per application:
//!
//! * **net rings** (`Y`-type): `Y_uj = B_u(r_j) ∩ G_j` for a net ladder
//!   `{G_j}` — Theorems 2.1, 3.2, 4.1;
//! * **cardinality rings** (`X`-type): uniform samples from the smallest
//!   ball holding `n/2^i` nodes, or representatives of an
//!   `(eps, mu)`-packing — Theorems 3.2 and 5.2;
//! * **measure rings**: samples drawn proportionally to a doubling measure
//!   from balls of geometric radii — Section 5.
//!
//! This crate provides the shared machinery:
//!
//! * [`RingFamily`] / [`RingView`]: the per-node partitioned pointer sets
//!   with degree statistics and overlay-graph export;
//! * [`Enumeration`] and [`TranslationFn`]: the *host/virtual enumeration*
//!   trick that replaces `ceil(log n)`-bit global identifiers with
//!   `log K`-bit local indices (proofs of Theorems 2.1 and 3.4);
//! * [`zoom`]: zooming sequences — per-target chains of net points whose
//!   distance to the target shrinks geometrically;
//! * [`bits`]: bit-size accounting for tables, labels and headers, so the
//!   benchmarks report the storage the paper's encodings would use;
//! * [`stats`]: the shared nearest-rank quantile every report summarizes
//!   with, and the [`stats::PathStats`] hops/stretch accounting of routes
//!   and lookups;
//! * [`publish`]: the epoch-stamped publication cell ([`publish::EpochCell`])
//!   behind serve-during-repair — writers build successor state off to the
//!   side and swap it in atomically, readers clone an `Arc` and keep
//!   serving;
//! * [`par`]: the scoped-thread executor behind every parallel
//!   construction loop (re-exported from `ron-metric`, where it lives so
//!   the index builds can use it too; `RON_THREADS` overrides the worker
//!   count).

pub mod bits;
mod enumeration;
pub mod publish;
pub mod rings;
pub mod stats;
pub mod zoom;

pub use enumeration::{Enumeration, TranslationFn};
pub use rings::{RingFamily, RingView};
pub use ron_metric::par;
