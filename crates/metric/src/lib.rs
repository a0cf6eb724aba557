//! Finite metric space substrate for the rings-of-neighbors library.
//!
//! Everything in Slivkins' paper (PODC 2005) operates on a finite metric
//! space `(V, d)`, usually of low [doubling dimension]. This crate provides:
//!
//! * the [`Metric`] trait and concrete metrics: [`ExplicitMetric`],
//!   [`EuclideanMetric`], [`GridMetric`], [`LineMetric`];
//! * [`MetricIndex`]: a per-node sorted-by-distance index answering the ball
//!   queries the paper uses throughout (`B_u(r)`, ball cardinalities, and the
//!   radii `r_u(eps)` of the smallest ball around `u` holding an
//!   `eps`-fraction of the nodes);
//! * [`BallOracle`]: the pluggable ball-query backend those queries go
//!   through, with two implementations — the dense [`MetricIndex`] and the
//!   memory-sparse [`NetTreeIndex`] (`O(n log Delta)` memory, the backend
//!   that scales past ~10^4 nodes);
//! * [`Space`]: a metric bundled with a backend (`Space<M, I>`, dense by
//!   default), the common input type of the higher-level crates;
//! * [`par`]: the scoped-thread executor the construction pipeline uses
//!   for its embarrassingly-parallel loops (re-exported as
//!   `ron_core::par`; thread count overridable via `RON_THREADS`);
//! * greedy ball covers (Lemma 1.1) in [`cover`], and estimators for the
//!   doubling and grid dimensions in [`doubling`];
//! * random instance generators in [`gen`] covering both regimes the paper
//!   distinguishes: polynomial aspect ratio (cubes, grids, clustered
//!   Internet-latency-like metrics) and super-polynomial aspect ratio (the
//!   exponential line `{1, 2, 4, ..., 2^n}` from the paper's introduction).
//!
//! # Example
//!
//! ```
//! use ron_metric::{gen, Metric, Space};
//!
//! let metric = gen::uniform_cube(64, 2, 7);
//! let space = Space::new(metric);
//! let (u, v) = (ron_metric::Node::new(0), ron_metric::Node::new(1));
//! assert!(space.dist(u, v) > 0.0);
//! assert!(space.index().aspect_ratio() >= 1.0);
//! ```
//!
//! [doubling dimension]: doubling

pub mod cover;
pub mod doubling;
mod error;
mod euclidean;
mod explicit;
pub mod gen;
mod grid;
mod index;
mod line;
pub mod mem;
mod nettree;
mod node;
mod oracle;
pub mod par;
mod space;
mod traits;

pub use error::MetricError;
pub use euclidean::EuclideanMetric;
pub use explicit::ExplicitMetric;
pub use grid::GridMetric;
pub use index::{MetricIndex, SortedRow};
pub use line::LineMetric;
pub use mem::HeapBytes;
pub use nettree::NetTreeIndex;
pub use node::{CompactId, Node};
pub use oracle::BallOracle;
pub use space::Space;
pub use traits::{Metric, MetricExt};

/// Number of distance scales `ceil(log2(aspect_ratio))`, at least 1.
///
/// The paper indexes rings by `j in [log Delta]`; this helper fixes the
/// count of levels consistently across crates. The result is clamped to at
/// least 1 so degenerate (uniform) metrics still get one scale.
#[must_use]
pub fn distance_levels(aspect_ratio: f64) -> usize {
    debug_assert!(aspect_ratio >= 1.0);
    (aspect_ratio.log2().ceil() as usize).max(1)
}

/// Number of cardinality scales `ceil(log2 n)`, at least 1.
///
/// The paper indexes cardinality rings by `i in [log n]`.
#[must_use]
pub fn cardinality_levels(n: usize) -> usize {
    debug_assert!(n >= 1);
    let mut levels = 0usize;
    while (1usize << levels) < n {
        levels += 1;
    }
    levels.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_levels_basics() {
        assert_eq!(distance_levels(1.0), 1);
        assert_eq!(distance_levels(2.0), 1);
        assert_eq!(distance_levels(4.0), 2);
        assert_eq!(distance_levels(1000.0), 10);
    }

    #[test]
    fn cardinality_levels_basics() {
        assert_eq!(cardinality_levels(1), 1);
        assert_eq!(cardinality_levels(2), 1);
        assert_eq!(cardinality_levels(3), 2);
        assert_eq!(cardinality_levels(4), 2);
        assert_eq!(cardinality_levels(1024), 10);
        assert_eq!(cardinality_levels(1025), 11);
    }
}
