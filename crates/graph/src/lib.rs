//! Weighted graph substrate for the rings-of-neighbors library.
//!
//! The routing results of the paper (Theorems 2.1, 4.1, 4.2/B.1) are stated
//! for weighted undirected graphs whose shortest-path metric is doubling
//! ("doubling graphs"). This crate provides:
//!
//! * [`Graph`]: a compact adjacency (CSR) weighted graph with stable
//!   per-node out-link indices — the paper's first-hop pointers are indices
//!   into this enumeration and cost `ceil(log2 Dout)` bits each;
//! * [`dijkstra`]: single-source shortest paths with parent and first-hop
//!   tracking;
//! * [`Apsp`]: all-pairs shortest paths plus the *first-hop matrix* that
//!   the routing schemes use as their only interface to the graph, and a
//!   conversion of the shortest-path metric into an
//!   [`ExplicitMetric`](ron_metric::ExplicitMetric);
//! * [`IdRangeTree`]: the ID-range labeled shortest-path tree used in
//!   routing mode M2 of Theorem B.1;
//! * [`gen`]: graph generators (grids, k-NN geometric graphs, exponential
//!   paths, rings with chords) for the experiment families.
//!
//! # Example
//!
//! ```
//! use ron_graph::{gen, Apsp};
//! use ron_metric::Node;
//!
//! let g = gen::grid_graph(4, 2);
//! let apsp = Apsp::compute(&g);
//! assert_eq!(apsp.dist(Node::new(0), Node::new(15)), 6.0);
//! ```

mod apsp;
mod csr;
pub mod dijkstra;
pub mod gen;
mod sptree;

pub use apsp::Apsp;
pub use csr::{Graph, GraphBuilder, GraphError};
pub use sptree::{IdRangeTree, RangeStep};
