//! The trivial stretch-1 routing scheme (full shortest-path tables).
//!
//! Every node stores a first-hop pointer for all `n - 1` targets:
//! `Omega(n log n)` bits per table, stretch exactly 1. This is the
//! baseline whose storage cost motivates compact routing (Section 1), and
//! the benchmarks print it alongside Theorems 2.1/4.1/B.1.

use ron_core::bits::{id_bits, index_bits, SizeReport};
use ron_graph::{Apsp, Graph};
use ron_metric::Node;

use crate::scheme::{RouteError, RouteTrace};

/// Full-table routing: per-target first-hop pointers at every node.
///
/// # Example
///
/// ```
/// use ron_graph::{gen, Apsp};
/// use ron_metric::Node;
/// use ron_routing::FullTableBaseline;
///
/// let graph = gen::grid_graph(3, 2);
/// let apsp = Apsp::compute(&graph);
/// let baseline = FullTableBaseline::build(&graph, &apsp);
/// let trace = baseline.route(&graph, Node::new(0), Node::new(8))?;
/// assert_eq!(trace.length, 4.0); // stretch exactly 1
/// # Ok::<(), ron_routing::RouteError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FullTableBaseline {
    n: usize,
    dout: usize,
    /// `slots[u * n + v]` = first-hop slot at `u` towards `v`.
    slots: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl FullTableBaseline {
    /// Snapshots the APSP first-hop matrix.
    #[must_use]
    pub fn build(graph: &Graph, apsp: &Apsp) -> Self {
        let n = graph.len();
        let mut slots = vec![NO_SLOT; n * n];
        for i in 0..n {
            for j in 0..n {
                if let Some(s) = apsp.first_hop_slot(Node::new(i), Node::new(j)) {
                    slots[i * n + j] = s;
                }
            }
        }
        FullTableBaseline {
            n,
            dout: graph.max_out_degree(),
            slots,
        }
    }

    /// Routes with stretch exactly 1 by following stored first hops.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NoDecision`] if the target is unreachable.
    pub fn route(&self, graph: &Graph, src: Node, tgt: Node) -> Result<RouteTrace, RouteError> {
        let mut path = vec![src];
        let mut length = 0.0;
        let mut cur = src;
        while cur != tgt {
            let slot = self.slots[cur.index() * self.n + tgt.index()];
            if slot == NO_SLOT {
                return Err(RouteError::NoDecision {
                    at: cur,
                    reason: "target unreachable",
                });
            }
            let (next, w) = graph.link(cur, slot as usize);
            length += w;
            cur = next;
            path.push(cur);
            if path.len() > self.n {
                return Err(RouteError::HopBudgetExceeded {
                    stuck_at: cur,
                    budget: self.n,
                });
            }
        }
        Ok(RouteTrace { path, length })
    }

    /// Table size: `(n - 1)` first-hop pointers (the trivial scheme's
    /// `Omega(n log n)`-ish cost; pointers are `ceil(log Dout)` bits, and
    /// the table is indexed by target id).
    #[must_use]
    pub fn table_bits(&self) -> SizeReport {
        let mut report = SizeReport::new("full-table baseline");
        report.add(
            "first-hop pointers",
            (self.n as u64 - 1) * index_bits(self.dout),
        );
        report.add("node id", id_bits(self.n));
        report
    }

    /// Header size: just the target id.
    #[must_use]
    pub fn header_bits(&self) -> u64 {
        id_bits(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::over_all_pairs;
    use ron_graph::gen;

    #[test]
    fn stretch_is_exactly_one() {
        let graph = gen::grid_graph(4, 2);
        let apsp = Apsp::compute(&graph);
        let baseline = FullTableBaseline::build(&graph, &apsp);
        let stats = over_all_pairs(&graph, &apsp, |u, v| baseline.route(&graph, u, v)).unwrap();
        assert!((stats.max_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_grows_linearly_with_n() {
        let small = {
            let g = gen::grid_graph(3, 2);
            FullTableBaseline::build(&g, &Apsp::compute(&g))
                .table_bits()
                .total_bits()
        };
        let big = {
            let g = gen::grid_graph(6, 2);
            FullTableBaseline::build(&g, &Apsp::compute(&g))
                .table_bits()
                .total_bits()
        };
        // 9 -> 36 nodes: tables grow ~4x.
        assert!(big >= small * 3);
    }

    #[test]
    fn unreachable_is_reported() {
        use ron_graph::GraphBuilder;
        let mut b = GraphBuilder::new(3);
        b.add_undirected(Node::new(0), Node::new(1), 1.0).unwrap();
        let graph = b.build();
        let apsp = Apsp::compute(&graph);
        let baseline = FullTableBaseline::build(&graph, &apsp);
        assert!(matches!(
            baseline.route(&graph, Node::new(0), Node::new(2)),
            Err(RouteError::NoDecision { .. })
        ));
    }
}
