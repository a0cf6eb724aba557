//! Theorem 4.1: the "really simple" (1+delta)-stretch routing scheme that
//! uses distance labels as a black box.
//!
//! Fix a 3/2-approximate, non-contracting distance labeling (Theorem 3.4
//! with an internal `delta` small enough; our labels over-estimate by
//! construction, so non-contraction is structural). For each scale `j`, a
//! node's *`j`-level neighbors* are the net points `F_j(u) = B_u(2^(j+2)/
//! delta) ∩ F_j`. The routing table stores each neighbor's *label* and a
//! first-hop pointer; a packet header carries the target's label and the
//! current intermediate target's id. The current intermediate target
//! selects the neighbor whose label-distance to the target is smallest,
//! which is within `(3/2) delta d` of the target — geometric progress
//! without any of Theorem 2.1's translation machinery.

use ron_core::bits::{id_bits, index_bits, SizeReport};
use ron_graph::{Apsp, Graph};
use ron_labels::{CompactScheme, NeighborSystem};
use ron_metric::{distance_levels, BallOracle, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::scheme::{RouteError, RouteTrace};

/// Internal DLS parameter: estimates inflate by at most
/// `(1 + 2*0.125)(1 + 0.125) ~ 1.41 <= 3/2`, the approximation Theorem 4.1
/// asks of its black-box labels.
const DLS_DELTA: f64 = 0.125;

/// The Theorem 4.1 routing scheme.
///
/// # Example
///
/// ```
/// use ron_graph::{gen, Apsp};
/// use ron_metric::{Node, Space};
/// use ron_routing::SimpleScheme;
///
/// let graph = gen::grid_graph(4, 2);
/// let apsp = Apsp::compute(&graph);
/// let space = Space::new(apsp.to_metric()?);
/// let scheme = SimpleScheme::build(&space, &graph, &apsp, 0.25);
/// let trace = scheme.route(&graph, Node::new(0), Node::new(15))?;
/// assert!(trace.length <= apsp.dist(Node::new(0), Node::new(15)) * 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SimpleScheme {
    delta: f64,
    n: usize,
    dout: usize,
    num_scales: usize,
    dls: CompactScheme,
    /// Per node: sorted list of distinct neighbors across levels, with
    /// first-hop slots (None in overlay mode or for self).
    neighbors: Vec<Vec<(Node, Option<u32>)>>,
    /// Largest per-node neighbor count.
    max_degree: usize,
}

impl SimpleScheme {
    /// Builds the scheme for a connected weighted graph; `space` must be
    /// its shortest-path metric.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)` or arities mismatch.
    #[must_use]
    pub fn build<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        graph: &Graph,
        apsp: &Apsp,
        delta: f64,
    ) -> Self {
        Self::build_inner(space, Some((graph, apsp)), delta)
    }

    /// Builds the overlay variant (routing on a metric, Section 4.1):
    /// virtual links replace first-hop pointers.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)`.
    #[must_use]
    pub fn build_overlay<M: Metric, I: BallOracle>(space: &Space<M, I>, delta: f64) -> Self {
        Self::build_inner(space, None, delta)
    }

    fn build_inner<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        graph: Option<(&Graph, &Apsp)>,
        delta: f64,
    ) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let n = space.len();
        if let Some((g, _)) = graph {
            assert_eq!(g.len(), n, "graph/space arity mismatch");
        }
        // Black-box distance labels at fixed internal precision.
        let system = NeighborSystem::build(space, DLS_DELTA);
        let dls = CompactScheme::from_system(space, &system);

        let nets = NestedNets::build(space);
        let min_dist = space.index().min_distance();
        let num_scales = distance_levels(space.index().aspect_ratio()) + 1;
        let mut max_degree = 0usize;
        let neighbors: Vec<Vec<(Node, Option<u32>)>> = space
            .nodes()
            .map(|u| {
                let mut all: Vec<Node> = Vec::new();
                for j in 0..num_scales {
                    // F_j = 2^j-net; r_j = 2^(j+2)/delta (normalized by the
                    // minimum distance).
                    let level = j.min(nets.levels() - 1);
                    let r = min_dist * (2.0f64).powi(j as i32 + 2) / delta;
                    all.extend(nets.net(level).members_in_ball(space, u, r));
                }
                all.sort_unstable();
                all.dedup();
                max_degree = max_degree.max(all.len());
                all.into_iter()
                    .map(|v| {
                        let hop = graph.and_then(|(_, apsp)| apsp.first_hop_slot(u, v));
                        (v, hop)
                    })
                    .collect()
            })
            .collect();

        let dout = graph.map_or(0, |(g, _)| g.max_out_degree());
        SimpleScheme {
            delta,
            n,
            dout,
            num_scales,
            dls,
            neighbors,
            max_degree,
        }
    }

    /// The construction parameter `delta`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the scheme is empty (never by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Largest per-node neighbor count (the §4.1 overlay out-degree).
    #[must_use]
    pub fn overlay_out_degree(&self) -> usize {
        self.max_degree.saturating_sub(1)
    }

    /// Theorem 4.1's forwarding rule at node `u`: among `u`'s neighbors
    /// other than `u`, the one whose stored label's distance estimate to
    /// `tgt`'s label is smallest, ties by node id. Uses labels only.
    fn select_intermediate(&self, u: Node, tgt: Node) -> Option<Node> {
        let estimator = self.dls.estimator();
        let target = self.dls.label(tgt);
        self.neighbors[u.index()]
            .iter()
            .filter(|&&(v, _)| v != u)
            .map(|&(v, _)| (estimator.estimate(self.dls.label(v), target), v))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, v)| v)
    }

    /// Routes a packet over the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the packet loops or an intermediate target is
    /// not a neighbor of a node on its path (broken invariant).
    pub fn route(&self, graph: &Graph, src: Node, tgt: Node) -> Result<RouteTrace, RouteError> {
        assert_eq!(graph.len(), self.n, "graph/scheme arity mismatch");
        let budget = (self.n + 2) * (self.num_scales + 2);
        let mut path = vec![src];
        let mut length = 0.0;
        let mut cur = src;
        let mut intermediate: Option<Node> = None;
        while cur != tgt {
            if path.len() > budget {
                return Err(RouteError::HopBudgetExceeded {
                    stuck_at: cur,
                    budget,
                });
            }
            let t_prime = match intermediate {
                Some(t_prime) if t_prime != cur => t_prime,
                _ => {
                    let Some(v) = self.select_intermediate(cur, tgt) else {
                        return Err(RouteError::NoDecision {
                            at: cur,
                            reason: "no neighbor to select as intermediate target",
                        });
                    };
                    intermediate = Some(v);
                    v
                }
            };
            let Some(&(_, slot)) = self.neighbors[cur.index()]
                .iter()
                .find(|&&(v, _)| v == t_prime)
            else {
                return Err(RouteError::NoDecision {
                    at: cur,
                    reason: "intermediate target is not a neighbor (invariant broken)",
                });
            };
            let Some(slot) = slot else {
                return Err(RouteError::NoDecision {
                    at: cur,
                    reason: "missing first-hop pointer",
                });
            };
            let (next, w) = graph.link(cur, slot as usize);
            length += w;
            cur = next;
            path.push(cur);
        }
        Ok(RouteTrace { path, length })
    }

    /// Routes over the overlay (Section 4.1): every leg is one virtual
    /// link straight to the selected intermediate target.
    ///
    /// # Errors
    ///
    /// Returns an error if the packet loops (construction broken).
    pub fn route_overlay<M: Metric, I>(
        &self,
        space: &Space<M, I>,
        src: Node,
        tgt: Node,
    ) -> Result<RouteTrace, RouteError> {
        assert_eq!(space.len(), self.n, "space/scheme arity mismatch");
        let budget = 4 * (self.num_scales + 4);
        let mut path = vec![src];
        let mut length = 0.0;
        let mut cur = src;
        while cur != tgt {
            if path.len() > budget {
                return Err(RouteError::HopBudgetExceeded {
                    stuck_at: cur,
                    budget,
                });
            }
            let Some(v) = self.select_intermediate(cur, tgt) else {
                return Err(RouteError::NoDecision {
                    at: cur,
                    reason: "no neighbor to select as intermediate target",
                });
            };
            length += space.dist(cur, v);
            cur = v;
            path.push(cur);
        }
        Ok(RouteTrace { path, length })
    }

    /// Routing-table bits: every neighbor's distance label plus a
    /// first-hop pointer.
    #[must_use]
    pub fn table_bits(&self, u: Node) -> SizeReport {
        let mut report = SizeReport::new(format!("simple table of {u}"));
        let mut label_bits = 0u64;
        for &(v, _) in &self.neighbors[u.index()] {
            label_bits += self.dls.label_bits(v).total_bits();
        }
        report.add("neighbor labels", label_bits);
        if self.dout > 0 {
            report.add(
                "first-hop pointers",
                self.neighbors[u.index()].len() as u64 * index_bits(self.dout),
            );
        }
        report.add("node id", id_bits(self.n));
        report
    }

    /// Largest routing table over all nodes, in bits.
    #[must_use]
    pub fn max_table_bits(&self) -> u64 {
        (0..self.n)
            .map(|i| self.table_bits(Node::new(i)).total_bits())
            .max()
            .unwrap_or(0)
    }

    /// Packet-header bits: the target's distance label plus the
    /// intermediate target id.
    #[must_use]
    pub fn header_bits(&self) -> u64 {
        self.dls.max_label_bits() + id_bits(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::over_all_pairs;
    use ron_graph::gen;
    use ron_metric::LineMetric;

    #[test]
    fn delivers_all_pairs_on_grid() {
        let graph = gen::grid_graph(4, 2);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = SimpleScheme::build(&space, &graph, &apsp, 0.25);
        let stats = over_all_pairs(&graph, &apsp, |u, v| scheme.route(&graph, u, v)).unwrap();
        assert_eq!(stats.count, 16 * 15);
        // Each intermediate leg may add (3/2) delta; allow generous slack.
        assert!(
            stats.max_stretch <= 1.0 + 8.0 * 0.25,
            "stretch {}",
            stats.max_stretch
        );
    }

    #[test]
    fn delivers_on_knn_graph() {
        let (graph, _) = gen::knn_geometric(32, 2, 3, 5);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = SimpleScheme::build(&space, &graph, &apsp, 0.25);
        let stats = over_all_pairs(&graph, &apsp, |u, v| scheme.route(&graph, u, v)).unwrap();
        assert!(stats.max_stretch <= 3.0, "stretch {}", stats.max_stretch);
    }

    #[test]
    fn overlay_routing_on_metric() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let scheme = SimpleScheme::build_overlay(&space, 0.25);
        let mut worst = 1.0f64;
        for u in space.nodes() {
            for v in space.nodes() {
                if u == v {
                    continue;
                }
                let trace = scheme.route_overlay(&space, u, v).unwrap();
                assert_eq!(*trace.path.last().unwrap(), v);
                worst = worst.max(trace.stretch(space.dist(u, v)));
            }
        }
        assert!(worst <= 3.0, "overlay stretch {worst}");
    }

    #[test]
    fn header_dominated_by_label_bits() {
        let graph = gen::grid_graph(4, 2);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = SimpleScheme::build(&space, &graph, &apsp, 0.25);
        assert!(scheme.header_bits() > id_bits(16));
        assert!(scheme.max_table_bits() > scheme.header_bits());
        let report = scheme.table_bits(Node::new(0));
        assert!(report.parts().iter().any(|(p, _)| p == "neighbor labels"));
    }

    #[test]
    fn exponential_path_is_routable() {
        let graph = gen::exponential_path(12);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = SimpleScheme::build(&space, &graph, &apsp, 0.25);
        let stats = over_all_pairs(&graph, &apsp, |u, v| scheme.route(&graph, u, v)).unwrap();
        assert!((stats.max_stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degree_accounting() {
        let space = Space::new(LineMetric::uniform(24).unwrap());
        let scheme = SimpleScheme::build_overlay(&space, 0.5);
        assert!(scheme.overlay_out_degree() >= 1);
        assert!(scheme.overlay_out_degree() < 24);
    }
}
