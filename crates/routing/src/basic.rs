//! Theorem 2.1: the basic (1+delta)-stretch routing scheme — the paper's
//! short re-derivation of Chan–Gupta–Maggs–Zhou.
//!
//! Construction (proof of Theorem 2.1, adapted to absolute distances):
//! scales `s_j = diameter / 2^j`; at each scale a net `G_j` (from the
//! nested ladder) and per-node rings `Y_uj = B_u(4 s_j / delta) ∩ G_j`.
//! The routing label of `t` encodes its zooming sequence
//! `f_tj = nearest G_j point` via *host enumerations* of the rings (local
//! indices, not global ids); routing tables hold translation functions
//! `zeta_uj` and first-hop pointers. A packet zooms towards intermediate
//! targets `f_tj` that get geometrically closer to `t` (Claim 2.4), each
//! leg following a fixed shortest path via first-hop pointers.

use ron_core::bits::{id_bits, index_bits, SizeReport};
use ron_core::zoom::{geometric_scales, ZoomSequence};
use ron_core::TranslationFn;
use ron_graph::{Apsp, Graph};
use ron_metric::{distance_levels, BallOracle, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::scheme::{RouteError, RouteTrace};

/// The routing label of a target: its zooming sequence in local indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicLabel {
    /// Global identifier of the target (footnote 9 of the paper).
    id: u32,
    /// `seq[j]` = index of `f_tj` in the host enumeration of the `j`-ring
    /// of `f_(t,j-1)` (for `j = 0`: of the shared ring `Y_(·,0)`).
    seq: Vec<u32>,
}

impl BasicLabel {
    /// The labeled target node (the global id of footnote 9).
    #[must_use]
    pub fn node(&self) -> Node {
        Node::new(self.id as usize)
    }
}

/// One ring `Y_uj` with its local data: members in enumeration order,
/// distances, and first-hop pointers.
#[derive(Clone, Debug)]
struct RingTable {
    members: Vec<Node>,
    dists: Vec<f64>,
    /// Out-link slot of the first hop towards each member (`None` when the
    /// member is the node itself, or in overlay mode).
    first_hop: Vec<Option<u32>>,
}

impl RingTable {
    fn index_of(&self, v: Node) -> Option<u32> {
        self.members.binary_search(&v).ok().map(|i| i as u32)
    }
}

/// The Theorem 2.1 routing scheme for one graph (or metric overlay).
///
/// # Example
///
/// ```
/// use ron_graph::{gen, Apsp};
/// use ron_metric::{Node, Space};
/// use ron_routing::BasicScheme;
///
/// let graph = gen::grid_graph(4, 2);
/// let apsp = Apsp::compute(&graph);
/// let space = Space::new(apsp.to_metric()?);
/// let scheme = BasicScheme::build(&space, &graph, &apsp, 0.25);
/// let trace = scheme.route(&graph, Node::new(0), Node::new(15))?;
/// assert!(trace.length <= apsp.dist(Node::new(0), Node::new(15)) * 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct BasicScheme {
    delta: f64,
    n: usize,
    dout: usize,
    num_scales: usize,
    k_max: usize,
    /// `states[u]` = node `u`'s rings and translation functions.
    states: Vec<BasicNodeState>,
    labels: Vec<BasicLabel>,
}

impl BasicScheme {
    /// Builds the scheme for a connected weighted graph.
    ///
    /// `space` must be the shortest-path metric of `graph` (build it via
    /// [`Apsp::to_metric`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)` or the arities mismatch.
    #[must_use]
    pub fn build<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        graph: &Graph,
        apsp: &Apsp,
        delta: f64,
    ) -> Self {
        Self::build_inner(space, Some((graph, apsp)), delta)
    }

    /// Builds the scheme as a routing scheme *on a metric* (Section 4.1):
    /// the rings are the overlay's virtual links and no first-hop pointers
    /// exist. Route with [`BasicScheme::route_overlay`].
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
        let diameter = space.index().diameter_ub();
        let num_scales = distance_levels(space.index().aspect_ratio()) + 1;
        let nets = NestedNets::build(space);
        let scales = geometric_scales(diameter, num_scales);
        // Zooming sequences f_t0, f_t1, ...; the net level behind each
        // scale is the same for every target.
        let zoom: Vec<ZoomSequence> = space
            .nodes()
            .map(|t| ZoomSequence::towards(space, &nets, t, &scales))
            .collect();
        let net_levels = zoom[0].levels();

        // Rings Y_uj.
        let mut k_max = 1usize;
        let rings: Vec<Vec<RingTable>> = space
            .nodes()
            .map(|u| {
                (0..num_scales)
                    .map(|j| {
                        let r = 4.0 * scales[j] / delta;
                        let members = nets.net(net_levels[j]).members_in_ball(space, u, r);
                        let mut members = members;
                        members.sort_unstable();
                        k_max = k_max.max(members.len());
                        let dists = members.iter().map(|&m| space.dist(u, m)).collect();
                        let first_hop = members
                            .iter()
                            .map(|&m| graph.and_then(|(_, apsp)| apsp.first_hop_slot(u, m)))
                            .collect();
                        RingTable {
                            members,
                            dists,
                            first_hop,
                        }
                    })
                    .collect()
            })
            .collect();

        // Labels: each zooming sequence in local indices.
        let labels: Vec<BasicLabel> = space
            .nodes()
            .map(|t| {
                let chain = zoom[t.index()].points();
                let seq: Vec<u32> = (0..num_scales)
                    .map(|j| {
                        let host = if j == 0 { t } else { chain[j - 1] };
                        rings[host.index()][j]
                            .index_of(chain[j])
                            .expect("Claim 2.3: f_tj is a j-ring neighbor of f_(t,j-1)")
                    })
                    .collect();
                BasicLabel {
                    id: t.index() as u32,
                    seq,
                }
            })
            .collect();

        // Translation functions.
        let zetas: Vec<Vec<TranslationFn>> = space
            .nodes()
            .map(|u| {
                (0..num_scales - 1)
                    .map(|j| {
                        let ring_j = &rings[u.index()][j];
                        let ring_next = &rings[u.index()][j + 1];
                        let mut triples = Vec::new();
                        for (fi, &f) in ring_j.members.iter().enumerate() {
                            let f_ring = &rings[f.index()][j + 1];
                            for (zi, &w) in ring_next.members.iter().enumerate() {
                                if let Some(y) = f_ring.index_of(w) {
                                    triples.push((fi as u32, y, zi as u32));
                                }
                            }
                        }
                        TranslationFn::from_triples(triples)
                    })
                    .collect()
            })
            .collect();

        let states = rings
            .into_iter()
            .zip(zetas)
            .enumerate()
            .map(|(i, (rings, zetas))| BasicNodeState {
                node: Node::new(i),
                rings,
                zetas,
            })
            .collect();
        let dout = graph.map_or(0, |(g, _)| g.max_out_degree());
        BasicScheme {
            delta,
            n,
            dout,
            num_scales,
            k_max,
            states,
            labels,
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

    /// Number of distance scales (`ceil(log2 Delta) + 1`).
    #[must_use]
    pub fn num_scales(&self) -> usize {
        self.num_scales
    }

    /// Largest ring cardinality (the paper's `K = (16/delta)^alpha`).
    #[must_use]
    pub fn max_ring_size(&self) -> usize {
        self.k_max
    }

    /// The routing label of `t`.
    #[must_use]
    pub fn label(&self, t: Node) -> &BasicLabel {
        &self.labels[t.index()]
    }

    /// Routes a packet over the graph using only per-node tables and the
    /// packet header (target label + current intermediate scale).
    ///
    /// # Errors
    ///
    /// Returns an error if the packet loops (it cannot, unless the
    /// construction is broken; tests rely on this signal).
    pub fn route(&self, graph: &Graph, src: Node, tgt: Node) -> Result<RouteTrace, RouteError> {
        assert_eq!(graph.len(), self.n, "graph/scheme arity mismatch");
        let label = &self.labels[tgt.index()];
        let budget = (self.n + 2) * (self.num_scales + 2);
        let mut path = vec![src];
        let mut length = 0.0;
        let mut cur = src;
        // Header field: the current intermediate scale, None initially.
        let mut level: Option<usize> = None;
        while cur != tgt {
            if path.len() > budget {
                return Err(RouteError::HopBudgetExceeded {
                    stuck_at: cur,
                    budget,
                });
            }
            let state = &self.states[cur.index()];
            let m = state.decode(label);
            let j_ut = m.len() - 1;
            let reselect = match level {
                None => true,
                Some(j) => {
                    if j > j_ut {
                        return Err(RouteError::NoDecision {
                            at: cur,
                            reason: "Claim 2.4b violated: intermediate target undecodable",
                        });
                    }
                    // The current node is the intermediate target iff its
                    // own ring entry has no first hop.
                    state.rings[j].first_hop[m[j] as usize].is_none()
                }
            };
            let j = if reselect {
                j_ut
            } else {
                level.expect("non-reselect has a level")
            };
            let Some(slot) = state.rings[j].first_hop[m[j] as usize] else {
                return Err(RouteError::NoDecision {
                    at: cur,
                    reason: "selected intermediate target is the current node",
                });
            };
            let (next, w) = graph.link(cur, slot as usize);
            level = Some(j);
            length += w;
            cur = next;
            path.push(cur);
        }
        Ok(RouteTrace { path, length })
    }

    /// Routes over the *overlay* (Section 4.1): each leg jumps directly to
    /// the intermediate target along a virtual link. Works for schemes
    /// built either way.
    ///
    /// # Errors
    ///
    /// Returns an error if the packet loops (construction broken).
    pub fn route_overlay(&self, src: Node, tgt: Node) -> Result<RouteTrace, RouteError> {
        let label = &self.labels[tgt.index()];
        let budget = self.states[src.index()].hop_budget();
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
            let Some((next, d)) = self.states[cur.index()].next_overlay_hop(label) else {
                return Err(RouteError::NoDecision {
                    at: cur,
                    reason: "zooming sequence stalled on the current node",
                });
            };
            length += d;
            cur = next;
            path.push(cur);
        }
        Ok(RouteTrace { path, length })
    }

    /// Out-degree of the overlay network (distinct ring members), the
    /// §4.1 quantity in Table 2.
    #[must_use]
    pub fn overlay_out_degree(&self) -> usize {
        (0..self.n)
            .map(|i| {
                let mut all: Vec<Node> = self.states[i]
                    .rings
                    .iter()
                    .flat_map(|r| r.members.iter().copied())
                    .collect();
                all.sort_unstable();
                all.dedup();
                all.len().saturating_sub(1) // links to self are free
            })
            .max()
            .unwrap_or(0)
    }

    /// Routing-table size of `u` in bits under the paper's encoding
    /// (dense `K x K` translation tables plus first-hop pointers).
    #[must_use]
    pub fn table_bits(&self, u: Node) -> SizeReport {
        let mut report = SizeReport::new(format!("basic table of {u}"));
        let k_bits = index_bits(self.k_max + 1); // +1: the null entry
        let mut zeta_bits = 0u64;
        let mut hop_bits = 0u64;
        for (j, ring) in self.states[u.index()].rings.iter().enumerate() {
            if j + 1 < self.num_scales {
                zeta_bits += ring.members.len() as u64 * self.k_max as u64 * k_bits;
            }
            if self.dout > 0 {
                hop_bits += ring.members.len() as u64 * index_bits(self.dout);
            }
        }
        report.add("translation maps", zeta_bits);
        if self.dout > 0 {
            report.add("first-hop pointers", hop_bits);
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

    /// Packet-header size in bits: the routing label (zooming sequence in
    /// local indices plus the target id) and the current scale.
    #[must_use]
    pub fn header_bits(&self) -> u64 {
        let label = id_bits(self.n) + self.num_scales as u64 * index_bits(self.k_max);
        label + index_bits(self.num_scales + 1)
    }
}

/// One node's share of a [`BasicScheme`]: its rings `Y_uj` (members,
/// virtual-link lengths, first-hop pointers) and its translation
/// functions `zeta_uj`. Forwarding decisions are made from this state and
/// the packet's label alone.
#[derive(Clone, Debug)]
struct BasicNodeState {
    node: Node,
    /// `rings[j]` = `Y_uj`.
    rings: Vec<RingTable>,
    /// `zetas[j]` translates ring-`j` keys into ring-`j+1` indices.
    zetas: Vec<TranslationFn>,
}

impl BasicNodeState {
    /// The overlay hop budget of [`BasicScheme::route_overlay`], local to
    /// every node (it depends only on the scale count).
    fn hop_budget(&self) -> usize {
        4 * (self.rings.len() + 2)
    }

    /// Decodes, at this node, the host-enumeration indices of the zooming
    /// sequence of the labeled target, as far as possible (Claim 2.2):
    /// returns `m` with `m[i] = phi_ui(f_ti)` for `i <= j_ut`.
    fn decode(&self, label: &BasicLabel) -> Vec<u32> {
        let mut m = vec![label.seq[0]];
        for (i, zeta) in self.zetas.iter().enumerate() {
            match zeta.lookup(m[i], label.seq[i + 1]) {
                Some(z) => m.push(z),
                None => break,
            }
        }
        m
    }

    /// The next overlay hop for a packet labeled `label`, with the
    /// virtual-link length, or `None` when the zooming sequence stalls on
    /// this node (broken construction). The decision rule of
    /// [`BasicScheme::route_overlay`], which calls this at every node.
    fn next_overlay_hop(&self, label: &BasicLabel) -> Option<(Node, f64)> {
        let m = self.decode(label);
        let j = m.len() - 1;
        let ring = &self.rings[j];
        let idx = m[j] as usize;
        let next = ring.members[idx];
        if next == self.node {
            None
        } else {
            Some((next, ring.dists[idx]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::over_all_pairs;
    use ron_graph::gen;
    use ron_metric::LineMetric;

    fn grid_setup(delta: f64) -> (Graph, Apsp, Space<ron_metric::ExplicitMetric>, BasicScheme) {
        let graph = gen::grid_graph(5, 2);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = BasicScheme::build(&space, &graph, &apsp, delta);
        (graph, apsp, space, scheme)
    }

    #[test]
    fn delivers_all_pairs_on_grid() {
        let (graph, apsp, _, scheme) = grid_setup(0.25);
        let stats = over_all_pairs(&graph, &apsp, |u, v| scheme.route(&graph, u, v)).unwrap();
        assert_eq!(stats.count, 25 * 24);
        assert!(
            stats.max_stretch <= 1.0 + 8.0 * 0.25,
            "stretch {} too large",
            stats.max_stretch
        );
    }

    #[test]
    fn smaller_delta_gives_smaller_stretch() {
        let (graph, apsp, _, loose) = grid_setup(0.5);
        let scheme_tight = {
            let space = Space::new(apsp.to_metric().unwrap());
            BasicScheme::build(&space, &graph, &apsp, 0.05)
        };
        let stats =
            |s: &BasicScheme| over_all_pairs(&graph, &apsp, |u, v| s.route(&graph, u, v)).unwrap();
        let tight_stats = stats(&scheme_tight);
        let loose_stats = stats(&loose);
        assert!(tight_stats.max_stretch <= loose_stats.max_stretch + 1e-12);
        assert!(tight_stats.max_stretch <= 1.4);
    }

    #[test]
    fn works_on_knn_graphs() {
        let (graph, points) = gen::knn_geometric(40, 2, 3, 7);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = BasicScheme::build(&space, &graph, &apsp, 0.25);
        let stats = over_all_pairs(&graph, &apsp, |u, v| scheme.route(&graph, u, v)).unwrap();
        assert!(
            stats.max_stretch <= 3.0,
            "stretch {} too large",
            stats.max_stretch
        );
        drop(points);
    }

    #[test]
    fn works_on_exponential_path() {
        // The super-polynomial aspect-ratio regime: many scales, few nodes.
        let graph = gen::exponential_path(16);
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = BasicScheme::build(&space, &graph, &apsp, 0.25);
        assert!(scheme.num_scales() >= 15);
        let stats = over_all_pairs(&graph, &apsp, |u, v| scheme.route(&graph, u, v)).unwrap();
        assert!(
            (stats.max_stretch - 1.0).abs() < 1e-9,
            "paths are unique on a path graph"
        );
    }

    #[test]
    fn overlay_mode_routes_with_low_stretch() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let scheme = BasicScheme::build_overlay(&space, 0.25);
        let mut worst = 1.0f64;
        for u in space.nodes() {
            for v in space.nodes() {
                if u == v {
                    continue;
                }
                let trace = scheme.route_overlay(u, v).unwrap();
                worst = worst.max(trace.stretch(space.dist(u, v)));
                assert_eq!(*trace.path.last().unwrap(), v);
            }
        }
        assert!(worst <= 1.0 + 8.0 * 0.25, "overlay stretch {worst}");
    }

    #[test]
    fn overlay_hops_are_logarithmic_in_aspect() {
        let space = Space::new(LineMetric::uniform(64).unwrap());
        let scheme = BasicScheme::build_overlay(&space, 0.25);
        for u in space.nodes() {
            for v in space.nodes() {
                if u == v {
                    continue;
                }
                let trace = scheme.route_overlay(u, v).unwrap();
                assert!(trace.hops() <= scheme.num_scales() + 2);
            }
        }
    }

    #[test]
    fn storage_accounting_shapes() {
        let (_, _, _, scheme) = grid_setup(0.25);
        assert!(scheme.max_table_bits() > 0);
        assert!(scheme.header_bits() > 0);
        assert!(scheme.overlay_out_degree() > 0);
        // Header is tiny compared to tables.
        assert!(scheme.header_bits() < scheme.max_table_bits());
        let report = scheme.table_bits(Node::new(0));
        assert!(report
            .parts()
            .iter()
            .any(|(name, _)| name == "translation maps"));
    }

    #[test]
    fn header_grows_with_scales_not_n() {
        let small_graph = gen::grid_graph(4, 2);
        let apsp_s = Apsp::compute(&small_graph);
        let space_s = Space::new(apsp_s.to_metric().unwrap());
        let s_small = BasicScheme::build(&space_s, &small_graph, &apsp_s, 0.25);

        let big_graph = gen::grid_graph(6, 2);
        let apsp_b = Apsp::compute(&big_graph);
        let space_b = Space::new(apsp_b.to_metric().unwrap());
        let s_big = BasicScheme::build(&space_b, &big_graph, &apsp_b, 0.25);

        // 16 -> 36 nodes but aspect ratio only 6 -> 10: header grows by a
        // couple of scale slots, far from linearly in n.
        assert!(s_big.header_bits() <= s_small.header_bits() * 2);
    }

    #[test]
    fn label_sequences_have_scale_length() {
        let (_, _, _, scheme) = grid_setup(0.25);
        for i in 0..scheme.len() {
            assert_eq!(scheme.label(Node::new(i)).seq.len(), scheme.num_scales());
        }
    }
}
