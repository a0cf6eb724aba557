//! Theorem 4.2 / B.1: the two-mode (1+delta)-stretch routing scheme for
//! graphs with large aspect ratio.
//!
//! **Mode M1** elaborates Theorem 2.1's zooming with the label machinery
//! of Theorem 3.4: the routing label of a target `t` carries its zooming
//! sequence and its *friends* — the nearest packing representative `x_ti`
//! per level and the nearest net points `y_tj` at the scales
//! `J_ti = [log(delta r_ti / 4), log(6 r_ti)]` — all addressed by virtual
//! indices, never global ids. A node picks a *good* friend as the next
//! intermediate target (Claim B.2(b)): at the bracket level `i` with
//! `r_ui < 2 d <= r_(u,i-1)`, the friend `x_ti` (if `r_ti <= delta d / 6`)
//! or `y_t,floor(log delta d)` lies within `delta * d` of `t`.
//!
//! **Mode M2** takes over exactly when M1 runs out of resolution — by
//! Lemma B.5 that happens only when `u`'s radius ladder has a gap:
//! `6 r_ui / delta < (4/3) d <= r_(u,i-1)`. Then the packing ball `B` that
//! Lemma A.1 plants within `B_u(6 r_ui)` is dense (`>= n / 2^(i + O(alpha))`
//! nodes), and its members collectively store routes to every node of
//! `B' = B_(rep,i-1) ∋ t`: the packet walks to the ball's representative,
//! descends an [`IdRangeTree`] keyed by `ID(t)` to the member `v_t`
//! responsible for `t`, and follows `v_t`'s stored source route.
//!
//! Deviations from the paper (see DESIGN.md §3): (i) the conditions
//! (c4)/(c5) are applied in the functional form above, reconstructed from
//! Claim B.2(b) and Lemma B.5 (the paper's own statement of (c4) is
//! internally inconsistent with B.2(b) as printed); (ii) the M2 interlude
//! addresses the chosen packing ball by `(level, ball-index)` in the
//! header — `O(log n)` bits, within the header budget that already carries
//! `ID(t)`; (iii) tree hops are source-routed (each member stores
//! slot-paths to its at most `2^O(alpha)` children), and a `NotHere`
//! answer from the range tree escalates to the coarser level, whose
//! level-1 cluster targets all of `V` — delivery is unconditional, and the
//! escalation is counted in [`TwoModeStats`].

use std::collections::BTreeMap;

use ron_core::bits::{id_bits, index_bits, SizeReport};
use ron_core::{Enumeration, TranslationFn};
use ron_graph::{Apsp, Graph, IdRangeTree};
use ron_labels::{DistanceCodec, NeighborSystem};
use ron_metric::{Metric, Node, Space};

use crate::scheme::{RouteError, RouteTrace};

/// Fan-out cap of the cluster trees: keeps per-member child storage at
/// `2^O(alpha)` while the nearest-predecessor attachment keeps tree paths
/// short.
const TREE_FANOUT: usize = 8;

/// Counters describing how a batch of routed packets used the two modes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TwoModeStats {
    /// Intermediate-target selections in mode M1.
    pub m1_selections: usize,
    /// Switches into mode M2.
    pub m2_switches: usize,
    /// Range-tree escalations to a coarser cluster level.
    pub m2_escalations: usize,
}

/// The per-target routing label (M1 friends plus `ID(t)` for M2).
#[derive(Clone, Debug)]
struct TwoLabel {
    id: u32,
    /// `f_idx[0]`: host (block) index of `f_t0`; `f_idx[i]`: virtual index
    /// of `f_ti` in `psi` of `f_(t,i-1)`.
    f_idx: Vec<u32>,
    /// Per level: index of `x_ti` (block index at level 0, virtual above).
    x_idx: Vec<Option<u32>>,
    /// Quantized `d(t, x_ti)`.
    x_dist: Vec<f64>,
    /// Per level: `(net scale j, index, quantized distance)` of `y_tj`,
    /// for `j` in `J_ti`.
    y: Vec<Vec<(u16, u32, f64)>>,
    /// Quantized radii `r_ti`.
    r_t: Vec<f64>,
}

/// The per-node routing table.
#[derive(Clone, Debug)]
struct NodeTable {
    phi: Enumeration,
    dists: Vec<f64>,
    hops: Vec<Option<u32>>,
    zetas: Vec<TranslationFn>,
    r: Vec<f64>,
    /// Witness packing-ball index per level.
    witness: Vec<u32>,
    /// Per level: sorted `(packing ball index, host index of its rep)` for
    /// this node's X-neighbors (resolves M2 ball handles locally).
    x_lookup: Vec<Vec<(u32, u32)>>,
}

/// One M2 cluster: the members of a packing ball, their range tree over
/// the targets of the enclosing ball, child routes and stored routes.
#[derive(Clone, Debug)]
struct Cluster {
    tree: IdRangeTree,
    /// Per member (tree index): `(child, slot route to it)`.
    child_routes: Vec<Vec<(Node, Vec<u32>)>>,
    /// Target id -> slot route from its responsible member.
    routes: BTreeMap<u32, Vec<u32>>,
}

/// The packet header's mode state.
#[derive(Clone, Debug)]
enum Phase {
    /// Zooming via intermediate friends; `None` = pick a new one.
    M1(Option<M1Target>),
    /// Walking to the root of cluster `(level, ball)`.
    ToRoot { level: usize, ball: u32 },
    /// Descending the cluster tree, possibly mid child-route.
    Tree {
        level: usize,
        ball: u32,
        pending: Option<(Vec<u32>, usize)>,
    },
    /// Following the stored source route.
    Source { route: Vec<u32>, pos: usize },
}

#[derive(Clone, Debug)]
struct M1Target {
    /// Friend level `i`.
    i: usize,
    /// `None` = the `x_ti` friend; `Some(j)` = the `y_tj` friend.
    j: Option<u16>,
    /// Quantized `d_uw` at selection time (the paper's `Dest`).
    dest: f64,
}

/// The Theorem B.1 routing scheme.
///
/// # Example
///
/// ```
/// use ron_graph::{gen, Apsp};
/// use ron_metric::{Node, Space};
/// use ron_routing::TwoModeScheme;
///
/// let graph = gen::exponential_path(12);
/// let apsp = Apsp::compute(&graph);
/// let space = Space::new(apsp.to_metric()?);
/// let scheme = TwoModeScheme::build(&space, &graph, &apsp, 0.25);
/// let mut stats = Default::default();
/// let trace = scheme.route(&graph, Node::new(0), Node::new(11), &mut stats)?;
/// assert_eq!(*trace.path.last().unwrap(), Node::new(11));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct TwoModeScheme {
    delta: f64,
    n: usize,
    dout: usize,
    levels: usize,
    codec: DistanceCodec,
    virt_bits: u64,
    ladder_levels: usize,
    tables: Vec<NodeTable>,
    labels: Vec<TwoLabel>,
    /// `clusters[i]` — one per ball of `packing(i)`, for `i >= 1`.
    clusters: Vec<Vec<Cluster>>,
}

impl TwoModeScheme {
    /// Builds the scheme; `space` must be the shortest-path metric of
    /// `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1/2]` or arities mismatch.
    #[must_use]
    pub fn build<M: Metric>(space: &Space<M>, graph: &Graph, apsp: &Apsp, delta: f64) -> Self {
        assert!(delta > 0.0 && delta <= 0.5, "delta must be in (0, 1/2]");
        assert_eq!(graph.len(), space.len(), "graph/space arity mismatch");
        let n = space.len();
        let system = NeighborSystem::build(space, delta);
        let levels = system.levels();
        let nets = system.nets();
        let codec = DistanceCodec::for_delta(delta);
        let diameter = space.index().diameter();

        // Zoom chains (level 0 canonicalized to the diameter scale).
        let zoom: Vec<Vec<Node>> = space
            .nodes()
            .map(|u| {
                (0..levels)
                    .map(|i| {
                        let scale = if i == 0 {
                            diameter / 4.0
                        } else {
                            system.radius(u, i) / 4.0
                        };
                        let level = nets.level_for_scale(scale);
                        nets.net(level).nearest_member(space, u).1
                    })
                    .collect()
            })
            .collect();

        // Friends: x_ti (nearest packing rep) and y_tj for j in J_ti.
        let x_friend: Vec<Vec<Option<Node>>> = space
            .nodes()
            .map(|t| (0..levels).map(|i| system.nearest_x(space, t, i)).collect())
            .collect();
        let j_range = |t: Node, i: usize| -> (usize, usize) {
            let r_ti = system.radius(t, i);
            let lo = nets.level_for_scale(delta * r_ti / 4.0);
            let hi = (nets.level_for_scale(6.0 * r_ti) + 1).min(nets.levels() - 1);
            (lo, hi.max(lo))
        };
        let y_friend = |t: Node, j: usize| -> Node { nets.net(j).nearest_member(space, t).1 };

        // Virtual neighbor sets: reuse the Z-construction of Theorem 3.4
        // (Z_wj over all scales), then force friend memberships.
        let min_dist = space.index().min_distance();
        let mut t_sets: Vec<std::collections::BTreeSet<Node>> = space
            .nodes()
            .map(|w| {
                let mut set = std::collections::BTreeSet::new();
                for j in 1..=(nets.levels() - 1 + 3) {
                    let radius = min_dist * (2.0f64).powi(j as i32);
                    let level = nets.level_for_scale(radius * delta / 64.0);
                    set.extend(nets.net(level).members_in_ball(space, w, radius));
                }
                for i in 0..levels {
                    for h in system.x_neighbors(w, i) {
                        set.insert(h);
                    }
                }
                set
            })
            .collect();
        for t in space.nodes() {
            for i in 1..levels {
                let host = zoom[t.index()][i - 1];
                let set = &mut t_sets[host.index()];
                set.insert(zoom[t.index()][i]);
                if let Some(x) = x_friend[t.index()][i] {
                    set.insert(x);
                }
                let (lo, hi) = j_range(t, i);
                for j in lo..=hi {
                    set.insert(y_friend(t, j));
                }
            }
        }
        let psi: Vec<Enumeration> = t_sets
            .iter()
            .map(|s| Enumeration::new(s.iter().copied().collect()))
            .collect();
        let virt_bits = psi.iter().map(Enumeration::index_bits).max().unwrap_or(0);

        // Host enumerations: canonical block first.
        let block = system.level0_block();
        let block_set: std::collections::BTreeSet<Node> = block.iter().copied().collect();
        let phi: Vec<Enumeration> = space
            .nodes()
            .map(|u| {
                let mut order = block.clone();
                order.extend(
                    system
                        .neighbors_of(u)
                        .into_iter()
                        .filter(|v| !block_set.contains(v)),
                );
                Enumeration::from_ordered(order)
            })
            .collect();

        // Labels.
        let labels: Vec<TwoLabel> = space
            .nodes()
            .map(|t| {
                let q = |d: f64| codec.decode(codec.encode(d));
                let mut f_idx = Vec::with_capacity(levels);
                let mut x_idx = Vec::with_capacity(levels);
                let mut x_dist = Vec::with_capacity(levels);
                let mut y = Vec::with_capacity(levels);
                let mut r_t = Vec::with_capacity(levels);
                for i in 0..levels {
                    r_t.push(q(system.radius(t, i)));
                    let xf = x_friend[t.index()][i];
                    x_dist.push(xf.map_or(f64::INFINITY, |x| q(space.dist(t, x))));
                    let (lo, hi) = j_range(t, i);
                    if i == 0 {
                        let p = &phi[t.index()];
                        f_idx.push(p.index_of(zoom[t.index()][0]).expect("f_t0 in block"));
                        x_idx.push(xf.and_then(|x| p.index_of(x)));
                        y.push(
                            (lo..=hi)
                                .map(|j| {
                                    let w = y_friend(t, j);
                                    (
                                        j as u16,
                                        p.index_of(w).expect("y_t0j in block"),
                                        q(space.dist(t, w)),
                                    )
                                })
                                .collect(),
                        );
                    } else {
                        let host = zoom[t.index()][i - 1];
                        let p = &psi[host.index()];
                        f_idx.push(
                            p.index_of(zoom[t.index()][i])
                                .expect("zoom membership forced"),
                        );
                        x_idx.push(xf.and_then(|x| p.index_of(x)));
                        y.push(
                            (lo..=hi)
                                .map(|j| {
                                    let w = y_friend(t, j);
                                    (
                                        j as u16,
                                        p.index_of(w).expect("friend membership forced"),
                                        q(space.dist(t, w)),
                                    )
                                })
                                .collect(),
                        );
                    }
                }
                TwoLabel {
                    id: t.index() as u32,
                    f_idx,
                    x_idx,
                    x_dist,
                    y,
                    r_t,
                }
            })
            .collect();

        // Tables.
        let tables: Vec<NodeTable> = space
            .nodes()
            .map(|u| {
                let p = &phi[u.index()];
                let dists: Vec<f64> = p.nodes().iter().map(|&v| space.dist(u, v)).collect();
                let hops: Vec<Option<u32>> = p
                    .nodes()
                    .iter()
                    .map(|&v| apsp.first_hop_slot(u, v))
                    .collect();
                let zetas: Vec<TranslationFn> = (0..levels.saturating_sub(1))
                    .map(|i| {
                        let mut level_i: Vec<Node> = system
                            .x_neighbors(u, i)
                            .chain(system.y_neighbors(u, i).iter().copied())
                            .collect();
                        level_i.sort_unstable();
                        level_i.dedup();
                        let mut level_next: Vec<Node> = system
                            .x_neighbors(u, i + 1)
                            .chain(system.y_neighbors(u, i + 1).iter().copied())
                            .collect();
                        level_next.sort_unstable();
                        level_next.dedup();
                        let mut triples = Vec::new();
                        for &v in &level_i {
                            let x = p.index_of(v).expect("level set in host enum");
                            for &w in &level_next {
                                if let Some(y) = psi[v.index()].index_of(w) {
                                    triples.push((
                                        x,
                                        y,
                                        p.index_of(w).expect("level set in host enum"),
                                    ));
                                }
                            }
                        }
                        TranslationFn::from_triples(triples)
                    })
                    .collect();
                let r: Vec<f64> = (0..levels).map(|i| system.radius(u, i)).collect();
                let witness: Vec<u32> = (0..levels)
                    .map(|i| system.packing(i).witness_index(u) as u32)
                    .collect();
                let x_lookup: Vec<Vec<(u32, u32)>> = (0..levels)
                    .map(|i| {
                        let mut v: Vec<(u32, u32)> = system
                            .x_ball_indices(u, i)
                            .iter()
                            .map(|&b| {
                                let rep = system.packing(i).balls()[b as usize].rep;
                                (b, p.index_of(rep).expect("X rep in host enum"))
                            })
                            .collect();
                        v.sort_unstable();
                        v
                    })
                    .collect();
                NodeTable {
                    phi: p.clone(),
                    dists,
                    hops,
                    zetas,
                    r,
                    witness,
                    x_lookup,
                }
            })
            .collect();

        // Clusters for levels >= 1.
        let clusters: Vec<Vec<Cluster>> = (0..levels)
            .map(|i| {
                if i == 0 {
                    return Vec::new();
                }
                system
                    .packing(i)
                    .balls()
                    .iter()
                    .map(|ball| {
                        let rep = ball.rep;
                        // Members ordered by distance from the rep.
                        let mut members: Vec<Node> = ball.members().to_vec();
                        members.sort_by(|&a, &b| {
                            space
                                .dist(rep, a)
                                .total_cmp(&space.dist(rep, b))
                                .then(a.cmp(&b))
                        });
                        // Nearest-predecessor tree with a fan-out cap.
                        let mut parent: Vec<Option<usize>> = vec![None; members.len()];
                        let mut child_count = vec![0usize; members.len()];
                        for k in 1..members.len() {
                            let mut best: Option<(f64, usize)> = None;
                            for pk in 0..k {
                                if child_count[pk] >= TREE_FANOUT {
                                    continue;
                                }
                                let d = space.dist(members[pk], members[k]);
                                if best.is_none_or(|(bd, _)| d < bd) {
                                    best = Some((d, pk));
                                }
                            }
                            let (_, pk) = best.unwrap_or((0.0, 0));
                            parent[k] = Some(pk);
                            child_count[pk] += 1;
                        }
                        let targets: Vec<u32> = space
                            .index()
                            .ball(rep, system.radius(rep, i - 1))
                            .nodes()
                            .iter()
                            .map(|v| v.index() as u32)
                            .collect();
                        let tree = IdRangeTree::new(members.clone(), parent, targets);
                        let child_routes: Vec<Vec<(Node, Vec<u32>)>> = (0..members.len())
                            .map(|k| {
                                tree.children_of(k)
                                    .map(|c| (c, slot_route(graph, apsp, members[k], c)))
                                    .collect()
                            })
                            .collect();
                        let mut routes = BTreeMap::new();
                        for &id in tree.targets() {
                            let owner = tree.responsible(id).expect("target assigned");
                            routes
                                .insert(id, slot_route(graph, apsp, owner, Node::new(id as usize)));
                        }
                        Cluster {
                            tree,
                            child_routes,
                            routes,
                        }
                    })
                    .collect()
            })
            .collect();

        TwoModeScheme {
            delta,
            n,
            dout: graph.max_out_degree(),
            levels,
            codec,
            virt_bits,
            ladder_levels: nets.levels(),
            tables,
            labels,
            clusters,
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

    /// Decodes, at node `u`, the host indices of the target's zooming
    /// chain, as far as `u`'s rings allow.
    fn decode_chain(&self, u: Node, label: &TwoLabel) -> Vec<u32> {
        let table = &self.tables[u.index()];
        let mut m = vec![label.f_idx[0]];
        for i in 1..self.levels {
            match table.zetas[i - 1].lookup(m[i - 1], label.f_idx[i]) {
                Some(z) => m.push(z),
                None => break,
            }
        }
        m
    }

    /// Estimates `d_ut` from `u`'s table and `t`'s label: the best
    /// `d_uw + d_wt` over identified common beacons (block friends, chain
    /// points, and `zeta`-translated friends).
    fn estimate(&self, u: Node, label: &TwoLabel) -> f64 {
        let table = &self.tables[u.index()];
        let mut best = f64::INFINITY;
        let consider = |idx: u32, d_wt: f64, best: &mut f64| {
            let d_uw = table.dists[idx as usize];
            *best = best.min(d_uw + d_wt);
        };
        // Level-0 friends are block members: indices coincide.
        if let Some(x0) = label.x_idx[0] {
            consider(x0, label.x_dist[0], &mut best);
        }
        for &(_, idx, d) in &label.y[0] {
            consider(idx, d, &mut best);
        }
        // Chain points (common neighbors while decodable, Claim 3.6) and
        // translated friends at each level.
        let m = self.decode_chain(u, label);
        for (i, &fi) in m.iter().enumerate() {
            // d(t, f_ti) <= r_ti / 4 by construction of the zoom chain.
            let zoom_dist = label.r_t[i] / 4.0;
            consider(fi, zoom_dist, &mut best);
            if i + 1 < self.levels && i < m.len() {
                let zeta = &self.tables[u.index()].zetas[i];
                if let Some(xi) = label.x_idx[i + 1] {
                    if let Some(z) = zeta.lookup(fi, xi) {
                        consider(z, label.x_dist[i + 1], &mut best);
                    }
                }
                for &(_, yi, d) in &label.y[i + 1] {
                    if let Some(z) = zeta.lookup(fi, yi) {
                        consider(z, d, &mut best);
                    }
                }
            }
        }
        best
    }

    /// Picks a good intermediate friend at `u` per Claim B.2(b); returns
    /// `(host index of w, M1Target)` or `None` (switch to M2).
    fn select_good(&self, u: Node, label: &TwoLabel) -> Option<(u32, M1Target)> {
        let table = &self.tables[u.index()];
        let est = self.estimate(u, label);
        if !est.is_finite() || est <= 0.0 {
            return None;
        }
        // Bracket level: max i with r_(u,i-1) >= 2 * est (r_(u,-1) = inf).
        let mut i = 0usize;
        while i + 1 < self.levels && table.r[i] >= 2.0 * est {
            i += 1;
        }
        // Gap test (Lemma B.5 direction): M1 works iff r_ui is not tiny
        // relative to delta * d. The estimate overshoots by (1+2 delta),
        // so compare against the deflated value.
        let d_lo = est / (1.0 + 2.0 * self.delta);
        if table.r[i] < self.delta * d_lo / 6.0 {
            return None;
        }
        let m = self.decode_chain(u, label);
        if m.len() < i.max(1) {
            return None; // cannot identify level-i friends here
        }
        // Friend choice per Claim B.2(b).
        let r_ti = label.r_t[i];
        let (j, idx_opt, d_wt) = if r_ti <= self.delta * est / 6.0 {
            (None, label.x_idx[i], label.x_dist[i])
        } else {
            let want = self.level_for_scale_est(self.delta * d_lo);
            let found = label.y[i]
                .iter()
                .filter(|&&(j, _, _)| (j as usize) <= want)
                .max_by_key(|&&(j, _, _)| j)
                .or_else(|| label.y[i].first());
            match found {
                Some(&(j, idx, d)) => (Some(j), Some(idx), d),
                None => (None, None, f64::INFINITY),
            }
        };
        let idx = idx_opt?;
        // Identify w in u's host enumeration.
        let host = if i == 0 {
            idx // block index
        } else {
            table.zetas[i - 1].lookup(m[i - 1], idx)?
        };
        let dest = table.dists[host as usize];
        if dest <= 0.0 {
            return None; // w == u: no progress possible in M1
        }
        // Progress check: the friend must actually be closer to t.
        if d_wt > 0.75 * est {
            return None;
        }
        Some((host, M1Target { i, j, dest }))
    }

    /// Scale exponent for a distance (mirrors `NestedNets::level_for_scale`
    /// using only table-free constants).
    fn level_for_scale_est(&self, scale: f64) -> usize {
        if !(scale.is_finite() && scale > 0.0) {
            return 0;
        }
        let j = scale.log2().floor();
        if j < 0.0 {
            0
        } else {
            (j as usize).min(self.ladder_levels - 1)
        }
    }

    /// Re-identifies the current M1 intermediate target at node `v`.
    fn identify_target(&self, v: Node, label: &TwoLabel, t: &M1Target) -> Option<u32> {
        let table = &self.tables[v.index()];
        let idx = match t.j {
            None => label.x_idx[t.i]?,
            Some(j) => label.y[t.i]
                .iter()
                .find(|&&(jj, _, _)| jj == j)
                .map(|&(_, idx, _)| idx)?,
        };
        if t.i == 0 {
            Some(idx)
        } else {
            let m = self.decode_chain(v, label);
            if m.len() < t.i {
                return None;
            }
            table.zetas[t.i - 1].lookup(m[t.i - 1], idx)
        }
    }

    /// Chooses the M2 entry level at `u`: the bracket level of the
    /// estimate, clamped to `>= 1`.
    fn m2_level(&self, u: Node, label: &TwoLabel) -> usize {
        let table = &self.tables[u.index()];
        let est = self.estimate(u, label).max(table.r[self.levels - 1]);
        let mut i = 0usize;
        while i + 1 < self.levels && table.r[i] >= 2.0 * est {
            i += 1;
        }
        i.max(1)
    }

    /// Routes a packet, accumulating mode statistics into `stats`.
    ///
    /// # Errors
    ///
    /// Returns an error if the packet loops or an invariant breaks.
    pub fn route(
        &self,
        graph: &Graph,
        src: Node,
        tgt: Node,
        stats: &mut TwoModeStats,
    ) -> Result<RouteTrace, RouteError> {
        assert_eq!(graph.len(), self.n, "graph/scheme arity mismatch");
        let label = self.labels[tgt.index()].clone();
        let budget = (self.n + 4) * (self.levels + 6);
        let mut path = vec![src];
        let mut length = 0.0;
        let mut cur = src;
        let mut phase = Phase::M1(None);
        let delta_p = self.delta / (1.0 - self.delta);
        while cur != tgt {
            if path.len() > budget {
                return Err(RouteError::HopBudgetExceeded {
                    stuck_at: cur,
                    budget,
                });
            }
            let table = &self.tables[cur.index()];
            // Every arm below either assigns a slot or `continue`s after a
            // phase change; the initial value is never read.
            #[allow(unused_assignments)]
            let mut forward_slot: Option<u32> = None;
            match &mut phase {
                Phase::M1(intermediate) => {
                    let action = match intermediate {
                        Some(t) => self.identify_target(cur, &label, t).map(|h| (h, t.clone())),
                        None => self.select_good(cur, &label),
                    };
                    match action {
                        Some((host, t)) => {
                            let d_vw = table.dists[host as usize];
                            if d_vw == 0.0 {
                                // Arrived at the intermediate target:
                                // reselect on the next loop turn.
                                *intermediate = None;
                                continue;
                            }
                            let slot = table.hops[host as usize].ok_or(RouteError::NoDecision {
                                at: cur,
                                reason: "missing first-hop pointer to intermediate target",
                            })?;
                            let (_, w_edge) = graph.link(cur, slot as usize);
                            let was_new = intermediate.is_none();
                            if was_new {
                                stats.m1_selections += 1;
                            }
                            // Handoff rule: clear the intermediate id when
                            // the leg is nearly complete.
                            if d_vw - w_edge <= 2.0 * delta_p * t.dest {
                                *intermediate = None;
                            } else {
                                *intermediate = Some(t);
                            }
                            forward_slot = Some(slot);
                        }
                        None => {
                            // Mode switch.
                            stats.m2_switches += 1;
                            let level = self.m2_level(cur, &label);
                            let ball = table.witness[level];
                            phase = Phase::ToRoot { level, ball };
                            continue;
                        }
                    }
                }
                Phase::ToRoot { level, ball } => {
                    let lv = *level;
                    let bl = *ball;
                    let cluster = &self.clusters[lv][bl as usize];
                    if cluster.tree.member_index(cur).is_some_and(|k| k == 0) {
                        phase = Phase::Tree {
                            level: lv,
                            ball: bl,
                            pending: None,
                        };
                        continue;
                    }
                    let lookup = &table.x_lookup[lv];
                    let host = lookup
                        .binary_search_by_key(&bl, |&(b, _)| b)
                        .ok()
                        .map(|k| lookup[k].1)
                        .ok_or(RouteError::NoDecision {
                            at: cur,
                            reason: "M2 ball handle not resolvable (X-transfer broken)",
                        })?;
                    let slot = table.hops[host as usize].ok_or(RouteError::NoDecision {
                        at: cur,
                        reason: "missing first-hop pointer to cluster root",
                    })?;
                    forward_slot = Some(slot);
                }
                Phase::Tree {
                    level,
                    ball,
                    pending,
                } => {
                    let lv = *level;
                    let bl = *ball;
                    if let Some((route, pos)) = pending {
                        if *pos < route.len() {
                            let slot = route[*pos];
                            *pos += 1;
                            forward_slot = Some(slot);
                        } else {
                            *pending = None;
                            continue;
                        }
                    } else {
                        let cluster = &self.clusters[lv][bl as usize];
                        let k = cluster
                            .tree
                            .member_index(cur)
                            .ok_or(RouteError::NoDecision {
                                at: cur,
                                reason: "tree phase at a non-member node",
                            })?;
                        match cluster.tree.route_step(k, label.id) {
                            ron_graph::RangeStep::Responsible => {
                                let route =
                                    cluster.routes.get(&label.id).cloned().unwrap_or_default();
                                phase = Phase::Source { route, pos: 0 };
                                continue;
                            }
                            ron_graph::RangeStep::Descend(child) => {
                                let (_, route) = cluster.child_routes[k]
                                    .iter()
                                    .find(|(c, _)| *c == child)
                                    .cloned()
                                    .ok_or(RouteError::NoDecision {
                                        at: cur,
                                        reason: "missing child route",
                                    })?;
                                phase = Phase::Tree {
                                    level: lv,
                                    ball: bl,
                                    pending: Some((route, 0)),
                                };
                                continue;
                            }
                            ron_graph::RangeStep::NotHere => {
                                // Escalate to a coarser cluster (level 1
                                // targets everything, so this terminates).
                                stats.m2_escalations += 1;
                                if lv <= 1 {
                                    return Err(RouteError::NoDecision {
                                        at: cur,
                                        reason: "level-1 cluster missing target (impossible)",
                                    });
                                }
                                let level = lv - 1;
                                let ball = table.witness[level];
                                phase = Phase::ToRoot { level, ball };
                                continue;
                            }
                        }
                    }
                }
                Phase::Source { route, pos } => {
                    if *pos >= route.len() {
                        return Err(RouteError::NoDecision {
                            at: cur,
                            reason: "source route exhausted before the target",
                        });
                    }
                    let slot = route[*pos];
                    *pos += 1;
                    forward_slot = Some(slot);
                }
            }
            if let Some(slot) = forward_slot {
                let (next, w) = graph.link(cur, slot as usize);
                length += w;
                cur = next;
                path.push(cur);
            }
        }
        Ok(RouteTrace { path, length })
    }

    /// Routing-table bits of `u`, split into M1 and M2 components
    /// (Table 3 of the paper).
    #[must_use]
    pub fn table_bits(&self, u: Node) -> SizeReport {
        let table = &self.tables[u.index()];
        let mut report = SizeReport::new(format!("two-mode table of {u}"));
        let host_bits = index_bits(table.phi.len());
        let dist_bits = self.codec.bits_per_distance(1e9); // exponent field sized below
        let _ = dist_bits;
        let dbits = self.codec.mantissa_bits() as u64 + index_bits(self.ladder_levels + 4);
        report.add("M1 neighbor distances", table.phi.len() as u64 * dbits);
        report.add(
            "M1 first-hop pointers",
            table.phi.len() as u64 * index_bits(self.dout),
        );
        let mut zeta_bits = 0u64;
        for z in &table.zetas {
            zeta_bits += z.len() as u64 * (2 * host_bits + self.virt_bits);
        }
        report.add("M1 translation maps", zeta_bits);
        report.add("M1 radii", self.levels as u64 * dbits);
        report.add("M2 witness handles", self.levels as u64 * id_bits(self.n));
        // M2 cluster membership: children routes, ranges, stored routes.
        let mut m2_bits = 0u64;
        for (i, per_level) in self.clusters.iter().enumerate() {
            let _ = i;
            for cluster in per_level {
                if let Some(k) = cluster.tree.member_index(u) {
                    for (_, route) in &cluster.child_routes[k] {
                        m2_bits += route.len() as u64 * index_bits(self.dout) + 2 * id_bits(self.n);
                        // the range boundaries
                    }
                    for &id in cluster.tree.targets() {
                        if cluster.tree.responsible(id) == Some(u) {
                            if let Some(route) = cluster.routes.get(&id) {
                                m2_bits +=
                                    route.len() as u64 * index_bits(self.dout) + id_bits(self.n);
                            }
                        }
                    }
                }
            }
        }
        report.add("M2 cluster storage", m2_bits);
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

    /// Routing-label bits of `t` (the M1 friend data plus `ID(t)`).
    #[must_use]
    pub fn label_bits(&self, t: Node) -> SizeReport {
        let label = &self.labels[t.index()];
        let mut report = SizeReport::new(format!("two-mode label of {t}"));
        let dbits = self.codec.mantissa_bits() as u64 + index_bits(self.ladder_levels + 4);
        report.add("target id", id_bits(self.n));
        report.add("zoom chain", label.f_idx.len() as u64 * self.virt_bits);
        report.add(
            "x friends",
            label.x_idx.len() as u64 * (self.virt_bits + dbits),
        );
        let y_count: u64 = label.y.iter().map(|v| v.len() as u64).sum();
        report.add(
            "y friends",
            y_count * (self.virt_bits + dbits)
                + self.levels as u64 * 2 * index_bits(self.ladder_levels),
        );
        report.add("radii", self.levels as u64 * dbits);
        report
    }

    /// Largest routing label, in bits.
    #[must_use]
    pub fn max_label_bits(&self) -> u64 {
        (0..self.n)
            .map(|i| self.label_bits(Node::new(i)).total_bits())
            .max()
            .unwrap_or(0)
    }

    /// Packet-header bits: label plus mode fields plus the largest source
    /// route (the `N_delta * ceil(log Dout)` term of Theorem B.1).
    #[must_use]
    pub fn header_bits(&self) -> u64 {
        let mode_bits = index_bits(self.levels + 1)
            + index_bits(self.ladder_levels + 1)
            + id_bits(self.n) // ball handle
            + (self.codec.mantissa_bits() as u64 + index_bits(self.ladder_levels + 4));
        let max_route = self
            .clusters
            .iter()
            .flatten()
            .flat_map(|c| c.routes.values().map(Vec::len))
            .max()
            .unwrap_or(0) as u64;
        self.max_label_bits() + mode_bits + max_route * index_bits(self.dout)
    }
}

/// The slot-by-slot shortest route between two nodes (each entry is the
/// out-link slot to take at the corresponding path node).
fn slot_route(graph: &Graph, apsp: &Apsp, from: Node, to: Node) -> Vec<u32> {
    let mut slots = Vec::new();
    let mut cur = from;
    while cur != to {
        let slot = apsp.first_hop_slot(cur, to).expect("connected graph");
        slots.push(slot);
        cur = graph.link(cur, slot as usize).0;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::StretchStats;
    use ron_graph::gen;

    fn setup(graph: Graph, delta: f64) -> (Graph, Apsp, TwoModeScheme) {
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let scheme = TwoModeScheme::build(&space, &graph, &apsp, delta);
        (graph, apsp, scheme)
    }

    #[test]
    fn delivers_all_pairs_on_grid() {
        let (graph, apsp, scheme) = setup(gen::grid_graph(4, 2), 0.25);
        let mut stats = TwoModeStats::default();
        let s = StretchStats::over_all_pairs(&graph, &apsp, |u, v| {
            scheme.route(&graph, u, v, &mut stats)
        })
        .unwrap();
        assert_eq!(s.pairs, 16 * 15);
        assert!(s.max_stretch <= 3.0, "stretch {}", s.max_stretch);
    }

    #[test]
    fn delivers_on_exponential_path() {
        // The large-aspect-ratio regime this scheme exists for.
        let (graph, apsp, scheme) = setup(gen::exponential_path(14), 0.25);
        let mut stats = TwoModeStats::default();
        let s = StretchStats::over_all_pairs(&graph, &apsp, |u, v| {
            scheme.route(&graph, u, v, &mut stats)
        })
        .unwrap();
        assert_eq!(s.pairs, 14 * 13);
        assert!(s.max_stretch <= 3.0, "stretch {}", s.max_stretch);
    }

    #[test]
    fn delivers_on_knn_graph() {
        let (graph, apsp, scheme) = setup(gen::knn_geometric(36, 2, 3, 3).0, 0.25);
        let mut stats = TwoModeStats::default();
        let s = StretchStats::over_all_pairs(&graph, &apsp, |u, v| {
            scheme.route(&graph, u, v, &mut stats)
        })
        .unwrap();
        assert!(s.max_stretch <= 3.0, "stretch {}", s.max_stretch);
    }

    #[test]
    fn mode_stats_accumulate() {
        let (graph, _, scheme) = setup(gen::exponential_path(12), 0.25);
        let mut stats = TwoModeStats::default();
        for i in 0..12 {
            for j in 0..12 {
                if i != j {
                    scheme
                        .route(&graph, Node::new(i), Node::new(j), &mut stats)
                        .unwrap();
                }
            }
        }
        // Some mode activity must have occurred.
        assert!(stats.m1_selections + stats.m2_switches > 0);
    }

    #[test]
    fn storage_reports_split_modes() {
        let (_, _, scheme) = setup(gen::grid_graph(3, 2), 0.25);
        let report = scheme.table_bits(Node::new(0));
        let names: Vec<&str> = report.parts().iter().map(|(p, _)| p.as_str()).collect();
        assert!(names.iter().any(|p| p.starts_with("M1")));
        assert!(names.iter().any(|p| p.starts_with("M2")));
        assert!(scheme.max_table_bits() > 0);
        assert!(scheme.header_bits() > 0);
        assert!(scheme.max_label_bits() > 0);
    }

    #[test]
    fn header_includes_source_route_budget() {
        let (_, _, scheme) = setup(gen::grid_graph(3, 2), 0.25);
        assert!(scheme.header_bits() >= scheme.max_label_bits());
    }
}
