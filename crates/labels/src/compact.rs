//! Compact (1+delta)-approximate distance labels without global
//! identifiers (Theorem 3.4).
//!
//! The global-id scheme ([`GlobalIdDls`](crate::GlobalIdDls)) pays
//! `ceil(log n)` bits per beacon. Theorem 3.4 removes them: a label knows
//! its beacons only through *local indices*, and two labels find a common
//! beacon by walking the target's **zooming sequence** `f_u0, f_u1, ...`
//! and translating, level by level, between each other's enumerations:
//!
//! * every node `u` fixes a *host enumeration* `phi_u` of its X/Y-neighbor
//!   set, laid out so the canonical level-0 block gets identical indices
//!   at every node (the decoding base case);
//! * every node `w` fixes a *virtual enumeration* `psi_w` of its virtual
//!   neighbors `T_w = X_w ∪ Z_w ∪ (∪_{v in X_w} Z_v)`, where
//!   `Z_wj = B_w(2^j) ∩ G_(floor(log2(2^j delta/64)))`; zooming steps are
//!   stored as `psi` indices (`O(log(K^2 log n log Delta))` bits each);
//! * the *translation functions* `zeta_ui(phi_u(v), psi_v(w)) = phi_u(w)`
//!   convert a `psi` index at a known neighbor into a host index.
//!
//! Decoding collects every common beacon it can identify (the level-0
//! block, the chain points themselves — common by Claim 3.6 — and the
//! `zeta` joins at each level) and returns the best `D+`. The proof of
//! Theorem 3.4 guarantees a common beacon within `delta * d` is always
//! among them.
//!
//! Two deviations from the paper's text, per DESIGN.md §3 item 6: the
//! `Z`-sets extend 3 scale levels past the top of the ladder (absorbing
//! constant-factor slack in Claim 3.5's rounding), and zoom-chain
//! memberships `f_(u,i) ∈ T_(f_(u,i-1))` (Claim 3.5(c)) are enforced by
//! explicit insertion — the count of such insertions is reported by
//! [`CompactScheme::forced_virtual_insertions`] and observed to be zero or
//! negligible in tests.

use std::collections::BTreeSet;

use ron_core::bits::{index_bits, SizeReport};
use ron_core::{par, Enumeration, TranslationFn};
use ron_metric::{BallOracle, Metric, Node, Space};

use crate::{DistanceCodec, EncodedDistance, NeighborSystem};

/// Divisor in the net scale of the virtual-neighbor sets
/// `Z_wj = B_w(2^j) ∩ G_(floor(log2(2^j delta / Z_SCALE_DIVISOR)))`.
const Z_SCALE_DIVISOR: f64 = 64.0;

/// Extra scale levels past the ladder top for the `Z`-sets (the paper's
/// `j <= log Delta` plus slack for `x + d_uf` overshooting the diameter).
const Z_EXTRA_LEVELS: usize = 3;

/// The label of one node under Theorem 3.4.
///
/// Contains everything the decoder may read: quantized distances to the
/// host neighbors, the translation maps, and the zooming sequence encoded
/// via virtual indices. No global node identifiers appear.
#[derive(Clone, Debug)]
pub struct CompactLabel {
    /// Quantized distance to the host neighbor at each host index.
    host_dists: Vec<EncodedDistance>,
    /// `zeta[i]` translates level-`i` keys: entries
    /// `(phi_u(v), psi_v(w), phi_u(w))`.
    zeta: Vec<TranslationFn>,
    /// `phi_u(f_u0)` — inside the canonical level-0 block.
    zoom_first: u32,
    /// `zoom_virtual[i-1] = psi_(f_(u,i-1))(f_ui)` for `i >= 1`.
    zoom_virtual: Vec<u32>,
}

impl CompactLabel {
    /// Number of host neighbors.
    #[must_use]
    pub fn host_len(&self) -> usize {
        self.host_dists.len()
    }
}

/// The Theorem 3.4 labeling scheme for one metric space.
///
/// # Example
///
/// ```
/// use ron_labels::CompactScheme;
/// use ron_metric::{gen, Node, Space};
///
/// let space = Space::new(gen::uniform_cube(32, 2, 3));
/// let scheme = CompactScheme::build(&space, 0.2);
/// let (u, v) = (Node::new(0), Node::new(31));
/// let est = scheme.estimate(u, v);
/// let d = space.dist(u, v);
/// assert!(est >= d && est <= d * 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct CompactScheme {
    codec: DistanceCodec,
    levels: usize,
    level0_len: u32,
    aspect_ratio: f64,
    /// Bits for one virtual-enumeration index (global max `|T_w|`).
    virt_bits: u64,
    labels: Vec<CompactLabel>,
    forced_insertions: usize,
}

impl CompactScheme {
    /// Builds the scheme at parameter `delta` (with a fresh
    /// [`NeighborSystem`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)`.
    #[must_use]
    pub fn build<M: Metric, I: BallOracle>(space: &Space<M, I>, delta: f64) -> Self {
        let system = NeighborSystem::build(space, delta);
        Self::from_system(space, &system)
    }

    /// Builds the scheme from an existing neighbor system.
    ///
    /// The per-node stages (zoom chains, `Z`-sets, virtual unions, label
    /// assembly) each fan out on [`par`] and merge in node order, so the
    /// labels are identical for every thread count.
    #[must_use]
    pub fn from_system<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        system: &NeighborSystem,
    ) -> Self {
        let _n = space.len();
        let levels = system.levels();
        let delta = system.delta();
        let nets = system.nets();
        let diameter = space.index().diameter_ub();
        let min_dist = space.index().min_distance();
        let codec = DistanceCodec::for_delta(delta);

        // --- Zooming chains: f[u][i], the nearest net point at scale
        // r_ui / 4 (level 0 canonicalized to the diameter).
        let zoom: Vec<Vec<Node>> = par::map(space.len(), |ui| {
            let u = Node::new(ui);
            (0..levels)
                .map(|i| {
                    let scale = system.radius(u, i) / 4.0;
                    let scale = if i == 0 { diameter / 4.0 } else { scale };
                    let level = nets.level_for_scale(scale);
                    nets.net(level).nearest_member(space, u).1
                })
                .collect()
        });

        // --- Z-sets: Z_w = union over j of B_w(2^j) ∩ G_(z-level(j)).
        let ladder_top = nets.levels() - 1 + Z_EXTRA_LEVELS;
        let z_sets: Vec<BTreeSet<Node>> = par::map(space.len(), |wi| {
            let w = Node::new(wi);
            let mut set = BTreeSet::new();
            for j in 1..=ladder_top {
                let radius = min_dist * (2.0f64).powi(j as i32);
                let level = nets.level_for_scale(radius * delta / Z_SCALE_DIVISOR);
                for m in nets.net(level).members_in_ball(space, w, radius) {
                    set.insert(m);
                }
            }
            set
        });

        // --- Virtual neighbor sets T_u = X_u ∪ Z_u ∪ (∪_{v in X_u} Z_v).
        let mut t_sets: Vec<BTreeSet<Node>> = par::map(space.len(), |ui| {
            let u = Node::new(ui);
            let mut t = z_sets[ui].clone();
            for i in 0..levels {
                for h in system.x_neighbors(u, i) {
                    t.insert(h);
                    t.extend(z_sets[h.index()].iter().copied());
                }
            }
            t
        });

        // --- Enforce Claim 3.5(c): f_(u,i) ∈ T_(f_(u,i-1)).
        let mut forced_insertions = 0usize;
        for u in space.nodes() {
            for i in 1..levels {
                let prev = zoom[u.index()][i - 1];
                let cur = zoom[u.index()][i];
                if t_sets[prev.index()].insert(cur) {
                    forced_insertions += 1;
                }
            }
        }

        let psi: Vec<Enumeration> = t_sets
            .iter()
            .map(|t| Enumeration::new(t.iter().copied().collect()))
            .collect();
        let virt_bits = psi.iter().map(Enumeration::index_bits).max().unwrap_or(0);

        // --- Host enumerations: canonical level-0 block first.
        let block = system.level0_block();
        let level0_len = block.len() as u32;
        let block_set: BTreeSet<Node> = block.iter().copied().collect();
        let phi: Vec<Enumeration> = par::map(space.len(), |ui| {
            let mut order = block.clone();
            order.extend(
                system
                    .neighbors_of(Node::new(ui))
                    .into_iter()
                    .filter(|v| !block_set.contains(v)),
            );
            Enumeration::from_ordered(order)
        });

        // --- Per-node labels.
        let labels: Vec<CompactLabel> = par::map(space.len(), |ui| {
            let u = Node::new(ui);
            let phi_u = &phi[u.index()];
            let host_dists: Vec<EncodedDistance> = phi_u
                .nodes()
                .iter()
                .map(|&v| codec.encode(space.dist(u, v)))
                .collect();

            // Translation maps zeta_ui, i in 0..levels-1.
            let zeta: Vec<TranslationFn> = (0..levels.saturating_sub(1))
                .map(|i| {
                    let mut triples = Vec::new();
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
                    for &v in &level_i {
                        let x = phi_u.index_of(v).expect("level set is in host enum");
                        let psi_v = &psi[v.index()];
                        for &w in &level_next {
                            if let Some(y) = psi_v.index_of(w) {
                                let z = phi_u.index_of(w).expect("level set is in host enum");
                                triples.push((x, y, z));
                            }
                        }
                    }
                    TranslationFn::from_triples(triples)
                })
                .collect();

            // Zooming sequence encoding.
            let f0 = zoom[u.index()][0];
            let zoom_first = phi_u
                .index_of(f0)
                .expect("f_u0 lies in the canonical level-0 block");
            debug_assert!(zoom_first < level0_len, "f_u0 outside the level-0 block");
            let zoom_virtual: Vec<u32> = (1..levels)
                .map(|i| {
                    let prev = zoom[u.index()][i - 1];
                    let cur = zoom[u.index()][i];
                    psi[prev.index()]
                        .index_of(cur)
                        .expect("zoom membership was enforced")
                })
                .collect();

            CompactLabel {
                host_dists,
                zeta,
                zoom_first,
                zoom_virtual,
            }
        });

        CompactScheme {
            codec,
            levels,
            level0_len,
            aspect_ratio: space.index().aspect_ratio(),
            virt_bits,
            labels,
            forced_insertions,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the scheme is empty (never by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of cardinality levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The label of `u`.
    #[must_use]
    pub fn label(&self, u: Node) -> &CompactLabel {
        &self.labels[u.index()]
    }

    /// How many zoom memberships had to be inserted into `T`-sets beyond
    /// the paper's definition (Claim 3.5(c) predicts 0; see module docs).
    #[must_use]
    pub fn forced_virtual_insertions(&self) -> usize {
        self.forced_insertions
    }

    /// The `(1 + O(delta))`-approximate distance estimate `D+`, computed
    /// **from the two labels only**.
    #[must_use]
    pub fn estimate(&self, u: Node, v: Node) -> f64 {
        self.estimate_labels(self.label(u), self.label(v))
    }

    /// Label-only estimation: decodes a `D+` upper bound from two labels.
    ///
    /// Walks both zooming chains, translating through `zeta` maps, and
    /// takes the best sum over every identified common beacon.
    #[must_use]
    pub fn estimate_labels(&self, a: &CompactLabel, b: &CompactLabel) -> f64 {
        self.estimator().estimate(a, b)
    }

    /// The scheme's decoding constants, detached from the label store.
    ///
    /// In a distributed deployment every node carries these few words of
    /// protocol configuration and the *labels it has learned* — never the
    /// whole label table — so a forwarding rule that reads labels (e.g.
    /// Theorem 4.1's in `ron_routing::SimpleScheme`) takes a
    /// [`LabelEstimator`] instead of a back-reference to the scheme.
    #[must_use]
    pub fn estimator(&self) -> LabelEstimator {
        LabelEstimator {
            codec: self.codec,
            levels: self.levels,
            level0_len: self.level0_len,
        }
    }
}

/// The label-decoding protocol constants of a [`CompactScheme`]: the
/// distance codec, the level count and the canonical level-0 block
/// length. `estimate` is a pure function of two labels given these
/// constants — no access to the scheme's label table — which is what
/// makes label-based routing *strongly local*.
#[derive(Clone, Copy, Debug)]
pub struct LabelEstimator {
    codec: DistanceCodec,
    levels: usize,
    level0_len: u32,
}

impl LabelEstimator {
    /// Decodes a `D+` upper bound from two labels (same arithmetic as
    /// [`CompactScheme::estimate_labels`]).
    #[must_use]
    pub fn estimate(&self, a: &CompactLabel, b: &CompactLabel) -> f64 {
        let mut best = f64::INFINITY;
        // Candidates from the canonical level-0 block (indices coincide).
        for k in 0..self.level0_len as usize {
            let s = self.codec.decode(a.host_dists[k]) + self.codec.decode(b.host_dists[k]);
            best = best.min(s);
        }
        // Candidates from the two zooming chains.
        best = best.min(self.chain_candidates(a, b));
        best = best.min(self.chain_candidates(b, a));
        best
    }

    /// Walks `own`'s zooming chain, translating into `other`'s host
    /// enumeration, harvesting common beacons along the way. Returns the
    /// best `D+` candidate found.
    fn chain_candidates(&self, own: &CompactLabel, other: &CompactLabel) -> f64 {
        let mut best = f64::INFINITY;
        // Level-0 chain point: indices coincide on the canonical block.
        let mut f_own = own.zoom_first;
        let mut f_other = own.zoom_first;
        let add = |o: u32, t: u32, best: &mut f64| {
            let s = self.codec.decode(own.host_dists[o as usize])
                + self.codec.decode(other.host_dists[t as usize]);
            *best = best.min(s);
        };
        add(f_own, f_other, &mut best);
        for i in 1..self.levels {
            let zeta_own = &own.zeta[i - 1];
            let zeta_other = &other.zeta[i - 1];
            // Harvest: join both maps' entries under the current chain
            // point on the shared virtual index y.
            let ea = zeta_own.entries_for(f_own);
            let eb = zeta_other.entries_for(f_other);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ea.len() && q < eb.len() {
                match ea[p].1.cmp(&eb[q].1) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        add(ea[p].2, eb[q].2, &mut best);
                        p += 1;
                        q += 1;
                    }
                }
            }
            // Advance the chain.
            let y = own.zoom_virtual[i - 1];
            let next_own = zeta_own
                .lookup(f_own, y)
                .expect("own chain is always translatable (Claims 3.5c/3.6)");
            let Some(next_other) = zeta_other.lookup(f_other, y) else {
                break; // chain left the other node's neighbor sets
            };
            f_own = next_own;
            f_other = next_other;
            add(f_own, f_other, &mut best);
        }
        best
    }
}

impl CompactScheme {
    /// Bit size of `u`'s label under the paper's encoding.
    #[must_use]
    pub fn label_bits(&self, u: Node) -> SizeReport {
        let label = self.label(u);
        let host_bits = index_bits(label.host_len());
        let mut report = SizeReport::new(format!("compact label of {u}"));
        report.add(
            "distances",
            label.host_len() as u64 * self.codec.bits_per_distance(self.aspect_ratio),
        );
        let mut zeta_bits = 0u64;
        for z in &label.zeta {
            zeta_bits += z.len() as u64 * (host_bits + self.virt_bits + host_bits);
        }
        report.add("translation maps", zeta_bits);
        report.add(
            "zooming sequence",
            host_bits + label.zoom_virtual.len() as u64 * self.virt_bits,
        );
        report
    }

    /// The largest label size over all nodes, in bits.
    #[must_use]
    pub fn max_label_bits(&self) -> u64 {
        (0..self.len())
            .map(|i| self.label_bits(Node::new(i)).total_bits())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::{gen, LineMetric};

    fn exhaustive_check<M: Metric>(space: &Space<M>, delta: f64) -> CompactScheme {
        let scheme = CompactScheme::build(space, delta);
        // Upper bound from a beacon within delta*d, plus quantization.
        let factor = (1.0 + 2.0 * delta) * (1.0 + delta);
        for u in space.nodes() {
            for v in space.nodes() {
                if u >= v {
                    continue;
                }
                let d = space.dist(u, v);
                let est = scheme.estimate(u, v);
                assert!(est >= d - 1e-9, "({u},{v}): estimate {est} below true {d}");
                assert!(
                    est <= d * factor * (1.0 + 1e-9),
                    "({u},{v}): estimate {est} exceeds {factor} * {d}"
                );
            }
        }
        scheme
    }

    #[test]
    fn accurate_on_uniform_line() {
        let space = Space::new(LineMetric::uniform(48).unwrap());
        exhaustive_check(&space, 0.25);
    }

    #[test]
    fn accurate_on_cube() {
        let space = Space::new(gen::uniform_cube(48, 2, 21));
        exhaustive_check(&space, 0.2);
    }

    #[test]
    fn accurate_on_clusters() {
        let space = Space::new(gen::clustered(48, 2, 5, 0.02, 13));
        exhaustive_check(&space, 0.2);
    }

    #[test]
    fn accurate_on_exponential_line() {
        let space = Space::new(LineMetric::exponential(24).unwrap());
        exhaustive_check(&space, 0.25);
    }

    #[test]
    fn forced_insertions_are_negligible() {
        // Claim 3.5(c) predicts the zoom chain is already inside the
        // virtual sets; allow a tiny fraction for constant-factor slack.
        let space = Space::new(gen::uniform_cube(64, 2, 2));
        let scheme = CompactScheme::build(&space, 0.25);
        let total_chain = 64 * (scheme.levels() - 1);
        assert!(
            scheme.forced_virtual_insertions() * 10 <= total_chain,
            "too many forced insertions: {}/{}",
            scheme.forced_virtual_insertions(),
            total_chain
        );
    }

    #[test]
    fn estimate_is_symmetric() {
        let space = Space::new(gen::uniform_cube(32, 2, 6));
        let scheme = CompactScheme::build(&space, 0.25);
        for u in space.nodes() {
            for v in space.nodes() {
                let a = scheme.estimate(u, v);
                let b = scheme.estimate(v, u);
                assert!((a - b).abs() < 1e-12, "asymmetric estimate at ({u},{v})");
            }
        }
    }

    #[test]
    fn self_estimate_is_zero() {
        let space = Space::new(gen::uniform_cube(24, 2, 6));
        let scheme = CompactScheme::build(&space, 0.25);
        for u in space.nodes() {
            assert_eq!(scheme.estimate(u, u), 0.0);
        }
    }

    #[test]
    fn both_label_sizes_are_accounted_and_the_zoom_chain_spans_the_ladder() {
        use crate::{GlobalIdDls, Triangulation};
        // Both accountings produce a size, and a compact label's zoom
        // chain holds one virtual index per level below the top. Whether
        // compact labels beat global-id labels (Theorem 3.4) is not
        // checked here.
        let space = Space::new(gen::uniform_cube(64, 2, 9));
        let delta = 0.25;
        let scheme = CompactScheme::build(&space, delta);
        let tri = Triangulation::build(&space, delta);
        let dls = GlobalIdDls::from_triangulation(&space, &tri);
        assert!(scheme.max_label_bits() > 0);
        assert!(dls.max_label_bits() > 0);
        let label = scheme.label(Node::new(0));
        assert_eq!(label.zoom_virtual.len(), scheme.levels() - 1);
    }

    #[test]
    fn labels_expose_sizes() {
        let space = Space::new(gen::uniform_cube(24, 2, 1));
        let scheme = CompactScheme::build(&space, 0.3);
        let label = scheme.label(Node::new(3));
        assert!(label.host_len() > 0);
        let report = scheme.label_bits(Node::new(3));
        assert!(report.total_bits() > 0);
        assert_eq!(report.parts().len(), 3);
    }

    #[test]
    fn two_node_space() {
        let space = Space::new(LineMetric::new(vec![0.0, 5.0]).unwrap());
        let scheme = CompactScheme::build(&space, 0.25);
        let est = scheme.estimate(Node::new(0), Node::new(1));
        assert!((5.0..=5.0 * 1.9).contains(&est));
    }
}
