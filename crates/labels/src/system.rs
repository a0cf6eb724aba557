//! The shared X/Y-neighbor system of Theorems 3.2, 3.4 and B.1.
//!
//! For a parameter `delta`, every node `u` gets, per cardinality level
//! `i in [log n]` (with `r_ui = r_u(2^-i)` the radius of the smallest ball
//! holding an `2^-i` fraction of the nodes):
//!
//! * **X-neighbors** `X_ui`: representatives `h_B` of the balls of the
//!   `(2^-i, mu)`-packing `F_i` (counting measure) that fit inside `u`'s
//!   previous-level ball: `d(u, h_B) + radius(B) <= r_(u,i-1)` (the
//!   formulation of Theorem B.1, which implies Theorem 3.2's containment);
//! * **Y-neighbors** `Y_ui`: the net points of `G_j`,
//!   `j = floor(log2(delta * r_ui / 4))` (clamped to the ladder), inside
//!   the ball `B_u(12 r_ui / delta)`.
//!
//! Level 0 is canonicalized with `r_u0 := diameter` so the level-0 sets
//! (and hence their enumerations) coincide across nodes, as the paper
//! requires for the decoding base case.

use ron_core::par;
use ron_measure::{NodeMeasure, Packing};
use ron_metric::{cardinality_levels, BallOracle, Metric, Node, Space};
use ron_nets::NestedNets;

/// The per-node, per-level X/Y-neighbor structure shared by the labeling
/// and routing results.
///
/// # Example
///
/// ```
/// use ron_labels::NeighborSystem;
/// use ron_metric::{gen, Node, Space};
///
/// let space = Space::new(gen::uniform_cube(32, 2, 3));
/// let sys = NeighborSystem::build(&space, 0.5);
/// let u = Node::new(0);
/// // Every node has itself among its neighbors at the deepest level.
/// assert!(sys.neighbors_of(u).contains(&u) || !sys.neighbors_of(u).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct NeighborSystem {
    delta: f64,
    levels: usize,
    /// `r[u][i]`; `r[u][0]` is the diameter for every `u` (canonical).
    r: Vec<Vec<f64>>,
    nets: NestedNets,
    packings: Vec<Packing>,
    /// `x[u][i]`: indices into `packings[i].balls()`, sorted by rep id.
    x: Vec<Vec<Vec<u32>>>,
    /// `y[u][i]`: nodes, sorted by id.
    y: Vec<Vec<Vec<Node>>>,
}

impl NeighborSystem {
    /// Builds the system. `O(n^2 log n)`-ish work: one `(2^-i, mu)`-packing
    /// and one ball scan per level, with the per-node loops (radii and X/Y
    /// sets) fanned out on [`par`] and merged in node order, so the result
    /// is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)`.
    #[must_use]
    pub fn build<M: Metric, I: BallOracle>(space: &Space<M, I>, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let n = space.len();
        let levels = cardinality_levels(n);
        let diameter = space.index().diameter_ub();
        let counting = NodeMeasure::counting(n);
        let nets = NestedNets::build(space);

        let r: Vec<Vec<f64>> = par::map(n, |ui| {
            let u = Node::new(ui);
            (0..levels)
                .map(|i| {
                    if i == 0 {
                        diameter
                    } else {
                        space.index().r_fraction(u, (0.5f64).powi(i as i32))
                    }
                })
                .collect()
        });

        let packings: Vec<Packing> = (0..levels)
            .map(|i| Packing::build(space, &counting, (0.5f64).powi(i as i32)))
            .collect();

        type NodeLevels = (Vec<Vec<u32>>, Vec<Vec<Node>>);
        let per_node: Vec<NodeLevels> = par::map(n, |ui| {
            let u = Node::new(ui);
            let mut xs_all = Vec::with_capacity(levels);
            let mut ys_all = Vec::with_capacity(levels);
            for i in 0..levels {
                // X_ui: packing balls with d(u, h_B) + r_B below the
                // previous-level radius (infinite for i = 0).
                let limit = if i == 0 { f64::INFINITY } else { r[ui][i - 1] };
                let mut xs: Vec<u32> = packings[i]
                    .balls()
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| space.dist(u, b.rep) + b.radius <= limit)
                    .map(|(k, _)| k as u32)
                    .collect();
                xs.sort_by_key(|&k| packings[i].balls()[k as usize].rep);
                xs_all.push(xs);

                // Y_ui: net points at scale delta*r_ui/4 within 12 r_ui/delta.
                let rui = r[ui][i];
                let level = nets.level_for_scale(delta * rui / 4.0);
                let mut members = nets
                    .net(level)
                    .members_in_ball(space, u, 12.0 * rui / delta);
                members.sort_unstable();
                ys_all.push(members);
            }
            (xs_all, ys_all)
        });
        let mut x: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        let mut y: Vec<Vec<Vec<Node>>> = Vec::with_capacity(n);
        for (xs_all, ys_all) in per_node {
            x.push(xs_all);
            y.push(ys_all);
        }
        NeighborSystem {
            delta,
            levels,
            r,
            nets,
            packings,
            x,
            y,
        }
    }

    /// The construction parameter `delta`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of cardinality levels `ceil(log2 n)`.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// Whether the system is empty (never: construction panics earlier).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// The radius `r_ui` (level 0 canonicalized to the diameter).
    #[must_use]
    pub fn radius(&self, u: Node, i: usize) -> f64 {
        self.r[u.index()][i]
    }

    /// The nested net ladder.
    #[must_use]
    pub fn nets(&self) -> &NestedNets {
        &self.nets
    }

    /// The `(2^-i, mu)`-packing at level `i`.
    #[must_use]
    pub fn packing(&self, i: usize) -> &Packing {
        &self.packings[i]
    }

    /// Indices (into `packing(i).balls()`) of `u`'s level-`i` X-balls.
    #[must_use]
    pub fn x_ball_indices(&self, u: Node, i: usize) -> &[u32] {
        &self.x[u.index()][i]
    }

    /// The X-neighbors `X_ui` (ball representatives), in rep-id order.
    pub fn x_neighbors(&self, u: Node, i: usize) -> impl Iterator<Item = Node> + '_ {
        self.x[u.index()][i]
            .iter()
            .map(move |&k| self.packings[i].balls()[k as usize].rep)
    }

    /// The Y-neighbors `Y_ui`, in node-id order.
    #[must_use]
    pub fn y_neighbors(&self, u: Node, i: usize) -> &[Node] {
        &self.y[u.index()][i]
    }

    /// Net-ladder level backing `Y_ui` (the level the build chose).
    #[cfg(test)]
    fn y_net_level(&self, u: Node, i: usize) -> usize {
        self.nets
            .level_for_scale(self.delta * self.r[u.index()][i] / 4.0)
    }

    /// The nearest X-neighbor `x_ui` of `u` at level `i` (by distance, ties
    /// by node id), if any.
    #[must_use]
    pub fn nearest_x<M: Metric, I>(&self, space: &Space<M, I>, u: Node, i: usize) -> Option<Node> {
        self.x_neighbors(u, i)
            .map(|h| (space.dist(u, h), h))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, h)| h)
    }

    /// All distinct neighbors of `u` (X and Y, all levels), sorted by id.
    #[must_use]
    pub fn neighbors_of(&self, u: Node) -> Vec<Node> {
        let mut all: Vec<Node> = (0..self.levels)
            .flat_map(|i| {
                self.x_neighbors(u, i)
                    .chain(self.y_neighbors(u, i).iter().copied())
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The canonical level-0 neighbor set `X_0 ∪ Y_0`, identical for every
    /// node (sorted by id).
    #[must_use]
    pub fn level0_block(&self) -> Vec<Node> {
        let u = Node::new(0);
        let mut block: Vec<Node> = self
            .x_neighbors(u, 0)
            .chain(self.y_neighbors(u, 0).iter().copied())
            .collect();
        block.sort_unstable();
        block.dedup();
        block
    }

    /// Maximum number of distinct neighbors over all nodes — the
    /// triangulation *order* of Theorem 3.2.
    #[must_use]
    pub fn order(&self) -> usize {
        (0..self.len())
            .map(|i| self.neighbors_of(Node::new(i)).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::{gen, LineMetric, MetricExt};

    fn sys(n: usize, delta: f64) -> (Space<LineMetric>, NeighborSystem) {
        let space = Space::new(LineMetric::uniform(n).unwrap());
        let s = NeighborSystem::build(&space, delta);
        (space, s)
    }

    #[test]
    fn level0_sets_coincide() {
        let (space, s) = sys(32, 0.5);
        let block = s.level0_block();
        for u in space.nodes() {
            let x0: Vec<Node> = s.x_neighbors(u, 0).collect();
            let y0 = s.y_neighbors(u, 0);
            let mut all: Vec<Node> = x0.into_iter().chain(y0.iter().copied()).collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all, block, "level-0 block differs at {u}");
        }
    }

    #[test]
    fn y_neighbors_lie_in_their_ball_and_net() {
        let (space, s) = sys(64, 0.5);
        for u in space.nodes() {
            for i in 0..s.levels() {
                let rui = s.radius(u, i);
                let level = s.y_net_level(u, i);
                for &w in s.y_neighbors(u, i) {
                    assert!(space.dist(u, w) <= 12.0 * rui / s.delta() + 1e-9);
                    assert!(s.nets().net(level).contains(w));
                }
            }
        }
    }

    #[test]
    fn x_neighbors_respect_prev_radius() {
        let (space, s) = sys(64, 0.5);
        for u in space.nodes() {
            for i in 1..s.levels() {
                let limit = s.radius(u, i - 1);
                for &k in s.x_ball_indices(u, i) {
                    let b = &s.packing(i).balls()[k as usize];
                    assert!(space.dist(u, b.rep) + b.radius <= limit + 1e-9);
                }
            }
        }
    }

    #[test]
    fn radii_non_increasing_in_level() {
        let (space, s) = sys(64, 0.5);
        for u in space.nodes() {
            for i in 1..s.levels() {
                assert!(s.radius(u, i) <= s.radius(u, i - 1) + 1e-12);
            }
        }
    }

    #[test]
    fn claim_3_3_radius_lipschitz() {
        // |r_ui - r_vi| <= d_uv for i >= 1 (level 0 is canonicalized).
        let space = Space::new(gen::uniform_cube(48, 2, 5));
        let s = NeighborSystem::build(&space, 0.5);
        for u in space.nodes() {
            for v in space.nodes() {
                let d = space.dist(u, v);
                for i in 1..s.levels() {
                    let gap = (s.radius(u, i) - s.radius(v, i)).abs();
                    assert!(gap <= d + 1e-9, "Claim 3.3 fails: |{gap}| > {d}");
                }
            }
        }
    }

    #[test]
    fn y_rings_obey_lemma_1_4() {
        // |Y_ui| <= (4 * ball_radius / net_radius)^alpha for the net that
        // backs the ring; alpha ~ 1 on the line, allow 1.6 for finite-size
        // effects. This is the real content of the (1/delta)^O(alpha)
        // order bound — the constant is large but n-independent.
        let (space, s) = sys(256, 0.5);
        for u in space.nodes() {
            for i in 0..s.levels() {
                let count = s.y_neighbors(u, i).len() as f64;
                let ball_r = 12.0 * s.radius(u, i) / s.delta();
                let net_r = s.nets().radius(s.y_net_level(u, i));
                if ball_r < net_r {
                    continue; // Lemma 1.4 needs r' >= r
                }
                let bound = (4.0 * ball_r / net_r).powf(1.6);
                assert!(
                    count <= bound,
                    "Y ring too large at ({u},{i}): {count} > {bound}"
                );
            }
        }
    }

    #[test]
    fn order_saturates_on_exponential_line() {
        // On the exponential line rings are tiny (points are geometrically
        // sparse), so the order tracks the level count, not n.
        let small = Space::new(LineMetric::exponential(16).unwrap());
        let large = Space::new(LineMetric::exponential(64).unwrap());
        let s_small = NeighborSystem::build(&small, 0.5);
        let s_large = NeighborSystem::build(&large, 0.5);
        let per_level_small = s_small.order() as f64 / s_small.levels() as f64;
        let per_level_large = s_large.order() as f64 / s_large.levels() as f64;
        assert!(
            per_level_large <= per_level_small * 3.0,
            "per-level order grew with n: {per_level_small} -> {per_level_large}"
        );
    }

    #[test]
    fn nearest_x_is_nearest() {
        let (space, s) = sys(64, 0.5);
        for u in space.nodes() {
            for i in 0..s.levels() {
                if let Some(h) = s.nearest_x(&space, u, i) {
                    let dh = space.dist(u, h);
                    for other in s.x_neighbors(u, i) {
                        assert!(dh <= space.dist(u, other) + 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn works_on_exponential_line() {
        let space = Space::new(LineMetric::exponential(24).unwrap());
        let s = NeighborSystem::build(&space, 0.25);
        assert_eq!(s.levels(), 5); // ceil(log2 24)
        assert!(s.order() >= 1);
        assert_eq!(space.metric().aspect_ratio(), (2.0f64).powi(23) - 1.0);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        let space = Space::new(LineMetric::uniform(4).unwrap());
        let _ = NeighborSystem::build(&space, 1.5);
    }
}
