//! Doubling measure construction (Theorem 1.3).
//!
//! Theorem 1.3 (Volberg–Konyagin, Wu, Luukkainen–Saksman, Mendel–Har-Peled):
//! every metric of doubling dimension `alpha` carries a `2^O(alpha)`-
//! doubling measure, efficiently constructible for finite metrics. The
//! construction here follows the net-tree mass-splitting scheme of the
//! efficient variants: build the nested net ladder, link each level-`j` net
//! point to its nearest parent in the level-`j+1` net, then push mass down
//! from the single root, splitting each parent's mass equally among its
//! children. A net point is always its own child one level down (the
//! ladder is nested), so mass reaches every node at level 0 (= all nodes).
//!
//! Per substitution #3 in DESIGN.md we do not port the measure-theoretic
//! proof of the `2^O(alpha)` constant; instead
//! [`measured_doubling_constant`] reports the constant actually achieved,
//! and the tests pin it on the experiment families (grid, cube, exponential
//! line).

use ron_metric::{BallOracle, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::{BallMassIndex, NodeMeasure};

/// Builds a doubling measure for the space via net-tree mass splitting.
///
/// The returned measure is normalized. On the exponential line it
/// reproduces the `mu(2^i) ~ 2^(i-n)` shape the paper quotes (tests check
/// monotonicity and the measured doubling constant).
///
/// `O(n^2 log Delta)` time, dominated by the net ladder.
#[must_use]
pub fn doubling_measure<M: Metric, I: BallOracle>(
    space: &Space<M, I>,
    nets: &NestedNets,
) -> NodeMeasure {
    let n = space.len();
    let top = nets.levels() - 1;
    // mass[v] holds the mass currently assigned to net point v at the level
    // being processed; starts with everything at the top-level single root.
    let mut mass = vec![0.0f64; n];
    let root_members = nets.net(top).members();
    for &r in root_members {
        mass[r.index()] = 1.0 / root_members.len() as f64;
    }
    for j in (0..top).rev() {
        // Children at level j of each level j+1 parent: nearest parent by
        // distance (ties by node id via the index ordering).
        let parents = nets.net(j + 1);
        let child_net = nets.net(j);
        let mut children_of: Vec<Vec<Node>> = vec![Vec::new(); n];
        for &c in child_net.members() {
            let (_, p) = parents.nearest_member(space, c);
            children_of[p.index()].push(c);
        }
        let mut next = vec![0.0f64; n];
        for &p in parents.members() {
            let kids = &children_of[p.index()];
            // `kids` is sorted (children are pushed in net-member order), so
            // membership is a binary search, matching `RingView::contains`.
            debug_assert!(
                kids.binary_search(&p).is_ok(),
                "nested ladder: parent {p} must be its own child"
            );
            let share = mass[p.index()] / kids.len() as f64;
            for &c in kids {
                next[c.index()] += share;
            }
        }
        mass = next;
    }
    NodeMeasure::from_weights(mass)
}

/// Measures the doubling constant of `measure` on `space`: the maximum of
/// `mu(B_u(r)) / mu(B_u(r/2))` over all nodes and radii `r` swept in
/// powers of 2 from the minimum distance to the diameter.
///
/// A measure is `s`-doubling iff this value is at most `s`.
#[must_use]
pub fn measured_doubling_constant<M: Metric>(space: &Space<M>, measure: &NodeMeasure) -> f64 {
    let idx = BallMassIndex::build(space, measure);
    let mut worst = 1.0f64;
    let mut r = space.index().min_distance();
    let top = space.index().diameter() * 2.0;
    while r <= top {
        for u in space.nodes() {
            let half = idx.ball_mass(u, r / 2.0);
            let full = idx.ball_mass(u, r);
            if half > 0.0 {
                worst = worst.max(full / half);
            }
        }
        r *= 2.0;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::{gen, LineMetric};

    fn build(space: &Space<impl Metric>) -> NodeMeasure {
        let nets = NestedNets::build(space);
        doubling_measure(space, &nets)
    }

    #[test]
    fn measure_is_normalized_and_positive() {
        let space = Space::new(gen::uniform_cube(64, 2, 3));
        let mu = build(&space);
        let total: f64 = mu.masses().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(mu.min_mass() > 0.0);
    }

    #[test]
    fn uniform_line_measure_is_roughly_uniform() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mu = build(&space);
        // Max/min mass ratio stays modest on a homogeneous space.
        assert!(mu.max_mass() / mu.min_mass() <= 16.0);
    }

    #[test]
    fn exponential_line_oversamples_sparse_points() {
        let space = Space::new(LineMetric::exponential(16).unwrap());
        let mu = build(&space);
        // The isolated large points must carry far more mass than the
        // crowded small ones: compare the largest point to the smallest.
        let small = mu.mass(Node::new(0));
        let large = mu.mass(Node::new(15));
        assert!(
            large > 16.0 * small,
            "expected geometric mass growth, got small={small}, large={large}"
        );
    }

    #[test]
    fn doubling_constant_is_bounded_on_families() {
        // The paper's guarantee is 2^O(alpha); for our families alpha <= ~2.5
        // so a constant of 64 is a generous pin that still catches regressions.
        let space = Space::new(gen::uniform_cube(96, 2, 1));
        let mu = build(&space);
        let s = measured_doubling_constant(&space, &mu);
        assert!(s <= 64.0, "cube: doubling constant {s} too large");
        let line = Space::new(LineMetric::exponential(20).unwrap());
        let mu = build(&line);
        let s = measured_doubling_constant(&line, &mu);
        assert!(s <= 64.0, "exp line: doubling constant {s} too large");
    }

    #[test]
    fn counting_measure_is_not_doubling_on_exponential_line() {
        // Motivation check: the counting measure fails to be s-doubling for
        // small s on the exponential line, which is why Theorem 1.3 matters.
        let space = Space::new(LineMetric::exponential(20).unwrap());
        let counting = NodeMeasure::counting(20);
        let s_counting = measured_doubling_constant(&space, &counting);
        let nets = NestedNets::build(&space);
        let s_doubling = measured_doubling_constant(&space, &doubling_measure(&space, &nets));
        assert!(
            s_counting > s_doubling,
            "doubling measure ({s_doubling}) should beat counting ({s_counting})"
        );
    }
}
