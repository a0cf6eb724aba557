//! Theorem 5.2(a): the greedy small-world model on doubling metrics.
//!
//! Contacts of `u`:
//!
//! * **X-type**: for each cardinality level `i in [log n]`, `c log n`
//!   uniform samples from the ball `B_ui` (smallest ball with `n/2^i`
//!   nodes);
//! * **Y-type**: for each radius scale `j in [log Delta]`,
//!   `2 c alpha log n` samples from `B_u(2^j)` drawn proportionally to a
//!   doubling measure.
//!
//! Routing is greedy. Property (*): from a node in the annulus
//! `B_(t,i-1) \ B_ti`, a Y-contact reaches within `d/4` of `t` and the
//! next X-contact lands inside `B_ti` — two hops per cardinality level,
//! hence `O(log n)` hops total, independent of the aspect ratio.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ron_measure::doubling_measure;
use ron_metric::{cardinality_levels, distance_levels, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::model::{greedy_rule, route_with, ContactGraph, QueryOutcome};
use crate::sample;

/// The Theorem 5.2(a) model: sampled contacts plus greedy routing.
///
/// # Example
///
/// ```
/// use ron_metric::{gen, Node, Space};
/// use ron_smallworld::GreedyModel;
///
/// let space = Space::new(gen::uniform_cube(64, 2, 3));
/// let model = GreedyModel::sample(&space, 2.0, 42);
/// let outcome = model.query(&space, Node::new(0), Node::new(63)).unwrap();
/// assert!(outcome.hops() <= 30);
/// ```
#[derive(Clone, Debug)]
pub struct GreedyModel {
    contacts: ContactGraph,
    levels_card: usize,
    levels_dist: usize,
}

impl GreedyModel {
    /// Samples the contact graph. `c` scales the per-ring sample counts
    /// (the paper's Chernoff constant); contacts per ring is
    /// `ceil(c * log2 n)` for X-type and `2 ceil(alpha) ceil(c log2 n)`
    /// for Y-type with `alpha` bounded by 2 here (the experiment families
    /// are planar-ish; larger inputs can raise `c` instead).
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    #[must_use]
    pub fn sample<M: Metric>(space: &Space<M>, c: f64, seed: u64) -> Self {
        assert!(c > 0.0, "sample factor must be positive");
        let n = space.len();
        let levels_card = cardinality_levels(n);
        let levels_dist = distance_levels(space.index().aspect_ratio()) + 1;
        let nets = NestedNets::build(space);
        let mu = doubling_measure(space, &nets);
        let mut rng = StdRng::seed_from_u64(seed);
        let per_ring = (c * (n.max(2) as f64).log2()).ceil() as usize;
        let y_per_ring = 2 * 2 * per_ring;
        let min_dist = space.index().min_distance();

        let contacts: Vec<Vec<Node>> = space
            .nodes()
            .map(|u| {
                let mut list = Vec::new();
                for i in 0..levels_card {
                    let r = space.index().r_fraction(u, (0.5f64).powi(i as i32));
                    list.extend(sample::uniform_set_in_ball(space, u, r, per_ring, &mut rng));
                }
                for j in 0..levels_dist {
                    let r = min_dist * (2.0f64).powi(j as i32);
                    list.extend(sample::weighted_set_in_ball(
                        space, &mu, u, r, y_per_ring, &mut rng,
                    ));
                }
                list
            })
            .collect();
        GreedyModel {
            contacts: ContactGraph::new(contacts),
            levels_card,
            levels_dist,
        }
    }

    /// The sampled contact graph.
    #[must_use]
    pub fn contacts(&self) -> &ContactGraph {
        &self.contacts
    }

    /// Number of cardinality levels (`ceil(log2 n)`).
    #[must_use]
    pub fn levels_card(&self) -> usize {
        self.levels_card
    }

    /// Number of distance scales (`ceil(log2 Delta) + 1`).
    #[must_use]
    pub fn levels_dist(&self) -> usize {
        self.levels_dist
    }

    /// Default hop budget for queries: generous multiple of the `O(log n)`
    /// guarantee, so exceeding it signals a broken model rather than an
    /// unlucky sample.
    #[must_use]
    pub fn hop_budget(&self) -> usize {
        8 * (self.levels_card + 4)
    }

    /// Runs one greedy query. Returns `None` if the query stalls or blows
    /// the hop budget (with the sampled constants this indicates failure
    /// of the w.h.p. event; tests treat it as an error).
    #[must_use]
    pub fn query<M: Metric>(&self, space: &Space<M>, src: Node, tgt: Node) -> Option<QueryOutcome> {
        route_with(
            space,
            &self.contacts,
            src,
            tgt,
            self.hop_budget(),
            greedy_rule(space),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryStats;
    use ron_metric::{gen, LineMetric};

    #[test]
    fn all_queries_complete_in_log_hops_on_cube() {
        let space = Space::new(gen::uniform_cube(64, 2, 5));
        let model = GreedyModel::sample(&space, 2.0, 1);
        let stats = QueryStats::over_all_pairs(64, |u, v| model.query(&space, u, v));
        assert_eq!(stats.completed, stats.queries, "some queries failed");
        // O(log n): allow constant 4 over the 2-hops-per-level argument.
        assert!(
            stats.max_hops <= 4 * model.levels_card() + 8,
            "max hops {} too large",
            stats.max_hops
        );
    }

    #[test]
    fn exponential_line_stays_logarithmic_in_n() {
        // The headline: hops O(log n) even though log Delta = n - 1.
        let space = Space::new(LineMetric::exponential(32).unwrap());
        let model = GreedyModel::sample(&space, 3.0, 7);
        let stats = QueryStats::over_all_pairs(32, |u, v| model.query(&space, u, v));
        assert_eq!(stats.completed, stats.queries, "some queries failed");
        assert!(
            stats.max_hops <= 4 * model.levels_card() + 8,
            "max hops {} not O(log n)",
            stats.max_hops
        );
    }

    #[test]
    fn out_degree_scales_with_log_n_log_delta() {
        let space = Space::new(gen::uniform_cube(64, 2, 2));
        let model = GreedyModel::sample(&space, 1.0, 3);
        let bound = 8 * (model.levels_card() + model.levels_dist()) * 6 * 2;
        assert!(
            model.contacts().max_out_degree() <= bound,
            "degree {} above {bound}",
            model.contacts().max_out_degree()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let space = Space::new(gen::uniform_cube(24, 2, 9));
        let a = GreedyModel::sample(&space, 1.0, 11);
        let b = GreedyModel::sample(&space, 1.0, 11);
        for u in space.nodes() {
            assert_eq!(a.contacts().contacts_of(u), b.contacts().contacts_of(u));
        }
    }

    #[test]
    fn self_query_is_trivial() {
        let space = Space::new(gen::uniform_cube(16, 2, 4));
        let model = GreedyModel::sample(&space, 1.0, 2);
        let outcome = model.query(&space, Node::new(3), Node::new(3)).unwrap();
        assert_eq!(outcome.hops(), 0);
    }
}
