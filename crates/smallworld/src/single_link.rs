//! Theorem 5.5: one long-range contact per node on a graph of local
//! contacts.
//!
//! This is Kleinberg's original setting [30] generalized to doubling
//! shortest-path metrics: each node draws a scale `j` uniformly from
//! `[log Delta]` and one contact from `B_u(2^j)` proportionally to a
//! doubling measure. Greedy routing over local edges plus the long link
//! completes in `2^O(alpha) log^2 Delta` hops (in expectation and w.h.p.):
//! local edges always give progress, and each distance-halving event
//! succeeds with probability `1 / (2^O(alpha) log Delta)`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ron_graph::Graph;
use ron_measure::doubling_measure;
use ron_metric::{distance_levels, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::model::QueryOutcome;
use crate::sample;

/// The Theorem 5.5 model: a local-contact graph plus exactly one
/// long-range contact per node.
///
/// # Example
///
/// ```
/// use ron_graph::{gen, Apsp};
/// use ron_metric::{Node, Space};
/// use ron_smallworld::SingleLinkModel;
///
/// let graph = gen::grid_graph(6, 2);
/// let apsp = Apsp::compute(&graph);
/// let space = Space::new(apsp.to_metric()?);
/// let model = SingleLinkModel::sample(&space, &graph, 7);
/// let outcome = model.query(&space, &graph, Node::new(0), Node::new(35)).unwrap();
/// assert!(outcome.hops() >= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SingleLinkModel {
    long: Vec<Node>,
    levels_dist: usize,
}

impl SingleLinkModel {
    /// Samples one long-range contact per node; `space` must be the
    /// shortest-path metric of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if arities mismatch.
    #[must_use]
    pub fn sample<M: Metric>(space: &Space<M>, graph: &Graph, seed: u64) -> Self {
        assert_eq!(space.len(), graph.len(), "graph/space arity mismatch");
        let levels_dist = distance_levels(space.index().aspect_ratio()) + 1;
        let nets = NestedNets::build(space);
        let mu = doubling_measure(space, &nets);
        let min_dist = space.index().min_distance();
        let mut rng = StdRng::seed_from_u64(seed);
        let long: Vec<Node> = space
            .nodes()
            .map(|u| {
                let j = rng.random_range(0..levels_dist);
                let r = min_dist * (2.0f64).powi(j as i32);
                sample::weighted_in_ball(space, &mu, u, r, &mut rng).unwrap_or(u)
            })
            .collect();
        SingleLinkModel { long, levels_dist }
    }

    /// The long-range contact of `u` (possibly `u` itself when the drawn
    /// ball contained only `u`).
    #[cfg(test)]
    fn long_contact(&self, u: Node) -> Node {
        self.long[u.index()]
    }

    /// Number of distance scales.
    #[must_use]
    pub fn levels_dist(&self) -> usize {
        self.levels_dist
    }

    /// Hop budget: a generous multiple of `log^2 Delta` plus the local
    /// walk slack.
    #[must_use]
    pub fn hop_budget(&self, n: usize) -> usize {
        16 * self.levels_dist * self.levels_dist + 8 * n
    }

    /// Greedy query over local edges plus the long links, in the graph's
    /// shortest-path metric.
    #[must_use]
    pub fn query<M: Metric>(
        &self,
        space: &Space<M>,
        graph: &Graph,
        src: Node,
        tgt: Node,
    ) -> Option<QueryOutcome> {
        let budget = self.hop_budget(space.len());
        let mut path = vec![src];
        let mut cur = src;
        while cur != tgt {
            if path.len() > budget {
                return None;
            }
            let du = space.dist(cur, tgt);
            let candidates = graph
                .out_links(cur)
                .map(|(v, _)| v)
                .chain(std::iter::once(self.long[cur.index()]));
            let next = candidates
                .map(|v| (space.dist(v, tgt), v))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .filter(|&(d, _)| d < du)
                .map(|(_, v)| v)?;
            cur = next;
            path.push(cur);
        }
        Some(QueryOutcome { path })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryStats;
    use ron_graph::{gen, Apsp};

    fn setup(
        graph: Graph,
        seed: u64,
    ) -> (Space<ron_metric::ExplicitMetric>, Graph, SingleLinkModel) {
        let apsp = Apsp::compute(&graph);
        let space = Space::new(apsp.to_metric().unwrap());
        let model = SingleLinkModel::sample(&space, &graph, seed);
        (space, graph, model)
    }

    #[test]
    fn all_queries_complete_on_grid() {
        let (space, graph, model) = setup(gen::grid_graph(6, 2), 3);
        let stats = QueryStats::over_all_pairs(36, |u, v| model.query(&space, &graph, u, v));
        assert_eq!(stats.completed, stats.queries);
        // Greedy over local contacts always completes; long links shrink
        // hops below the grid diameter on average.
        assert!(stats.mean_hops <= 10.0, "mean hops {}", stats.mean_hops);
    }

    #[test]
    fn long_links_speed_up_routing() {
        let plain_graph = gen::grid_graph(8, 2);
        let apsp = Apsp::compute(&plain_graph);
        let space = Space::new(apsp.to_metric().unwrap());
        // Greedy with no long links: hop count = L1 distance.
        let no_links = SingleLinkModel {
            long: space.nodes().collect(),
            levels_dist: 1,
        };
        let with_links = SingleLinkModel::sample(&space, &plain_graph, 5);
        let s_plain =
            QueryStats::over_all_pairs(64, |u, v| no_links.query(&space, &plain_graph, u, v));
        let s_links =
            QueryStats::over_all_pairs(64, |u, v| with_links.query(&space, &plain_graph, u, v));
        assert!(s_links.mean_hops <= s_plain.mean_hops);
    }

    #[test]
    fn completes_on_exponential_path() {
        let (space, graph, model) = setup(gen::exponential_path(24), 9);
        let stats = QueryStats::over_all_pairs(24, |u, v| model.query(&space, &graph, u, v));
        assert_eq!(stats.completed, stats.queries);
        // Hop bound 2^O(alpha) log^2 Delta; on a 24-node path the walk is
        // also trivially bounded by n per halving.
        assert!(stats.max_hops <= 24 * 24);
    }

    #[test]
    fn deterministic_in_seed() {
        let (space, graph, a) = setup(gen::grid_graph(4, 2), 11);
        let b = SingleLinkModel::sample(&space, &graph, 11);
        for u in space.nodes() {
            assert_eq!(a.long_contact(u), b.long_contact(u));
        }
    }
}
