//! Kleinberg's group-structure small world [32] on metric balls — the
//! model STRUCTURES of Theorem 5.4.
//!
//! For nodes `u != v`, let `x_uv` be the smallest cardinality of a ball
//! (any center, any radius) containing both. Each node draws
//! `Theta(log^2 n)` contacts from the distribution `pi_u(v) ~ 1/x_uv`;
//! routing is greedy. Theorem 5.4 shows that on UL-constrained metrics
//! (ball growth bounded above and below) this model and the models of
//! Theorem 5.2 have matching degree, contact distribution (up to
//! constants) and `O(log n)` greedy hop counts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ron_metric::{cardinality_levels, Metric, Node, Space};

use crate::model::{greedy_rule, route_with, ContactGraph, QueryOutcome};

/// The STRUCTURES model.
///
/// # Example
///
/// ```
/// use ron_metric::{gen, Node, Space};
/// use ron_smallworld::Structures;
///
/// let space = Space::new(gen::perturbed_grid(6, 2, 0.2, 3));
/// let model = Structures::sample(&space, 1.0, 42);
/// let outcome = model.query(&space, Node::new(0), Node::new(35)).unwrap();
/// assert!(outcome.hops() <= 60);
/// ```
#[derive(Clone, Debug)]
pub struct Structures {
    contacts: ContactGraph,
    /// `x_uv` for all pairs (row-major), the pair-cardinality matrix.
    #[cfg(test)]
    x: Vec<u32>,
    n: usize,
}

impl Structures {
    /// Samples `ceil(c * log2(n)^2)` contacts per node from
    /// `pi_u(v) ~ 1/x_uv`. Computing `x_uv` exactly costs `O(n^2 log n)`
    /// with the sorted index (for each center, sweep radii).
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or the space has fewer than 2 nodes.
    #[must_use]
    pub fn sample<M: Metric>(space: &Space<M>, c: f64, seed: u64) -> Self {
        assert!(c > 0.0, "sample factor must be positive");
        let n = space.len();
        assert!(n >= 2, "need at least two nodes");
        // x_uv = min over centers w of |B_w(max(d_wu, d_wv))|: for each
        // center w, walk nodes outward; a pair is covered when its farther
        // endpoint arrives, by the (tie-aware) ball holding that endpoint.
        let mut x = vec![u32::MAX; n * n];
        for w in space.nodes() {
            let row = space.index().sorted_from(w);
            let (dists, nodes) = (row.dists(), row.nodes());
            // Tie-aware closed-ball cardinality at each position.
            let mut ball_size = vec![0u32; n];
            let mut pos = 0usize;
            while pos < n {
                let mut end = pos;
                while end + 1 < n && dists[end + 1] == dists[pos] {
                    end += 1;
                }
                ball_size[pos..=end].fill((end + 1) as u32);
                pos = end + 1;
            }
            for pos_b in 0..n {
                let b = nodes[pos_b];
                let size = ball_size[pos_b];
                for &a in &nodes[..pos_b] {
                    let idx = a.index() * n + b.index();
                    if x[idx] > size {
                        x[idx] = size;
                    }
                }
            }
        }
        // Symmetrize (a pair may have been updated in either orientation
        // depending on arrival order at each center).
        for i in 0..n {
            for j in (i + 1)..n {
                let m = x[i * n + j].min(x[j * n + i]);
                x[i * n + j] = m;
                x[j * n + i] = m;
            }
            x[i * n + i] = 1;
        }

        let log_n = (n as f64).log2().max(1.0);
        let draws = (c * log_n * log_n).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let contacts: Vec<Vec<Node>> = space
            .nodes()
            .map(|u| {
                let weights: Vec<f64> = (0..n)
                    .map(|j| {
                        if j == u.index() {
                            0.0
                        } else {
                            1.0 / x[u.index() * n + j] as f64
                        }
                    })
                    .collect();
                let mut cum = Vec::with_capacity(n);
                let mut total = 0.0;
                for w in &weights {
                    total += w;
                    cum.push(total);
                }
                (0..draws)
                    .map(|_| {
                        let roll = rng.random_range(0.0..total);
                        let k = cum.partition_point(|&cv| cv <= roll).min(n - 1);
                        Node::new(k)
                    })
                    .collect()
            })
            .collect();
        Structures {
            contacts: ContactGraph::new(contacts),
            #[cfg(test)]
            x,
            n,
        }
    }

    /// The sampled contact graph.
    #[must_use]
    pub fn contacts(&self) -> &ContactGraph {
        &self.contacts
    }

    /// The pair cardinality `x_uv` (1 on the diagonal).
    #[cfg(test)]
    fn pair_cardinality(&self, u: Node, v: Node) -> u32 {
        self.x[u.index() * self.n + v.index()]
    }

    /// Hop budget for greedy queries.
    #[must_use]
    pub fn hop_budget(&self) -> usize {
        12 * (cardinality_levels(self.n) + 4)
    }

    /// Runs one greedy query.
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
    use ron_metric::gen;

    fn grid_space() -> Space<ron_metric::EuclideanMetric> {
        Space::new(gen::perturbed_grid(7, 2, 0.2, 1))
    }

    #[test]
    fn pair_cardinality_is_sane() {
        let space = grid_space();
        let model = Structures::sample(&space, 1.0, 2);
        let n = space.len();
        for i in 0..n {
            for j in 0..n {
                let x = model.pair_cardinality(Node::new(i), Node::new(j));
                if i == j {
                    assert_eq!(x, 1);
                } else {
                    assert!(x >= 2, "a ball containing two nodes has size >= 2");
                    assert!(x as usize <= n);
                    // x_uv is at most the ball around u reaching v.
                    let d = space.dist(Node::new(i), Node::new(j));
                    let around_u = space.index().ball_size(Node::new(i), d) as u32;
                    assert!(x <= around_u);
                }
            }
        }
    }

    #[test]
    fn pair_cardinality_symmetric() {
        let space = grid_space();
        let model = Structures::sample(&space, 1.0, 4);
        for i in 0..space.len() {
            for j in 0..space.len() {
                assert_eq!(
                    model.pair_cardinality(Node::new(i), Node::new(j)),
                    model.pair_cardinality(Node::new(j), Node::new(i))
                );
            }
        }
    }

    #[test]
    fn queries_complete_in_log_hops_on_ul_metric() {
        // Theorem 5.4(a): O(log n) hops on UL-constrained metrics.
        let space = grid_space();
        let model = Structures::sample(&space, 2.0, 7);
        let stats = QueryStats::over_all_pairs(space.len(), |u, v| model.query(&space, u, v));
        assert_eq!(stats.completed, stats.queries, "greedy stalled");
        assert!(
            stats.max_hops <= model.hop_budget(),
            "max hops {} too large",
            stats.max_hops
        );
    }

    #[test]
    fn degree_is_theta_log_squared() {
        // Theorem 5.4(c).
        let space = grid_space();
        let model = Structures::sample(&space, 1.0, 5);
        let n = space.len() as f64;
        let log2n = n.log2();
        let degree = model.contacts().max_out_degree() as f64;
        assert!(degree <= 2.0 * log2n * log2n + 8.0);
    }

    #[test]
    fn contact_distribution_follows_inverse_pair_cardinality() {
        // Theorem 5.4(d): Pr[v is a contact of u] ~ Theta(log n)/x_uv —
        // by construction pi_u(v) * x_uv is a constant; spot-check that
        // sampling respects the ordering (closer pairs more likely).
        let space = grid_space();
        let model = Structures::sample(&space, 4.0, 9);
        let u = Node::new(0);
        let near = model.pair_cardinality(u, Node::new(1));
        let far_node = Node::new(space.len() - 1);
        let far = model.pair_cardinality(u, far_node);
        assert!(near <= far);
    }
}
