//! Kleinberg's original 2-D grid small world [30] — the baseline that
//! Section 5 generalizes to doubling metrics.
//!
//! Nodes sit on a `side x side` lattice; local contacts are the lattice
//! neighbors, and each node samples `q` long-range contacts with
//! probability proportional to `d(u, v)^-2` (the unique exponent making
//! greedy routing polylogarithmic). Greedy routing takes `O(log^2 n)` hops
//! in expectation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ron_metric::{GridMetric, Node, Space};

use crate::model::{greedy_rule, route_with, ContactGraph, QueryOutcome};

/// The Kleinberg grid model.
///
/// # Example
///
/// ```
/// use ron_metric::Node;
/// use ron_smallworld::KleinbergGrid;
///
/// let model = KleinbergGrid::sample(12, 1, 42)?;
/// let outcome = model.query(Node::new(0), Node::new(12 * 12 - 1)).unwrap();
/// assert!(outcome.hops() <= 200);
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KleinbergGrid {
    space: Space<GridMetric>,
    contacts: ContactGraph,
    side: usize,
}

impl KleinbergGrid {
    /// Samples a `side x side` grid with `q` inverse-square long-range
    /// contacts per node.
    ///
    /// # Errors
    ///
    /// Returns a metric construction error if `side == 0`.
    pub fn sample(side: usize, q: usize, seed: u64) -> Result<Self, ron_metric::MetricError> {
        let grid = GridMetric::new(side, 2)?;
        let space = Space::new(grid);
        let n = space.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let contacts: Vec<Vec<Node>> = space
            .nodes()
            .map(|u| {
                let mut list = Vec::new();
                // Local contacts: lattice neighbors (distance 1).
                for (d, v) in space.index().sorted_from(u).iter() {
                    if d == 1.0 {
                        list.push(v);
                    }
                    if d > 1.0 {
                        break;
                    }
                }
                // Long-range: inverse-square over all other nodes.
                let weights: Vec<f64> = (0..n)
                    .map(|j| {
                        if j == u.index() {
                            0.0
                        } else {
                            let d = space.dist(u, Node::new(j));
                            d.powi(-2)
                        }
                    })
                    .collect();
                let total: f64 = weights.iter().sum();
                for _ in 0..q {
                    let mut roll = rng.random_range(0.0..total);
                    for (j, &w) in weights.iter().enumerate() {
                        roll -= w;
                        if roll <= 0.0 {
                            list.push(Node::new(j));
                            break;
                        }
                    }
                }
                list
            })
            .collect();
        Ok(KleinbergGrid {
            space,
            contacts: ContactGraph::new(contacts),
            side,
        })
    }

    /// The underlying grid space.
    #[must_use]
    pub fn space(&self) -> &Space<GridMetric> {
        &self.space
    }

    /// The sampled contact graph (local + long-range).
    #[must_use]
    pub fn contacts(&self) -> &ContactGraph {
        &self.contacts
    }

    /// Grid side length.
    #[must_use]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Hop budget: greedy over local contacts alone needs at most the L1
    /// diameter, so this always suffices.
    #[must_use]
    pub fn hop_budget(&self) -> usize {
        4 * self.side + 8
    }

    /// Runs one greedy query.
    #[must_use]
    pub fn query(&self, src: Node, tgt: Node) -> Option<QueryOutcome> {
        route_with(
            &self.space,
            &self.contacts,
            src,
            tgt,
            self.hop_budget(),
            greedy_rule(&self.space),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryStats;

    #[test]
    fn all_queries_complete() {
        let model = KleinbergGrid::sample(8, 1, 3).unwrap();
        let stats = QueryStats::over_all_pairs(64, |u, v| model.query(u, v));
        assert_eq!(stats.completed, stats.queries);
    }

    #[test]
    fn long_links_beat_lattice_walking() {
        let with = KleinbergGrid::sample(12, 2, 5).unwrap();
        let without = KleinbergGrid::sample(12, 0, 5).unwrap();
        let s_with = QueryStats::over_all_pairs(144, |u, v| with.query(u, v));
        let s_without = QueryStats::over_all_pairs(144, |u, v| without.query(u, v));
        assert!(s_with.mean_hops < s_without.mean_hops);
        // Pure lattice greedy walks the L1 distance.
        assert_eq!(s_without.max_hops, 22);
    }

    #[test]
    fn degree_is_local_plus_q() {
        let model = KleinbergGrid::sample(6, 3, 1).unwrap();
        // 4 lattice neighbors + at most 3 long links (dedup may shrink).
        assert!(model.contacts().max_out_degree() <= 7);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = KleinbergGrid::sample(6, 2, 9).unwrap();
        let b = KleinbergGrid::sample(6, 2, 9).unwrap();
        for i in 0..36 {
            assert_eq!(
                a.contacts().contacts_of(Node::new(i)),
                b.contacts().contacts_of(Node::new(i))
            );
        }
    }
}
