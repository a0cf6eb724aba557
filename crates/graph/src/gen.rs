//! Graph generators for the experiment families.
//!
//! Each generator yields a connected, undirected, positively weighted graph
//! whose shortest-path metric is doubling:
//!
//! * [`grid_graph`] — the `side^dim` lattice with unit edges (bounded grid
//!   dimension; the classic "nice" topology);
//! * [`knn_geometric`] — random points in the unit cube joined to their
//!   `k` nearest neighbors (Internet-like; weights are Euclidean);
//! * [`exponential_path`] — a path with geometrically growing edge weights:
//!   its shortest-path metric is the exponential line, the paper's
//!   super-polynomial aspect-ratio example (`Delta = 2^(n-1) - 1`);
//! * [`ring_with_chords`] — a unit-weight cycle plus random chords whose
//!   weight equals the cycle distance, a doubling overlay-style topology.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ron_metric::{gen as mgen, EuclideanMetric, Metric, Node};

use crate::{Graph, GraphBuilder};

/// The `side^dim` lattice with unit-weight edges between lattice neighbors.
///
/// Node `i` uses the same row-major coordinate layout as
/// [`GridMetric`](ron_metric::GridMetric), and the graph's shortest-path
/// metric equals that L1 grid metric (tests verify this).
///
/// # Panics
///
/// Panics if `side == 0` or `dim == 0`.
#[must_use]
pub fn grid_graph(side: usize, dim: usize) -> Graph {
    assert!(side > 0 && dim > 0, "need a nonempty grid");
    let n = side.pow(dim as u32);
    let mut b = GraphBuilder::new(n);
    let coords = |mut i: usize| -> Vec<usize> {
        let mut c = vec![0usize; dim];
        for slot in c.iter_mut().rev() {
            *slot = i % side;
            i /= side;
        }
        c
    };
    let encode = |c: &[usize]| -> usize {
        let mut i = 0usize;
        for &x in c {
            i = i * side + x;
        }
        i
    };
    for i in 0..n {
        let c = coords(i);
        for d in 0..dim {
            if c[d] + 1 < side {
                let mut c2 = c.clone();
                c2[d] += 1;
                b.add_undirected(Node::new(i), Node::new(encode(&c2)), 1.0)
                    .expect("grid edges are valid");
            }
        }
    }
    b.build()
}

/// Random points in `[0,1]^dim`, each joined to its `k` nearest neighbors
/// (edges weighted by Euclidean distance), then augmented with the cheapest
/// cross-component edges until connected.
///
/// Returns the graph together with the generating point set, so callers can
/// compare the graph metric against the ambient Euclidean metric.
///
/// # Panics
///
/// Panics if `n < 2` or `k == 0`.
#[must_use]
pub fn knn_geometric(n: usize, dim: usize, k: usize, seed: u64) -> (Graph, EuclideanMetric) {
    assert!(n >= 2, "need at least two nodes");
    assert!(k >= 1, "need k >= 1");
    let points = mgen::uniform_cube(n, dim, seed);
    let mut b = GraphBuilder::new(n);
    let mut present = std::collections::BTreeSet::new();
    for i in 0..n {
        let u = Node::new(i);
        let mut order: Vec<(f64, usize)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (points.dist(u, Node::new(j)), j))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(w, j) in order.iter().take(k) {
            let key = (i.min(j), i.max(j));
            if present.insert(key) {
                b.add_undirected(u, Node::new(j), w)
                    .expect("knn edges are valid");
            }
        }
    }
    // Union-find over current edges; connect components greedily.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(i, j) in &present {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri] = rj;
        }
    }
    loop {
        let root0 = find(&mut parent, 0);
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..n {
            if find(&mut parent, i) != root0 {
                continue;
            }
            for j in 0..n {
                if find(&mut parent, j) == root0 {
                    continue;
                }
                let d = points.dist(Node::new(i), Node::new(j));
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, i, j));
                }
            }
        }
        match best {
            None => break,
            Some((d, i, j)) => {
                b.add_undirected(Node::new(i), Node::new(j), d)
                    .expect("augmentation edges are valid");
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri] = rj;
            }
        }
    }
    (b.build(), points)
}

/// A path `v_0 - v_1 - ... - v_(n-1)` with edge weights `2^i`.
///
/// The shortest-path metric is (a translate of) the exponential line, so
/// the aspect ratio is `2^(n-1) - 1` — exponential in `n`, the regime of
/// Theorem 4.2's large-`Delta` routing.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 1023` (edge weights overflow `f64`).
#[must_use]
pub fn exponential_path(n: usize) -> Graph {
    assert!((2..=1023).contains(&n), "n must be in 2..=1023");
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_undirected(Node::new(i), Node::new(i + 1), (2.0f64).powi(i as i32))
            .expect("path edges are valid");
    }
    b.build()
}

/// A unit-weight cycle on `n` nodes plus `chords` random chords, each
/// weighted by the cycle distance it spans (so the shortest-path metric
/// stays the cycle metric while the hop structure gets shortcuts).
///
/// Useful for separating metric stretch from hop counts in the routing
/// experiments.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn ring_with_chords(n: usize, chords: usize, seed: u64) -> Graph {
    assert!(n >= 3, "a cycle needs at least three nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_undirected(Node::new(i), Node::new((i + 1) % n), 1.0)
            .expect("cycle edges are valid");
    }
    let mut added = std::collections::BTreeSet::new();
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < chords && attempts < chords * 20 + 100 {
        attempts += 1;
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        let (a, z) = (i.min(j), i.max(j));
        let around = (z - a).min(n - (z - a));
        if around <= 1 || !added.insert((a, z)) {
            continue;
        }
        b.add_undirected(Node::new(a), Node::new(z), around as f64)
            .expect("chord edges are valid");
        placed += 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apsp;
    use ron_metric::{GridMetric, MetricExt};

    #[test]
    fn grid_graph_metric_matches_grid_metric() {
        let g = grid_graph(4, 2);
        let apsp = Apsp::compute(&g);
        let grid = GridMetric::new(4, 2).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                let (u, v) = (Node::new(i), Node::new(j));
                assert_eq!(apsp.dist(u, v), grid.dist(u, v), "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn knn_geometric_is_connected() {
        for seed in 0..5 {
            let (g, points) = knn_geometric(48, 2, 3, seed);
            assert!(
                g.is_connected(),
                "seed {seed} produced a disconnected graph"
            );
            assert_eq!(g.len(), points.len());
        }
    }

    #[test]
    fn knn_graph_distances_dominate_euclidean() {
        let (g, points) = knn_geometric(32, 2, 3, 9);
        let apsp = Apsp::compute(&g);
        for i in 0..32 {
            for j in 0..32 {
                let (u, v) = (Node::new(i), Node::new(j));
                assert!(apsp.dist(u, v) >= points.dist(u, v) - 1e-12);
            }
        }
    }

    #[test]
    fn exponential_path_metric_is_exponential_line() {
        let g = exponential_path(10);
        let apsp = Apsp::compute(&g);
        let m = apsp.to_metric().unwrap();
        // distance v0 -> v9 = 2^0 + ... + 2^8 = 511.
        assert_eq!(m.dist(Node::new(0), Node::new(9)), 511.0);
        assert_eq!(m.aspect_ratio(), 511.0);
    }

    #[test]
    fn ring_with_chords_preserves_cycle_metric() {
        let g = ring_with_chords(24, 8, 3);
        let apsp = Apsp::compute(&g);
        for i in 0..24 {
            for j in 0..24 {
                let hops = (i as i64 - j as i64).unsigned_abs() as usize;
                let around = hops.min(24 - hops);
                assert_eq!(
                    apsp.dist(Node::new(i), Node::new(j)),
                    around as f64,
                    "pair ({i}, {j})"
                );
            }
        }
    }
}
