//! Everything a run feeds the crates, generated from `--seed` in this
//! process: metric points, object homes, query streams and the victim
//! schedule. The same seed gives byte-identical inputs.

use ron_location::ObjectId;
use ron_metric::{gen, EuclideanMetric, Node};

use crate::spec::{Instance, GRID_JITTER};

/// One engine query.
pub type Query = (Node, ObjectId);

/// SplitMix64, one independent stream per `(seed, stream)` pair.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // Decorrelate nearby seeds before the first draw.
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The victim pool: the only nodes a churn wave may take down, a fixed
/// eighth of the ids. Query origins are never drawn from it, so every
/// origin is alive in every published state. The ids are picked by a hash
/// and not by `id % 8`: on a grid the greedy nets favour lattice-aligned
/// ids, so the multiples of eight hold most of the coarse net members and
/// every wave would be a hub-first attack.
#[must_use]
pub fn in_victim_pool(v: Node) -> bool {
    Rng::new(v.index() as u64, 6).next_u64().is_multiple_of(8)
}

/// The metric points of an instance.
#[must_use]
pub fn points(instance: Instance, seed: u64) -> EuclideanMetric {
    gen::perturbed_grid(instance.side, 2, GRID_JITTER, seed)
}

/// A uniform origin outside the victim pool.
fn origin(rng: &mut Rng, n: usize) -> Node {
    loop {
        let v = Node::new(rng.below(n));
        if !in_victim_pool(v) {
            return v;
        }
    }
}

/// Object homes, uniform over all nodes (pool nodes included: a wave that
/// takes a home down exercises re-homing).
#[must_use]
pub fn homes(instance: Instance, seed: u64) -> Vec<(ObjectId, Node)> {
    let mut rng = Rng::new(seed, 1);
    (0..instance.objects)
        .map(|k| (ObjectId(k as u64), Node::new(rng.below(instance.n()))))
        .collect()
}

/// `count` uniform (origin, object) queries from stream `stream`.
#[must_use]
pub fn uniform_queries(instance: Instance, seed: u64, stream: u64, count: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|_| {
            let o = origin(&mut rng, instance.n());
            (o, ObjectId(rng.below(instance.objects) as u64))
        })
        .collect()
}

/// The walk stream: `batches` batches of `batch` uniform queries over
/// all (origin, object) pairs.
#[must_use]
pub fn walk_batches(
    instance: Instance,
    seed: u64,
    batches: usize,
    batch: usize,
) -> Vec<Vec<Query>> {
    (0..batches)
        .map(|b| uniform_queries(instance, seed, 100 + b as u64, batch))
        .collect()
}

/// The hot stream: a fixed working set of `set` pairs, then batches of
/// queries uniform over it.
#[must_use]
pub fn hot_batches(
    instance: Instance,
    seed: u64,
    set: usize,
    batches: usize,
    batch: usize,
) -> Vec<Vec<Query>> {
    let working_set = uniform_queries(instance, seed, 2, set);
    let mut rng = Rng::new(seed, 3);
    (0..batches)
        .map(|_| (0..batch).map(|_| working_set[rng.below(set)]).collect())
        .collect()
}

/// The victim schedule: `waves` waves of `wave` distinct nodes each, drawn
/// from the pool nodes that are `eligible` (a partial Fisher-Yates over
/// them per wave).
#[must_use]
pub fn victim_waves(
    instance: Instance,
    seed: u64,
    waves: usize,
    wave: usize,
    eligible: impl Fn(Node) -> bool,
) -> Vec<Vec<Node>> {
    let pool: Vec<Node> = Node::all(instance.n())
        .filter(|&v| in_victim_pool(v) && eligible(v))
        .collect();
    let wave = wave.min(pool.len() / 2).max(1);
    let mut rng = Rng::new(seed, 4);
    (0..waves)
        .map(|_| {
            let mut pool = pool.clone();
            for i in 0..wave {
                let j = i + rng.below(pool.len() - i);
                pool.swap(i, j);
            }
            pool.truncate(wave);
            pool
        })
        .collect()
}

/// Queries of the live-lookup phase (`DirectoryOverlay::lookup`).
#[must_use]
pub fn live_queries(instance: Instance, seed: u64, count: usize) -> Vec<Query> {
    uniform_queries(instance, seed, 5, count)
}
