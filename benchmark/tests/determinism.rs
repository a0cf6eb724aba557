//! The generators: one seed, one set of inputs, byte for byte.

use ron_benchmark::inputs::{
    homes, hot_batches, in_victim_pool, live_queries, points, victim_waves, walk_batches,
};
use ron_benchmark::spec::{Instance, WORKLOADS};
use ron_metric::{Metric, Node};

const SMALL: Instance = Instance {
    side: 23,
    objects: 128,
};

#[test]
fn same_seed_same_inputs() {
    for seed in [0, 1, u64::MAX] {
        assert_eq!(homes(SMALL, seed), homes(SMALL, seed));
        assert_eq!(
            walk_batches(SMALL, seed, 3, 1000),
            walk_batches(SMALL, seed, 3, 1000)
        );
        assert_eq!(
            hot_batches(SMALL, seed, 64, 2, 1000),
            hot_batches(SMALL, seed, 64, 2, 1000)
        );
        assert_eq!(
            victim_waves(SMALL, seed, 8, 16, |_| true),
            victim_waves(SMALL, seed, 8, 16, |_| true)
        );
        assert_eq!(
            live_queries(SMALL, seed, 100),
            live_queries(SMALL, seed, 100)
        );
        let (a, b) = (points(SMALL, seed), points(SMALL, seed));
        for u in Node::all(SMALL.n()) {
            assert_eq!(a.point(u), b.point(u));
        }
    }
}

#[test]
fn different_seeds_differ() {
    assert_ne!(homes(SMALL, 1), homes(SMALL, 2));
    assert_ne!(
        walk_batches(SMALL, 1, 1, 1000),
        walk_batches(SMALL, 2, 1, 1000)
    );
    assert_ne!(
        hot_batches(SMALL, 1, 64, 1, 1000),
        hot_batches(SMALL, 2, 64, 1, 1000)
    );
    assert_ne!(
        victim_waves(SMALL, 1, 8, 16, |_| true),
        victim_waves(SMALL, 2, 8, 16, |_| true)
    );
    let (a, b) = (points(SMALL, 1), points(SMALL, 2));
    assert_ne!(
        a.dist(Node::new(0), Node::new(1)),
        b.dist(Node::new(0), Node::new(1))
    );
}

#[test]
fn batches_of_one_stream_differ_from_each_other() {
    let batches = walk_batches(SMALL, 5, 4, 1000);
    for i in 0..batches.len() {
        for j in 0..i {
            assert_ne!(batches[i], batches[j]);
        }
    }
}

#[test]
fn origins_and_victims_are_disjoint() {
    for seed in 0..4 {
        let queries = walk_batches(SMALL, seed, 2, 5000)
            .into_iter()
            .chain(hot_batches(SMALL, seed, 64, 2, 5000))
            .flatten()
            .chain(live_queries(SMALL, seed, 1000));
        for (origin, obj) in queries {
            assert!(!in_victim_pool(origin), "origin {origin} is in the pool");
            assert!(origin.index() < SMALL.n());
            assert!((obj.0 as usize) < SMALL.objects);
        }
        for wave in victim_waves(SMALL, seed, 16, 16, |_| true) {
            assert_eq!(wave.len(), 16);
            assert!(wave
                .iter()
                .all(|&v| in_victim_pool(v) && v.index() < SMALL.n()));
            let mut distinct = wave.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), wave.len(), "a wave names a victim twice");
        }
    }
}

#[test]
fn the_hot_stream_stays_inside_its_working_set() {
    let batches = hot_batches(SMALL, 9, 64, 2, 5000);
    let mut pairs: Vec<_> = batches.into_iter().flatten().collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert!(pairs.len() <= 64);
    assert!(pairs.len() > 32, "the working set is barely used");
}

#[test]
fn a_wave_never_empties_the_pool() {
    for w in WORKLOADS {
        for w in [*w, w.smoke()] {
            let pool = w.serving.n().div_ceil(8);
            let waves = victim_waves(w.serving, 1, 2, w.wave, |_| true);
            assert!(waves
                .iter()
                .all(|wave| !wave.is_empty() && wave.len() <= pool / 2));
        }
    }
}
