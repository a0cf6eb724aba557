//! What a build + serve + repair + simulate pass counts, end to end.
//!
//! Exact assertions on the engine's batch reports and on the drained
//! registry: cache accounting that does not depend on the worker split,
//! warm hits that skip the walk, counted reloads and failures, every
//! layer's keys, and when a churned sparse stack asks its oracle. The
//! counts are exact, so every test here takes [`Recording::start`]'s
//! lock and nothing else in this binary records: a test that ran a
//! simulator beside these would land in the same process-global
//! registry.

use proptest::prelude::*;
use ron_location::{
    DirectoryOverlay, EngineConfig, EpochCell, LocateError, ObjectId, QueryEngine, Snapshot,
};
use ron_metric::{gen, BallOracle, EuclideanMetric, HeapBytes, Node, Space};
use ron_nets::NestedNets;
use ron_sim::directory::{DirectoryMsg, DirectoryNode};
use ron_sim::{MetricLatency, SimConfig, Simulator};

const N: usize = 64;
const OBJECTS: usize = N / 4;
/// Every `(origin, object)` pair distinct, so a single cold pass misses
/// the cache on every probe no matter how workers interleave inserts.
const QUERIES: usize = 1024;

/// Exclusive use of the process-global obs state, recording on and
/// empty, until dropped.
struct Recording {
    _exclusive: std::sync::MutexGuard<'static, ()>,
}

impl Recording {
    fn start() -> Self {
        static OBS_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let exclusive = OBS_STATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ron_obs::set_enabled(true);
        ron_obs::reset();
        Recording {
            _exclusive: exclusive,
        }
    }

    /// Turns recording back off, still holding the lock.
    fn stop(&self) {
        ron_obs::reset();
        ron_obs::set_enabled(false);
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        self.stop();
    }
}

fn cube() -> Space<EuclideanMetric> {
    Space::new(gen::uniform_cube(N, 2, 1))
}

fn published<I: BallOracle>(space: &Space<EuclideanMetric, I>) -> DirectoryOverlay {
    let mut overlay = DirectoryOverlay::build(space);
    let items: Vec<(ObjectId, Node)> = (0..OBJECTS)
        .map(|i| (ObjectId(i as u64), Node::new((i * 31 + 1) % N)))
        .collect();
    overlay.publish_batch(space, &items);
    overlay
}

fn distinct_queries() -> Vec<(Node, ObjectId)> {
    (0..QUERIES)
        .map(|i| (Node::new(i % N), ObjectId((i / N) as u64)))
        .collect()
}

/// Per-shard capacity covers a doubled batch, so nothing is evicted.
fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        cache_capacity: 8 * QUERIES,
        cache_shards: 8,
    }
}

fn simulate_lookups(space: &Space<EuclideanMetric>, overlay: &DirectoryOverlay) {
    let mut sim = Simulator::new(
        DirectoryNode::fleet(space, overlay),
        |u, v| space.dist(u, v),
        MetricLatency {
            scale: 1.0,
            floor: 0.01,
        },
        SimConfig::default(),
    );
    sim.mark_phase(0.0, "steady");
    for q in 0..N {
        let origin = Node::new((q * 53 + 7) % N);
        let obj = ObjectId((q * 97 + 13) as u64 % OBJECTS as u64);
        sim.inject(q as f64 * 0.05, origin, DirectoryMsg::Lookup { obj });
    }
    let _ = sim.run();
}

fn assert_recording_is_off() {
    assert!(!ron_obs::enabled(), "recording must be back off");
}

/// The shard is a pure key hash, so a cold batch of distinct queries
/// leaves the same per-shard accounting whether one worker served it or
/// four: every probe misses, none hits, and nothing reloads.
#[test]
fn cache_accounting_does_not_depend_on_the_worker_split() {
    let recording = Recording::start();
    let space = cube();
    let overlay = published(&space);
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &cell);
    let queries = distinct_queries();

    let serial = engine.serve(&queries, &config(1));
    let split = engine.serve(&queries, &config(4));
    recording.stop();

    assert_eq!(serial.cache_shards, split.cache_shards);
    let misses: u64 = serial.cache_shards.iter().map(|s| s.misses).sum();
    assert_eq!(misses, QUERIES as u64, "unique cold queries all miss");
    for report in [&serial, &split] {
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.reloads, 0, "one snapshot serves the whole batch");
    }
    assert_recording_is_off();
}

/// A worker that finds a newer publication mid-batch reloads and counts
/// it: served beside a writer publishing in a loop, the batches'
/// `reloads` add up to the `engine.snapshot.reloads` counter.
#[test]
fn mid_batch_reloads_are_counted() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let recording = Recording::start();
    let space = cube();
    let overlay = published(&space);
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &cell);
    let queries = distinct_queries();
    let done = AtomicBool::new(false);
    let reloads = std::thread::scope(|scope| {
        scope.spawn(|| {
            // ordering: Acquire pairs with the Release store below; the
            // flag only says "stop publishing".
            while !done.load(Ordering::Acquire) {
                overlay.publish_snapshot(&space, &cell);
            }
        });
        let mut reloads = 0;
        for _ in 0..10_000 {
            reloads += engine.serve(&queries, &config(2)).reloads;
            if reloads > 0 {
                break;
            }
        }
        // ordering: Release, seen by the writer's Acquire load.
        done.store(true, Ordering::Release);
        reloads
    });
    let counted = ron_obs::drain().counter_prefix_sum("engine.snapshot.reloads");
    recording.stop();
    assert!(reloads > 0, "a batch served beside the writer reloaded");
    assert_eq!(counted, reloads as u64);
    assert_recording_is_off();
}

/// The same batch twice on one worker: the second half probes warm and
/// never walks. The engine's per-shard counters and the walk's hop
/// histogram agree with the batch report.
#[test]
fn doubled_batch_hits_warm_and_walks_once_per_query() {
    let recording = Recording::start();
    let space = cube();
    let overlay = published(&space);
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &cell);
    let queries = distinct_queries();
    let doubled: Vec<(Node, ObjectId)> = queries.iter().chain(&queries).copied().collect();
    ron_obs::reset();
    let report = engine.serve(&doubled, &config(1));
    let registry = ron_obs::drain();
    recording.stop();

    assert_eq!(report.cache_hits, QUERIES);
    assert_eq!(
        registry.counter_prefix_sum("engine.cache.hit"),
        QUERIES as u64
    );
    assert_eq!(
        registry.counter_prefix_sum("engine.cache.miss"),
        QUERIES as u64
    );
    let walks: u64 = registry
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("lookup.hops"))
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(walks, QUERIES as u64, "one walk per distinct query");
    assert_recording_is_off();
}

/// A sparse stack reads its fingers from the rows, churned or not:
/// capturing a snapshot and serving live lookups ask the net-tree oracle
/// for no nearest-member search at all, before and after a level-1
/// member that homes an object leaves, a repair, its rejoin and a second
/// repair; and each repair asks exactly one per object it re-homed (the
/// homes pass).
#[test]
fn churned_sparse_stack_asks_the_oracle_only_to_rehome() {
    let recording = Recording::start();
    let space = Space::new_sparse(gen::uniform_cube(N, 2, 1));
    let mut overlay = published(&space);
    // Summed over the stages the searches are attributed to.
    let nearest_searches = || -> u64 {
        ron_obs::drain()
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with("oracle.nearest.sparse"))
            .map(|(_, h)| h.count())
            .sum()
    };
    let capture_and_serve = |overlay: &DirectoryOverlay| {
        let _ = Snapshot::capture(&space, overlay);
        for q in 0..256 {
            let origin = Node::new((q * 53 + 7) % N);
            let _ = overlay.lookup(&space, origin, ObjectId((q % OBJECTS) as u64));
        }
    };
    ron_obs::reset();
    capture_and_serve(&overlay);
    assert_eq!(nearest_searches(), 0, "pristine capture and lookups");
    let homes_something = |v| {
        overlay
            .objects()
            .iter()
            .any(|&obj| overlay.home_of(obj) == Some(v))
    };
    let member = space
        .nodes()
        .find(|&v| overlay.is_net_member(1, v) && homes_something(v))
        .expect("a level-1 member homes an object");
    overlay.leave(member);
    let report = overlay.repair(&space);
    assert!(report.rehomed > 0);
    assert_eq!(
        nearest_searches(),
        report.rehomed as u64,
        "the leave's repair"
    );
    overlay.join(&space, member);
    let report = overlay.repair(&space);
    assert_eq!(
        nearest_searches(),
        report.rehomed as u64,
        "the rejoin and its repair"
    );
    capture_and_serve(&overlay);
    assert_eq!(nearest_searches(), 0, "churned capture and lookups");
    recording.stop();
    assert_recording_is_off();
}

/// An epoch explains its own cost: the covering pass counts its
/// candidates per level, and every capture counts the chunks it shared
/// with the snapshot it superseded and the ones it wrote afresh, and the
/// fingers it recomputed.
#[test]
fn an_epoch_counts_its_covering_candidates_and_its_chunks() {
    let recording = Recording::start();
    let space = cube();
    let mut overlay = published(&space);
    let levels = overlay.levels();
    // Fingers and pointer tables, eight nodes to a chunk.
    let chunks = 2 * N.div_ceil(8) as u64;
    let tally = |registry: &ron_obs::Registry| {
        (
            registry.counter_prefix_sum("snapshot.chunks_shared"),
            registry.counter_prefix_sum("snapshot.chunks_written"),
            registry.counter_prefix_sum("snapshot.fingers_recomputed"),
        )
    };
    ron_obs::reset();

    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    assert_eq!(
        tally(&ron_obs::drain()),
        (0, chunks, (N * levels) as u64),
        "a first capture writes every chunk and computes every finger"
    );
    overlay.publish_snapshot(&space, &cell);
    assert_eq!(
        tally(&ron_obs::drain()),
        (chunks, 0, 0),
        "an idle epoch shares every chunk and recomputes no finger"
    );

    // A fine member leaves: the repaired successor rewrites some chunks
    // and shares the rest, and recomputes fingers only in the balls at
    // c·r_j around each membership change at level j.
    let fine = space
        .nodes()
        .find(|&v| overlay.top_level_of(v) == Some(1))
        .expect("level 1 has members of its own");
    let membership = |overlay: &DirectoryOverlay| -> Vec<Vec<bool>> {
        (0..levels)
            .map(|j| space.nodes().map(|v| overlay.is_net_member(j, v)).collect())
            .collect()
    };
    let before = membership(&overlay);
    overlay.leave(fine);
    overlay.repair_published(&space, &cell);
    let epoch = ron_obs::drain();
    let (shared, written, recomputed) = tally(&epoch);
    assert_eq!(shared + written, chunks);
    assert!(
        shared > 0 && written > 0,
        "shared {shared}, written {written}"
    );
    let after = membership(&overlay);
    let mut near_a_change = [false; N];
    for j in 0..levels {
        let reach = overlay.ring_factor() * overlay.nets().radius(j);
        for v in space
            .nodes()
            .filter(|v| before[j][v.index()] != after[j][v.index()])
        {
            for &u in space.index().ball(v, reach).nodes() {
                near_a_change[u.index()] = true;
            }
        }
    }
    let near = near_a_change.iter().filter(|&&b| b).count();
    assert!(
        recomputed > 0 && recomputed < (levels * near) as u64,
        "{recomputed} fingers recomputed, {near} nodes near a change"
    );
    let candidates = |registry: &ron_obs::Registry| -> Vec<(String, u64)> {
        registry
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("repair.covering.candidates/"))
            .map(|(k, &c)| (k.clone(), c))
            .collect()
    };
    let counted = candidates(&epoch);
    assert_eq!(
        counted.len(),
        overlay.levels() - 1,
        "one count per level above 0: {counted:?}"
    );
    assert!(
        counted.iter().all(|(k, _)| k.contains("/level")),
        "{counted:?}"
    );

    // The top-level hub leaves and the level is empty: every survivor is
    // in the hub's ball and a candidate there.
    let top = overlay.levels() - 1;
    let hub = space
        .nodes()
        .find(|&v| overlay.is_net_member(top, v))
        .expect("the top level has its hub");
    overlay.leave(hub);
    overlay.repair_published(&space, &cell);
    let counted = candidates(&ron_obs::drain());
    recording.stop();
    let at_top = counted
        .iter()
        .find(|(k, _)| k.ends_with(&format!("/level{top}")))
        .map(|&(_, c)| c);
    assert_eq!(
        at_top,
        Some(overlay.alive_count() as u64),
        "every survivor: {counted:?}"
    );
    assert_recording_is_off();
}

/// A repaired epoch asks the oracle for what changed, not for n: on a
/// 1024-node sparse stack, one leave from the middle of the ladder and
/// its published repair recompute at most the fingers the stale-finger
/// rule can reach, the sum over the epoch's membership changes `(j, a)`
/// of `|B_a(c·r_j)|`.
#[test]
fn a_sparse_epoch_recomputes_only_the_fingers_near_its_changes() {
    let recording = Recording::start();
    let space = Space::new_sparse(gen::uniform_cube(1024, 2, 1));
    let mut overlay = published(&space);
    let levels = overlay.levels();
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let membership = |overlay: &DirectoryOverlay| -> Vec<Vec<bool>> {
        (0..levels)
            .map(|j| space.nodes().map(|v| overlay.is_net_member(j, v)).collect())
            .collect()
    };
    let before = membership(&overlay);
    let leaver = space
        .nodes()
        .find(|&v| overlay.top_level_of(v) == Some(levels / 2))
        .expect("the middle level has members of its own");
    ron_obs::reset();
    overlay.leave(leaver);
    overlay.repair_published(&space, &cell);
    let recomputed = ron_obs::drain().counter_prefix_sum("snapshot.fingers_recomputed");
    recording.stop();
    let after = membership(&overlay);
    let mut bound = 0usize;
    for j in 0..levels {
        let reach = overlay.ring_factor() * overlay.nets().radius(j);
        for a in space
            .nodes()
            .filter(|a| before[j][a.index()] != after[j][a.index()])
        {
            bound += space.index().ball_size(a, reach);
        }
    }
    assert!(
        recomputed > 0 && recomputed <= bound as u64,
        "{recomputed} fingers recomputed, stale-finger bound {bound}"
    );
    assert!(bound < 1024 * levels, "bound {bound} covers every finger");
    assert_recording_is_off();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same over a seeded random schedule of leaves, joins, repairs
    /// and snapshot publishes: every publish recomputes at most the
    /// fingers the stale-finger rule can reach, the sum over the
    /// membership changes `(j, a)` since the last publish of
    /// `|B_a(c·r_j)|`, plus the fingers at a changed level the oracle
    /// answered because their ring was empty (a dead node's, or any
    /// node's on a level a leave emptied around it before the repair).
    #[test]
    fn random_sparse_schedules_recompute_only_the_fingers_near_their_changes(
        seed in 0u64..1000,
        steps in 1usize..16,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let recording = Recording::start();
        let space = Space::new_sparse(gen::uniform_cube(1024, 2, 1));
        let mut overlay = published(&space);
        let levels = overlay.levels();
        let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
        let membership = |overlay: &DirectoryOverlay| -> Vec<Vec<bool>> {
            (0..levels)
                .map(|j| space.nodes().map(|v| overlay.is_net_member(j, v)).collect())
                .collect()
        };
        let mut published_membership = membership(&overlay);
        for step in 0..=steps {
            // Leaves outweigh joins; the last step publishes.
            let kind = if step == steps { 5 } else { rng.random_range(0..6u8) };
            let v = Node::new(rng.random_range(0..space.len()));
            match kind {
                0..=2 if overlay.is_alive(v) => overlay.leave(v),
                0..=3 if !overlay.is_alive(v) => overlay.join(&space, v),
                4 => {
                    overlay.repair(&space);
                }
                5 => {
                    ron_obs::reset();
                    overlay.publish_snapshot(&space, &cell);
                    let recomputed =
                        ron_obs::drain().counter_prefix_sum("snapshot.fingers_recomputed");
                    let now = membership(&overlay);
                    let (mut near, mut fell_back) = (0usize, 0usize);
                    for j in 0..levels {
                        // The rule's own radius, a hair past c·r_j.
                        let reach = overlay.ring_factor() * overlay.nets().radius(j) * (1.0 + 1e-9);
                        let was = &published_membership[j];
                        let changed = |a: &Node| was[a.index()] != now[j][a.index()];
                        let mut changes = space.nodes().filter(changed).peekable();
                        if changes.peek().is_none() {
                            continue;
                        }
                        for a in changes {
                            near += space.index().ball_size(a, reach);
                        }
                        fell_back += space
                            .nodes()
                            .filter(|&v| {
                                space
                                    .index()
                                    .nearest_where(v, &mut |u| was[u.index()])
                                    .is_none_or(|(d, _)| d >= reach * (1.0 - 2e-9))
                            })
                            .count();
                    }
                    prop_assert!(
                        recomputed <= (near + fell_back) as u64,
                        "{recomputed} fingers recomputed: {near} near a change, {fell_back} fell back"
                    );
                    published_membership = now;
                }
                _ => {}
            }
        }
        recording.stop();
        assert_recording_is_off();
    }
}

/// Every way a lookup fails is counted where it returns, a broken chain
/// under the level it broke at: on a stack whose one leave (the home of
/// object 0) was never repaired, the drained counters are exactly the
/// tally of the errors the calls returned.
#[test]
fn failed_lookups_are_counted_by_kind_and_broken_level() {
    let recording = Recording::start();
    let space = cube();
    let mut overlay = published(&space);
    let victim = overlay.home_of(ObjectId(0)).expect("published");
    overlay.leave(victim);
    let snapshot = Snapshot::capture(&space, &overlay);
    ron_obs::reset();

    let mut expected = std::collections::BTreeMap::<String, u64>::new();
    let mut ask = |origin: Node, obj: ObjectId| {
        let key = match snapshot.lookup(&space, origin, obj) {
            Ok(_) => return,
            Err(LocateError::UnknownOrigin { .. }) => "lookup.unknown_origin".to_string(),
            Err(LocateError::OriginDown { .. }) => "lookup.origin_down".to_string(),
            Err(LocateError::UnknownObject { .. }) => "lookup.unknown_object".to_string(),
            Err(LocateError::NotFound { .. }) => "lookup.not_found".to_string(),
            Err(LocateError::BrokenChain { level, .. }) => {
                format!("lookup.broken_chain/level{level}")
            }
            Err(other) => panic!("uncounted failure: {other}"),
        };
        *expected.entry(key).or_default() += 1;
    };
    for origin in space.nodes() {
        for obj in 0..OBJECTS as u64 {
            ask(origin, ObjectId(obj));
        }
    }
    ask(Node::new(N), ObjectId(0));
    ask(Node::new(N + 7), ObjectId(1));
    ask(Node::new(0), ObjectId(OBJECTS as u64));
    let registry = ron_obs::drain();
    recording.stop();

    assert_eq!(expected["lookup.unknown_origin"], 2);
    assert_eq!(expected["lookup.unknown_object"], 1);
    assert_eq!(
        expected["lookup.origin_down"], OBJECTS as u64,
        "the victim asked for every object"
    );
    let broken: u64 = expected
        .iter()
        .filter(|(k, _)| k.starts_with("lookup.broken_chain/"))
        .map(|(_, &c)| c)
        .sum();
    assert!(
        broken >= N as u64 - 1,
        "every alive origin loses the dead home's object: {expected:?}"
    );
    let counted: std::collections::BTreeMap<String, u64> = registry
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("lookup."))
        .map(|(k, &c)| (k.clone(), c))
        .collect();
    assert_eq!(counted, expected);
    assert_recording_is_off();
}

/// Dense and sparse construction, engine serving, a leave wave with its
/// repair and a simulator slice each land their own keys in the one
/// drained registry.
#[test]
fn every_layer_lands_in_the_drained_registry() {
    let recording = Recording::start();
    let space = cube();
    let sparse = Space::new_sparse(gen::uniform_cube(N, 2, 1));
    let _ = NestedNets::build(&sparse);
    let mut overlay = published(&space);
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &cell);
    let _ = engine.serve(&distinct_queries(), &EngineConfig::default());
    for k in 0..N / 16 {
        overlay.leave(Node::new((k * 11 + 3) % N));
    }
    let _ = overlay.repair(&space);
    simulate_lookups(&space, &overlay);
    let registry = ron_obs::drain();
    recording.stop();

    let oracle = |backend: &str| {
        registry
            .histograms
            .keys()
            .any(|k| k.starts_with("oracle.") && k.contains(backend))
    };
    assert!(oracle(".dense"), "dense oracle calls must record");
    let index_bytes = space.index().heap_bytes().max(sparse.index().heap_bytes());
    assert_eq!(
        registry.gauges.get("metric.index.bytes/index").copied(),
        Some(index_bytes as u64),
        "both index builds must raise the index-bytes gauge"
    );
    assert!(oracle(".sparse"), "sparse oracle calls must record");
    assert!(
        registry.histogram("lookup.hops").is_some(),
        "engine lookups must record hop histograms"
    );
    assert!(
        registry
            .histograms
            .keys()
            .any(|k| k.starts_with("repair.plan.covering")),
        "repair plan phases must record"
    );
    assert!(
        registry.counter_prefix_sum("sim.gram") > 0,
        "sim gram counts must record"
    );
    assert_recording_is_off();
}
