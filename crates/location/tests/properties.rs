//! Property-based tests for the object-location subsystem: static
//! delivery, bounded stretch across the paper's instance families, and
//! recovery after arbitrary join/leave sequences.

use proptest::prelude::*;
use ron_location::{
    ChurnConfig, ChurnSchedule, DirectoryNodeState, DirectoryOverlay, EngineConfig, EpochCell,
    ObjectId, QueryEngine, RepairOracle, Snapshot,
};
use ron_metric::{gen, BallOracle, LineMetric, Metric, Node, Space};

/// Static worst-case stretch bound of the factor-2 overlay (documented in
/// `lookup.rs`: climb <= 4 r*, chain hop <= 3 r*, descent <= 2 r*, with
/// r* <= 2 d).
const STRETCH_BOUND: f64 = 18.0;

fn publish_some<M: Metric, I: BallOracle>(
    space: &Space<M, I>,
    overlay: &mut DirectoryOverlay,
    objects: usize,
    stride: usize,
) {
    let n = space.len();
    for i in 0..objects {
        overlay.publish(space, ObjectId(i as u64), Node::new((i * stride + 1) % n));
    }
}

/// Every lookup succeeds and stays within the stretch bound; returns the
/// worst stretch observed.
fn check_all_pairs<M: Metric>(space: &Space<M>, overlay: &DirectoryOverlay) -> f64 {
    let mut worst = 1.0f64;
    for s in space.nodes().filter(|&s| overlay.is_alive(s)) {
        for &obj in overlay.objects() {
            let out = overlay
                .lookup(space, s, obj)
                .unwrap_or_else(|e| panic!("lookup {obj} from {s}: {e}"));
            let home = overlay.home_of(obj).expect("published");
            assert_eq!(out.home, home, "wrong home for {obj} from {s}");
            worst = worst.max(out.stretch(space.dist(s, home)));
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) Static delivery: every published object is found from every
    /// origin, on uniform cubes.
    #[test]
    fn static_delivery_on_cubes(n in 24usize..64, objects in 1usize..8, seed in 0u64..200) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, objects, 13);
        let worst = check_all_pairs(&space, &overlay);
        prop_assert!(worst <= STRETCH_BOUND, "stretch {worst}");
    }

    /// (b) Stretch is bounded on perturbed grids (UL-constrained growth).
    #[test]
    fn bounded_stretch_on_grids(side in 4usize..7, jitter in 0.0f64..0.4, seed in 0u64..100) {
        let space = Space::new(gen::perturbed_grid(side, 2, jitter, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, 4, 7);
        let worst = check_all_pairs(&space, &overlay);
        prop_assert!(worst <= STRETCH_BOUND, "stretch {worst}");
    }

    /// (b) ... and on clustered Internet-latency-like metrics.
    #[test]
    fn bounded_stretch_on_clusters(n in 24usize..56, clusters in 2usize..6, seed in 0u64..100) {
        let space = Space::new(gen::clustered(n, 2, clusters, 0.01, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, 4, 11);
        let worst = check_all_pairs(&space, &overlay);
        prop_assert!(worst <= STRETCH_BOUND, "stretch {worst}");
    }

    /// (b) ... and on the exponential line (super-polynomial aspect
    /// ratio: many ladder levels, the regime where geometric sums must
    /// save the climb).
    #[test]
    fn bounded_stretch_on_exponential_line(n in 8usize..20, objects in 1usize..5) {
        let space = Space::new(gen::exponential_line(n));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, objects, 3);
        let worst = check_all_pairs(&space, &overlay);
        prop_assert!(worst <= STRETCH_BOUND, "stretch {worst}");
    }

    /// (c) After any leave sequence followed by repair, every lookup
    /// succeeds again (homes may have migrated).
    #[test]
    fn repair_recovers_from_leaves(
        n in 24usize..48,
        seed in 0u64..200,
        kills in prop::collection::btree_set(0usize..48, 1..10),
    ) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, 5, 9);
        for k in kills {
            let v = Node::new(k % n);
            if overlay.is_alive(v) && overlay.alive_count() > 1 {
                overlay.leave(v);
            }
        }
        overlay.repair(&space);
        let worst = check_all_pairs(&space, &overlay);
        prop_assert!(worst <= STRETCH_BOUND, "post-repair stretch {worst}");
    }

    /// (c) Interleaved joins and leaves followed by repair likewise
    /// recover, and repairing twice is idempotent.
    #[test]
    fn repair_recovers_from_interleaved_churn(
        n in 24usize..40,
        seed in 0u64..200,
        moves in prop::collection::btree_set(0usize..200, 4..16),
    ) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, 4, 5);
        for m in moves {
            let v = Node::new(m % n);
            if overlay.is_alive(v) {
                if overlay.alive_count() > 2 {
                    overlay.leave(v);
                }
            } else {
                overlay.join(&space, v);
            }
        }
        overlay.repair(&space);
        check_all_pairs(&space, &overlay);
        // A second repair finds nothing left to do.
        let idle = overlay.repair(&space);
        prop_assert_eq!(idle.pointer_writes, 0);
        prop_assert_eq!(idle.promotions, 0);
        prop_assert_eq!(idle.rehomed, 0);
    }

    /// The churn driver restores full success under both schedules.
    #[test]
    fn driver_restores_success(n in 32usize..56, seed in 0u64..100, flavor in 0u64..2) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        publish_some(&space, &mut overlay, 6, 7);
        let schedule = if flavor == 1 {
            ChurnSchedule::Targeted { fraction: 0.2 }
        } else {
            ChurnSchedule::Random { fraction: 0.2, seed }
        };
        let report = ron_location::drive_churn(
            &space,
            &mut overlay,
            schedule,
            &ChurnConfig { steps: 2, queries_per_step: 64, seed },
        );
        prop_assert_eq!(report.final_success_rate(), 1.0);
        check_all_pairs(&space, &overlay);
    }
}

/// Drives one serve-during-repair race over `space` and checks the
/// epoch-publication safety property: reader threads load the published
/// snapshot and record `(epoch, origin, obj, answer)` while the main
/// thread publishes a leave wave (epoch 1) and then a repair built off
/// to the side (epoch 2). The writer moves on from an epoch only once
/// every reader has recorded a lookup against it, so every reader
/// observes all three. Afterwards every recorded answer is recomputed
/// on the *retained* snapshot of its epoch — each answer must be exactly
/// the answer of one published plan state, pre-plan-valid or
/// post-plan-valid, never a torn mixture — and every reader must observe
/// epochs monotonically.
fn assert_never_torn<M: Metric + Sync>(space: &Space<M>, objects: usize, victims: usize) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const READERS: usize = 2;

    let n = space.len();
    let mut overlay = DirectoryOverlay::build(space);
    publish_some(space, &mut overlay, objects, 13);
    let cell = EpochCell::new(Snapshot::capture(space, &overlay));
    let mut retained = vec![cell.load()];
    let stop = AtomicBool::new(false);
    // `seen[e]`: how many readers have recorded a lookup against epoch `e`.
    let seen = [const { AtomicUsize::new(0) }; 3];

    let per_reader = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (cell, stop, seen) = (&cell, &stop, &seen);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut last_epoch = 0u64;
                    let mut q = r;
                    // ordering: Acquire -- pairs with the Release
                    // store below; reader exit must observe everything
                    // the writer did before raising the flag.
                    while !stop.load(Ordering::Acquire) {
                        let snap = cell.load();
                        assert!(
                            snap.epoch() >= last_epoch,
                            "published epochs must be monotone per reader"
                        );
                        let first_of_epoch = out.is_empty() || snap.epoch() > last_epoch;
                        last_epoch = snap.epoch();
                        let origin = Node::new((q * 53 + 7) % n);
                        let obj = ObjectId((q % objects) as u64);
                        out.push((snap.epoch(), origin, obj, snap.lookup(space, origin, obj)));
                        if first_of_epoch {
                            // ordering: Release -- pairs with the writer's
                            // Acquire wait: its next publish happens after
                            // this reader's recorded lookup.
                            seen[snap.epoch() as usize].fetch_add(1, Ordering::Release);
                        }
                        q += READERS;
                    }
                    out
                })
            })
            .collect();
        // Blocks until every reader has recorded a lookup against
        // `epoch` (or one died: its panic surfaces at the join below).
        let every_reader_saw = |epoch: usize| {
            // ordering: Acquire -- pairs with the readers' Release bumps.
            while seen[epoch].load(Ordering::Acquire) < READERS
                && !readers.iter().any(|r| r.is_finished())
            {
                std::thread::yield_now();
            }
        };

        // The writer script: the leave wave lands as one published epoch,
        // the repair is built off to the side and swapped in as the next.
        every_reader_saw(0);
        for k in 0..victims {
            let v = Node::new((k * 11 + 3) % n);
            if overlay.is_alive(v) && overlay.alive_count() > 2 {
                overlay.leave(v);
            }
        }
        overlay.publish_snapshot(space, &cell);
        retained.push(cell.load());
        every_reader_saw(1);
        overlay.repair_published(space, &cell);
        retained.push(cell.load());
        every_reader_saw(2);
        // ordering: Release -- publishes the writer's final state to
        // readers that exit on the Acquire load above.
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .collect::<Vec<_>>()
    });

    assert_eq!(
        retained
            .iter()
            .map(ron_location::Published::epoch)
            .collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    for (r, records) in per_reader.iter().enumerate() {
        let mut epochs: Vec<u64> = records.iter().map(|rec| rec.0).collect();
        epochs.dedup();
        assert_eq!(epochs, [0, 1, 2], "reader {r} must observe every epoch");
    }
    for (epoch, origin, obj, answer) in per_reader.iter().flatten() {
        let expected = retained[*epoch as usize].lookup(space, *origin, *obj);
        assert_eq!(
            answer, &expected,
            "epoch {epoch}: the answer from {origin} for {obj} must be exactly the \
             published plan state's answer — never a torn mixture"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Mid-repair answers are never torn, on uniform cubes.
    #[test]
    fn never_torn_on_cubes(n in 32usize..64, seed in 0u64..100) {
        assert_never_torn(&Space::new(gen::uniform_cube(n, 2, seed)), 6, n / 8);
    }

    /// ... on perturbed grids.
    #[test]
    fn never_torn_on_grids(side in 5usize..7, jitter in 0.0f64..0.4, seed in 0u64..100) {
        let space = Space::new(gen::perturbed_grid(side, 2, jitter, seed));
        let victims = space.len() / 8;
        assert_never_torn(&space, 5, victims);
    }

    /// ... on clustered Internet-latency-like metrics.
    #[test]
    fn never_torn_on_clusters(n in 32usize..56, clusters in 2usize..6, seed in 0u64..100) {
        assert_never_torn(&Space::new(gen::clustered(n, 2, clusters, 0.01, seed)), 5, n / 8);
    }

    /// ... and on the exponential line (deep ladders: the most levels a
    /// torn read could straddle).
    #[test]
    fn never_torn_on_exponential_line(n in 10usize..20) {
        assert_never_torn(&Space::new(gen::exponential_line(n)), 4, n / 6);
    }
}

/// A `serve()` batch racing a publish observes only complete snapshots:
/// both the pre-churn and post-repair directories serve every query in
/// the batch, so a mid-batch swap cannot produce a single failure — and
/// the epoch tags keep stale cache entries from leaking across the swap.
#[test]
fn engine_batch_racing_a_publish_never_fails() {
    let space = Space::new(gen::uniform_cube(96, 2, 23));
    let mut overlay = DirectoryOverlay::build(&space);
    publish_some(&space, &mut overlay, 8, 13);
    let victims: Vec<Node> = (0..6).map(|k| Node::new((k * 17 + 3) % 96)).collect();
    let queries: Vec<(Node, ObjectId)> = (0..20_000usize)
        .map(|q| {
            let mut origin = Node::new((q * 53 + 7) % 96);
            while victims.contains(&origin) {
                origin = Node::new((origin.index() + 1) % 96);
            }
            (origin, ObjectId((q % 8) as u64))
        })
        .collect();
    let directory = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &directory);
    let config = EngineConfig {
        workers: 4,
        cache_capacity: 512,
        cache_shards: 4,
    };
    let report = std::thread::scope(|scope| {
        let serve = scope.spawn(|| engine.serve(&queries, &config));
        for &v in &victims {
            overlay.leave(v);
        }
        overlay.repair_published(&space, &directory);
        serve.join().expect("serve thread panicked")
    });
    assert_eq!(report.served, queries.len());
    assert_eq!(
        report.successes, report.served,
        "a mid-batch epoch swap must not fail a query"
    );
    assert_eq!(directory.epoch(), 1);
}

/// The three holders of the directory's pointer tables — the overlay,
/// the snapshot's frozen arena, and the per-node slices of
/// `partition()` (each one node's sorted array) — must
/// agree entry for entry after publishes, unpublishes, churn and repair.
fn assert_representations_agree<M: Metric>(space: &Space<M>, objects: usize, victims: usize) {
    let n = space.len();
    let mut overlay = DirectoryOverlay::build(space);
    publish_some(space, &mut overlay, objects, 13);
    for k in 0..victims {
        let v = Node::new((k * 11 + 3) % n);
        if overlay.is_alive(v) && overlay.alive_count() > 2 {
            overlay.leave(v);
        }
    }
    overlay.repair(space);
    overlay.unpublish(ObjectId(0));

    let snap = Snapshot::capture(space, &overlay);
    let slices = overlay.partition(space);
    assert_eq!(
        overlay.total_entries(),
        slices
            .iter()
            .map(DirectoryNodeState::entries)
            .sum::<usize>()
    );
    for (i, slice) in slices.iter().enumerate() {
        assert_eq!(
            slice.entries(),
            overlay.entries_at(Node::new(i)),
            "node {i}"
        );
    }
    for s in space.nodes().filter(|&s| overlay.is_alive(s)) {
        for &obj in overlay.objects() {
            let a = overlay.lookup(space, s, obj).expect("overlay lookup");
            let b = snap.lookup(space, s, obj).expect("snapshot lookup");
            assert_eq!(a, b, "lookup({s}, {obj})");
        }
    }
}

#[test]
fn storage_representations_agree_on_all_families() {
    assert_representations_agree(&Space::new(gen::uniform_cube(48, 2, 17)), 6, 6);
    assert_representations_agree(&Space::new(gen::clustered(48, 2, 4, 0.02, 9)), 6, 6);
    assert_representations_agree(&Space::new(gen::perturbed_grid(6, 2, 0.3, 4)), 5, 4);
    assert_representations_agree(&Space::new(gen::exponential_line(14)), 3, 2);
}

/// Every `(node, level)` publish ring the overlay hands out (through
/// `partition()`, in id order) is its definition asked of the oracle: the
/// current level members in the closed ball of radius `c·r_j`.
fn assert_rings_match_the_oracle<M: Metric, I: BallOracle>(
    space: &Space<M, I>,
    overlay: &DirectoryOverlay,
    when: &str,
) {
    for (s, slice) in space.nodes().zip(overlay.partition(space)) {
        for j in 0..overlay.levels() {
            let radius = overlay.ring_factor() * overlay.nets().radius(j);
            let mut reference = Vec::new();
            RepairOracle::ball(space, s, radius, &mut |v| {
                if overlay.is_net_member(j, v) {
                    reference.push(v);
                }
            });
            reference.sort_unstable();
            assert_eq!(slice.ring(j), &reference[..], "{when}: ring({s}, {j})");
        }
    }
}

/// The level reads against an independent answer. `overlay.finger` — a
/// scan of the stored ring, an oracle search only where the ring is
/// empty — must equal a plain oracle search over the current membership
/// for every `(node, level)`, every publish ring must be the oracle's
/// ball filtered by membership, and a fresh snapshot (those fingers,
/// frozen) must answer every lookup as the overlay does: the same
/// outcome or error, and the same visited nodes — `hops() + 1` of them
/// from the origin to the home, whose legs sum to `length`. Checked on
/// the pristine overlay and after each step of a leave wave, its repair,
/// the re-joins and their repair, so rows are read before and after they
/// grow.
fn assert_fingers_match_the_oracle<M: Metric, I: BallOracle>(space: &Space<M, I>) {
    let n = space.len();
    let mut overlay = DirectoryOverlay::build(space);
    publish_some(space, &mut overlay, 4, 13);
    let check = |overlay: &DirectoryOverlay, when: &str| {
        for s in space.nodes() {
            for j in 0..overlay.levels() {
                assert_eq!(
                    overlay.finger(space, s, j),
                    RepairOracle::nearest_where(space, s, &mut |v| overlay.is_net_member(j, v)),
                    "{when}: finger({s}, {j})"
                );
            }
        }
        assert_rings_match_the_oracle(space, overlay, when);
        let snap = Snapshot::capture(space, overlay);
        for s in space.nodes() {
            for &obj in overlay.objects() {
                let live = overlay.lookup_path(space, s, obj);
                assert_eq!(
                    snap.lookup_path(space, s, obj),
                    live,
                    "{when}: lookup_path({s}, {obj})"
                );
                // The path-less call is the same walk.
                assert_eq!(
                    snap.lookup(space, s, obj),
                    live.clone().map(|(out, _)| out),
                    "{when}: lookup({s}, {obj})"
                );
                let Ok((out, path)) = live else { continue };
                assert_eq!(path.len(), out.hops() + 1, "{when}: {path:?}");
                assert_eq!((path[0], path[out.hops()]), (s, out.home));
                let legs = path.windows(2).fold(0.0, |sum, w| {
                    assert_ne!(w[0], w[1], "{when}: a hop moves");
                    sum + space.dist(w[0], w[1])
                });
                assert_eq!(legs, out.length, "{when}: legs of {path:?}");
            }
        }
    };
    check(&overlay, "pristine");
    let gone: Vec<Node> = (0..n / 6).map(|k| Node::new((k * 11 + 3) % n)).collect();
    for &v in &gone {
        overlay.leave(v);
    }
    check(&overlay, "after the leave wave");
    overlay.repair(space);
    check(&overlay, "after its repair");
    for &v in &gone {
        overlay.join(space, v);
    }
    check(&overlay, "after the re-joins");
    overlay.repair(space);
    check(&overlay, "after their repair");
}

#[test]
fn fingers_match_the_oracle_on_all_families_and_backends() {
    fn on_both_backends<M: Metric + Clone>(metric: M) {
        assert_fingers_match_the_oracle(&Space::new(metric.clone()));
        assert_fingers_match_the_oracle(&Space::new_sparse(metric));
    }
    on_both_backends(gen::uniform_cube(48, 2, 17));
    on_both_backends(gen::clustered(48, 2, 4, 0.02, 9));
    on_both_backends(gen::perturbed_grid(6, 2, 0.3, 4));
    on_both_backends(gen::exponential_line(14));
    // Exact distance ties: strict `<` over id-sorted ring members must
    // break them as the oracle's `(distance, id)` order does.
    on_both_backends(LineMetric::uniform(32).unwrap());
}

/// Non-proptest: the line metric exercises exact distance ties.
#[test]
fn static_delivery_on_uniform_line() {
    let space = Space::new(LineMetric::uniform(48).unwrap());
    let mut overlay = DirectoryOverlay::build(&space);
    publish_some(&space, &mut overlay, 6, 11);
    let worst = check_all_pairs(&space, &overlay);
    assert!(worst <= STRETCH_BOUND);
}

/// `publish_batch` (parallel planning, ordered install) is byte-identical
/// to publishing the same pairs one at a time, and parallel overlay
/// construction matches single-threaded construction entry for entry.
#[test]
fn batched_and_parallel_publish_match_sequential() {
    use ron_core::par;
    let space = Space::new(gen::uniform_cube(96, 2, 31));
    let items: Vec<(ObjectId, Node)> = (0..24)
        .map(|i| (ObjectId(i as u64), Node::new((i * 13 + 5) % 96)))
        .collect();

    let mut sequential = DirectoryOverlay::build(&space);
    let mut seq_writes = 0usize;
    for &(obj, home) in &items {
        seq_writes += sequential.publish(&space, obj, home);
    }
    let mut batched = par::with_threads(1, || DirectoryOverlay::build(&space));
    let batch_writes = par::with_threads(4, || batched.publish_batch(&space, &items));

    assert_eq!(batch_writes, seq_writes);
    assert_eq!(batched.objects(), sequential.objects());
    assert_eq!(batched.total_entries(), sequential.total_entries());
    assert_eq!(batched.rings(), sequential.rings());
    for v in space.nodes() {
        assert_eq!(
            batched.entries_at(v),
            sequential.entries_at(v),
            "load at {v}"
        );
    }
    for &(obj, _) in &items {
        assert_eq!(batched.home_of(obj), sequential.home_of(obj));
        for s in space.nodes() {
            let a = batched.lookup(&space, s, obj).expect("batched lookup");
            let b = sequential
                .lookup(&space, s, obj)
                .expect("sequential lookup");
            assert_eq!(a, b, "lookup({s}, {obj})");
        }
    }
}

/// The full serving pipeline works end to end on the sparse backend:
/// build, publish, look up everything, churn, repair, recover.
#[test]
fn directory_on_sparse_backend_serves_and_recovers() {
    let space = Space::new_sparse(gen::uniform_cube(64, 2, 41));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..12)
        .map(|i| (ObjectId(i as u64), Node::new((i * 11 + 2) % 64)))
        .collect();
    overlay.publish_batch(&space, &items);
    let mut worst = 1.0f64;
    for s in space.nodes() {
        for &(obj, home) in &items {
            let out = overlay.lookup(&space, s, obj).expect("static lookup");
            assert_eq!(out.home, home);
            worst = worst.max(out.stretch(space.dist(s, home)));
        }
    }
    assert!(worst <= STRETCH_BOUND, "sparse-backend stretch {worst}");
    let report = ron_location::drive_churn(
        &space,
        &mut overlay,
        ChurnSchedule::Targeted { fraction: 0.2 },
        &ChurnConfig {
            steps: 2,
            queries_per_step: 128,
            seed: 7,
        },
    );
    assert_eq!(report.final_success_rate(), 1.0);
}

/// The in-place planner against the detached one, epoch after epoch: two
/// overlays receive the same seeded `leave` / `join` / `publish` /
/// `unpublish` stream; one repairs in place, the other through an owned
/// `control_plane()` copy plus `apply_plan` (what the benchmark's traced
/// epochs and the simulator's coordinator do). After every epoch they
/// must be indistinguishable: same repair bill, same epoch stamp, same
/// homes, identical per-node `partition()` slices, publish rings that
/// both match the oracle (so the twin replayed the plan's row insertions
/// without one) and identical answers (or errors) for every
/// `(origin, object)` pair.
fn assert_in_place_repair_matches_detached_plan<M: Metric>(space: &Space<M>, seed: u64) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let n = space.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut in_place = DirectoryOverlay::build(space);
    publish_some(space, &mut in_place, 4, 7);
    let mut detached = in_place.clone();
    for epoch in 0..6usize {
        for _ in 0..rng.random_range(1..5usize) {
            let v = Node::new(rng.random_range(0..n));
            if !in_place.is_alive(v) {
                in_place.join(space, v);
                detached.join(space, v);
            } else if in_place.alive_count() > 2 {
                in_place.leave(v);
                detached.leave(v);
            }
        }
        // Publish into the damaged ladder, and retire an old object now
        // and then, so the planner sees registry changes between epochs.
        let home = (0..n)
            .map(|i| Node::new((i + epoch * 5) % n))
            .find(|&v| in_place.is_alive(v))
            .expect("somebody stays alive");
        let fresh = ObjectId(1000 + epoch as u64);
        in_place.publish(space, fresh, home);
        detached.publish(space, fresh, home);
        if epoch % 2 == 1 {
            let retired = in_place.objects()[0];
            assert_eq!(in_place.unpublish(retired), detached.unpublish(retired));
        }

        let report = in_place.repair(space);
        let plan = detached.control_plane().plan_repair(space);
        assert_eq!(detached.apply_plan(&plan), report, "epoch {epoch}: bill");
        assert_eq!(detached.epoch(), in_place.epoch(), "epoch {epoch}: stamp");
        assert_eq!(detached.objects(), in_place.objects());
        assert_eq!(
            detached.partition(space),
            in_place.partition(space),
            "epoch {epoch}: per-node slices"
        );
        assert_rings_match_the_oracle(space, &in_place, &format!("epoch {epoch}, in place"));
        assert_rings_match_the_oracle(space, &detached, &format!("epoch {epoch}, detached"));
        for &obj in in_place.objects() {
            assert_eq!(detached.home_of(obj), in_place.home_of(obj), "{obj}");
            for s in space.nodes() {
                assert_eq!(
                    detached.lookup(space, s, obj),
                    in_place.lookup(space, s, obj),
                    "epoch {epoch}: lookup({s}, {obj})"
                );
            }
        }
        // Both consumed their touched sets: a second repair is free.
        assert_eq!(detached.clone().repair(space), Default::default());
        assert_eq!(in_place.clone().repair(space), Default::default());
    }
    check_all_pairs(space, &in_place);
}

#[test]
fn in_place_repair_matches_detached_plan_on_all_families() {
    for seed in 0..4u64 {
        assert_in_place_repair_matches_detached_plan(
            &Space::new(gen::uniform_cube(40, 2, seed)),
            seed,
        );
        assert_in_place_repair_matches_detached_plan(
            &Space::new(gen::clustered(40, 2, 4, 0.02, seed)),
            seed ^ 0x5,
        );
        assert_in_place_repair_matches_detached_plan(
            &Space::new(gen::perturbed_grid(6, 2, 0.3, seed)),
            seed ^ 0x9,
        );
        assert_in_place_repair_matches_detached_plan(&Space::new(gen::exponential_line(14)), seed);
    }
}
