//! Cross-validation of the distributed churn-and-repair protocol.
//!
//! On an instantaneous, failure-free network, a simulated repair epoch
//! (leaves + joins declared to the coordinator, plan fanned out as
//! grams, acks summed) must equal the in-process
//! `DirectoryOverlay::repair` **exactly**: the same promotions, pointer
//! writes/deletes and re-homings, and identical post-repair lookup
//! answers, hop counts and found levels, and every alive node's slice
//! equal to the twin's `partition()` slice — property-tested on all four
//! instance families. Determinism: the full event trace of a churn run
//! (leaves, joins, repair rounds, lookups under jitter and drops) is
//! byte-identical across reruns and `RON_THREADS` settings.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ron_core::par;
use ron_location::{DirectoryOverlay, ObjectId};
use ron_metric::{gen, Metric, Node, Space};
use ron_sim::directory::{DirectoryMsg, DirectoryNode};
use ron_sim::{
    ChurnSchedule, ConstantLatency, FailKind, LognormalLatency, Resolution, SimConfig, Simulator,
};

/// Every alive node's simulated slice equals the in-process twin's
/// `partition()` slice: membership, fingers, publish rings, pointer
/// entries and homes.
fn assert_slices_match<M: Metric>(
    space: &Space<M>,
    twin: &DirectoryOverlay,
    sim: &Simulator<'_, DirectoryNode>,
    when: &str,
) {
    for (v, slice) in space.nodes().zip(twin.partition(space)) {
        if slice.is_alive() {
            assert_eq!(sim.node(v).state(), &slice, "{when}: slice of {v}");
        }
    }
}

/// Runs one leave/join wave plus repair both ways and asserts exact
/// agreement. `kills` indexes the victims (mod n, deduplicated, capped
/// so at least two nodes survive); every `rejoin_every`-th victim
/// rejoins fresh before the repair (0 = nobody rejoins).
fn cross_validate_repair<M: Metric>(
    space: &Space<M>,
    objects: usize,
    stride: usize,
    kills: &[usize],
    rejoin_every: usize,
) {
    let n = space.len();
    let mut overlay = DirectoryOverlay::build(space);
    for i in 0..objects {
        overlay.publish(space, ObjectId(i as u64), Node::new((i * stride + 1) % n));
    }
    let mut leaves: Vec<Node> = Vec::new();
    for &k in kills {
        let v = Node::new(k % n);
        if !leaves.contains(&v) && leaves.len() + 2 < n {
            leaves.push(v);
        }
    }
    let joins: Vec<Node> = leaves
        .iter()
        .enumerate()
        .filter(|&(i, _)| rejoin_every > 0 && i % rejoin_every == 0)
        .map(|(_, &v)| v)
        .collect();
    let coordinator = (0..n)
        .map(Node::new)
        .find(|v| !leaves.contains(v))
        .expect("somebody stays alive");

    // The in-process twin: same wave, one repair.
    let mut twin = overlay.clone();
    for &v in &leaves {
        twin.leave(v);
    }
    for &v in &joins {
        twin.join(space, v);
    }
    let expect_report = twin.repair(space);

    // The distributed run: leaves crash away, joins revive, the epoch
    // carries the delta; zero latency, no failures.
    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    let mut schedule = ChurnSchedule::new();
    for &v in &leaves {
        schedule.leave_at(0.0, v);
    }
    for &v in &joins {
        schedule.join_at(1.0, v);
    }
    schedule.repair_at(2.0);
    let qids = schedule.apply(&mut sim, coordinator);
    let report = sim.run();
    assert_eq!(qids.len(), 1);
    assert!(
        matches!(
            report.records[qids[0] as usize].resolution,
            Resolution::Delivered { .. }
        ),
        "the repair epoch must complete"
    );
    assert_slices_match(space, &twin, &sim, "after the epoch");
    let nodes = sim.into_nodes();
    assert_eq!(
        nodes[coordinator.index()].repair_history(),
        std::slice::from_ref(&expect_report),
        "distributed repair bill must equal the in-process repair"
    );

    // Post-repair lookups: every alive (origin, object) pair, compared
    // against the repaired twin answer for answer, hop for hop.
    let mut lookups = Simulator::new(
        nodes,
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    let mut expect = Vec::new();
    for s in space.nodes().filter(|&s| twin.is_alive(s)) {
        for &obj in twin.objects() {
            lookups.inject(0.0, s, DirectoryMsg::Lookup { obj });
            expect.push(twin.lookup(space, s, obj).expect("post-repair lookup"));
        }
    }
    let report = lookups.run();
    assert_eq!(
        report.completed,
        expect.len(),
        "every post-repair lookup must succeed"
    );
    for (record, out) in report.records.iter().zip(&expect) {
        assert_eq!(
            record.resolution,
            Resolution::Delivered {
                at: out.home,
                detail: out.found_level as u64
            },
            "answer mismatch from {}",
            record.origin
        );
        assert_eq!(
            record.hops as usize,
            out.hops(),
            "hop mismatch from {}",
            record.origin
        );
    }
}

/// Deterministic pseudo-random kill list from a seed.
fn kill_list(seed: u64, count: usize, range: usize) -> Vec<usize> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.random_range(0..range)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn repair_matches_in_process_on_cubes(
        n in 24usize..48,
        seed in 0u64..200,
        victims in 1usize..8,
        rejoin in 0usize..3,
    ) {
        let space = Space::new(gen::uniform_cube(n, 2, seed));
        cross_validate_repair(&space, 4, 13, &kill_list(seed ^ 0xc, victims, n), rejoin);
    }

    #[test]
    fn repair_matches_in_process_on_clusters(
        n in 24usize..44,
        clusters in 2usize..6,
        seed in 0u64..100,
        victims in 1usize..8,
    ) {
        let space = Space::new(gen::clustered(n, 2, clusters, 0.01, seed));
        cross_validate_repair(&space, 4, 11, &kill_list(seed ^ 0x5, victims, n), 2);
    }

    #[test]
    fn repair_matches_in_process_on_grids(
        side in 4usize..7,
        seed in 0u64..100,
        victims in 1usize..8,
        rejoin in 0usize..3,
    ) {
        let space = Space::new(gen::perturbed_grid(side, 2, 0.2, seed));
        cross_validate_repair(&space, 4, 7, &kill_list(seed ^ 0x9, victims, side * side), rejoin);
    }

    #[test]
    fn repair_matches_in_process_on_exponential_lines(
        n in 8usize..20,
        objs in 1usize..5,
        seed in 0u64..100,
        victims in 1usize..5,
    ) {
        let space = Space::new(gen::exponential_line(n));
        cross_validate_repair(&space, objs, 3, &kill_list(seed, victims, n), 2);
    }
}

/// Two waves, two epochs: the coordinator's control plane must carry
/// correctly from one epoch into the next (placements, membership,
/// registry), tracked against the in-process overlay doing the same
/// two repairs.
#[test]
fn consecutive_epochs_track_the_in_process_overlay() {
    let space = Space::new(gen::uniform_cube(40, 2, 77));
    let mut overlay = DirectoryOverlay::build(&space);
    for i in 0..6u64 {
        overlay.publish(&space, ObjectId(i), Node::new((i as usize * 7 + 1) % 40));
    }
    let wave1 = [Node::new(3), Node::new(17), Node::new(21)];
    let wave2 = [Node::new(8), Node::new(30)];
    let coordinator = Node::new(0);

    let mut twin = overlay.clone();
    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );

    for &v in &wave1 {
        twin.leave(v);
    }
    let first = twin.repair(&space);
    let mut schedule = ChurnSchedule::new();
    for &v in &wave1 {
        schedule.leave_at(0.0, v);
    }
    schedule.repair_at(1.0);
    let mut qids = schedule.apply(&mut sim, coordinator);
    sim.run();
    assert_slices_match(&space, &twin, &sim, "after the first epoch");

    for &v in &wave2 {
        twin.leave(v);
    }
    twin.join(&space, wave1[0]); // node 3 comes back between the waves
    let second = twin.repair(&space);
    let mut schedule = ChurnSchedule::new();
    for &v in &wave2 {
        schedule.leave_at(10.0, v);
    }
    schedule.join_at(11.0, wave1[0]);
    schedule.repair_at(12.0);
    qids.extend(schedule.apply(&mut sim, coordinator));
    let report = sim.run();
    assert_slices_match(&space, &twin, &sim, "after the second epoch");

    assert_eq!(qids.len(), 2);
    for &qid in &qids {
        assert!(matches!(
            report.records[qid as usize].resolution,
            Resolution::Delivered { .. }
        ));
    }
    let nodes = sim.into_nodes();
    assert_eq!(
        nodes[coordinator.index()].repair_history(),
        &[first, second]
    );

    // And the fleet still answers like the twin.
    let mut lookups = Simulator::new(
        nodes,
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    let mut expect = Vec::new();
    for s in space.nodes().filter(|&s| twin.is_alive(s)) {
        for &obj in twin.objects() {
            lookups.inject(0.0, s, DirectoryMsg::Lookup { obj });
            expect.push(twin.lookup(&space, s, obj).expect("lookup"));
        }
    }
    let report = lookups.run();
    assert_eq!(report.completed, expect.len());
    for (record, out) in report.records.iter().zip(&expect) {
        assert_eq!(
            record.resolution,
            Resolution::Delivered {
                at: out.home,
                detail: out.found_level as u64
            }
        );
    }
}

/// A publish injected after a hub leave and its repair installs exactly
/// the entries the in-process publish does: its fan-out reads the home's
/// publish rings, which the repair grams refresh along with the fingers.
/// One object is published at a survivor, one at a home that left and
/// rejoined inside the epoch (which must still home what the registry
/// homes at it).
#[test]
fn post_repair_publish_installs_the_in_process_entries() {
    for seed in 0..10u64 {
        let space = Space::new(gen::uniform_cube(48, 2, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        for i in 0..4u64 {
            overlay.publish(&space, ObjectId(i), Node::new((i as usize * 13 + 1) % 48));
        }
        let top = overlay.levels() - 1;
        let hub = space
            .nodes()
            .find(|&v| overlay.is_net_member(top, v))
            .expect("a hub exists");
        let home = overlay
            .objects()
            .iter()
            .filter_map(|&obj| overlay.home_of(obj))
            .find(|&h| h != hub)
            .expect("a home other than the hub");
        let survivor = Node::new((hub.index() + 24) % 48);
        let coordinator = space
            .nodes()
            .find(|&v| v != hub && v != home)
            .expect("a coordinator");
        let fresh = [(ObjectId(100), survivor), (ObjectId(101), home)];

        let mut twin = overlay.clone();
        twin.leave(hub);
        twin.leave(home);
        twin.join(&space, home);
        twin.repair(&space);
        for &(obj, at) in &fresh {
            twin.publish(&space, obj, at);
        }

        let mut sim = Simulator::new(
            DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let mut schedule = ChurnSchedule::new();
        schedule.leave_at(0.0, hub);
        schedule.leave_at(0.0, home);
        schedule.join_at(1.0, home);
        schedule.repair_at(2.0);
        schedule.apply(&mut sim, coordinator);
        for &(obj, at) in &fresh {
            sim.inject(3.0, at, DirectoryMsg::Publish { obj });
        }
        sim.run();

        let slices = twin.partition(&space);
        for v in space.nodes().filter(|&v| twin.is_alive(v)) {
            let state = sim.node(v).state();
            for j in 0..twin.levels() {
                for &(obj, _) in &fresh {
                    assert_eq!(
                        state.entry(j, obj),
                        slices[v.index()].entry(j, obj),
                        "seed {seed}: level-{j} entry for {obj} at {v}"
                    );
                }
            }
        }
        assert_slices_match(&space, &twin, &sim, &format!("seed {seed}"));
    }
}

/// Regression: a node that rejoins after an epoch it slept through must
/// serve lookups exactly like the twin. Its slice predates the epoch
/// that repaired its own leave, so levels touched *then* (and untouched
/// in its rejoin epoch) would be stale if the join backfill shipped
/// only the rejoin epoch's touched levels — the gram must carry the
/// complete finger vector. (Seed 10 with a = 5, v = 19 used to return
/// BrokenChain from the rejoined origin where the twin delivers.)
#[test]
fn rejoiner_lookups_match_after_an_interleaving_epoch() {
    for seed in 0..30u64 {
        let space = Space::new(gen::uniform_cube(40, 2, seed));
        let mut overlay = DirectoryOverlay::build(&space);
        for i in 0..4u64 {
            overlay.publish(&space, ObjectId(i), Node::new((i as usize * 13 + 1) % 40));
        }
        let a = Node::new(5);
        let v = Node::new(19);
        let coordinator = Node::new(0);

        let mut twin = overlay.clone();
        twin.leave(a);
        twin.leave(v);
        let first = twin.repair(&space);
        twin.join(&space, v);
        let second = twin.repair(&space);

        let mut sim = Simulator::new(
            DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let mut schedule = ChurnSchedule::new();
        schedule.leave_at(0.0, a);
        schedule.leave_at(0.0, v);
        schedule.repair_at(1.0);
        schedule.join_at(2.0, v);
        schedule.repair_at(3.0);
        schedule.apply(&mut sim, coordinator);
        sim.run();
        let nodes = sim.into_nodes();
        assert_eq!(
            nodes[coordinator.index()].repair_history(),
            &[first, second],
            "seed {seed}: repair bills"
        );

        let mut lookups = Simulator::new(
            nodes,
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let mut expect = Vec::new();
        for s in space.nodes().filter(|&s| twin.is_alive(s)) {
            for &obj in twin.objects() {
                lookups.inject(0.0, s, DirectoryMsg::Lookup { obj });
                expect.push(twin.lookup(&space, s, obj).expect("post-repair lookup"));
            }
        }
        let report = lookups.run();
        for (record, out) in report.records.iter().zip(&expect) {
            assert_eq!(
                record.resolution,
                Resolution::Delivered {
                    at: out.home,
                    detail: out.found_level as u64
                },
                "seed {seed}: lookup from {} diverged",
                record.origin
            );
            assert_eq!(record.hops as usize, out.hops(), "seed {seed}");
        }
    }
}

/// Regression: an epoch scheduled before the previous epoch's acks are
/// back must not corrupt the coordinator (the pending counter used to
/// underflow on the stale acks). The old epoch is abandoned — its query
/// stays unresolved — and its stragglers are dropped by epoch id.
#[test]
fn overlapping_epochs_abandon_the_older_one() {
    let space = Space::new(gen::uniform_cube(32, 2, 5));
    let mut overlay = DirectoryOverlay::build(&space);
    for i in 0..4u64 {
        overlay.publish(&space, ObjectId(i), Node::new((i as usize * 9 + 1) % 32));
    }
    let coordinator = Node::new(0);
    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        // Grams take 5 time units each way: epoch 1's acks land at
        // t = 11, well after epoch 2 starts at t = 3.
        ConstantLatency(5.0),
        SimConfig::default(),
    );
    let mut schedule = ChurnSchedule::new();
    schedule.leave_at(0.0, Node::new(7));
    schedule.repair_at(1.0);
    schedule.leave_at(2.0, Node::new(13));
    schedule.repair_at(3.0);
    let qids = schedule.apply(&mut sim, coordinator);
    let report = sim.run();
    assert!(
        matches!(
            report.records[qids[0] as usize].resolution,
            Resolution::Failed(FailKind::Unresolved)
        ),
        "the overtaken epoch must stay unresolved, got {:?}",
        report.records[qids[0] as usize].resolution
    );
    assert!(
        matches!(
            report.records[qids[1] as usize].resolution,
            Resolution::Delivered { .. }
        ),
        "the current epoch must complete"
    );
    let history = sim.node(coordinator).repair_history();
    assert_eq!(history.len(), 1, "only the completed epoch is recorded");
}

/// One full churn lifecycle under WAN jitter and drops; returns the
/// full report (trace fingerprint plus availability timeline).
fn churn_fingerprint_run(seed: u64) -> ron_sim::SimReport {
    let space = Space::new(gen::uniform_cube(64, 2, 17));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..8)
        .map(|i| (ObjectId(i as u64), Node::new((i * 11 + 2) % 64)))
        .collect();
    overlay.publish_batch(&space, &items);
    let coordinator = Node::new(0);
    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        LognormalLatency {
            scale: 60.0,
            floor: 0.2,
            sigma: 0.4,
        },
        SimConfig {
            seed,
            drop_prob: 0.02,
            timeout: Some(400.0),
        },
    );
    let mut schedule = ChurnSchedule::new();
    for k in 0..6usize {
        schedule.leave_at(25.0 + k as f64, Node::new((k * 19 + 5) % 64));
    }
    schedule.join_at(60.0, Node::new(5));
    schedule.crash_at(30.0, Node::new(50));
    schedule.rejoin_at(55.0, Node::new(50));
    schedule.repair_at(80.0);
    schedule.apply(&mut sim, coordinator);
    sim.mark_phase(0.0, "steady");
    sim.mark_phase(25.0, "churned");
    sim.mark_phase(80.0, "repaired");
    for q in 0..300usize {
        let origin = Node::new((q * 37 + 1) % 64);
        let obj = ObjectId((q % items.len()) as u64);
        sim.inject(q as f64 * 0.5, origin, DirectoryMsg::Lookup { obj });
    }
    sim.run()
}

/// Acceptance: churn, repair rounds, phase marks, jitter and drops —
/// the trace stays byte-identical across reruns and thread counts, and
/// so does the derived availability timeline (the serve-during-repair
/// figure must reproduce bucket for bucket).
#[test]
fn churn_trace_fingerprint_is_identical_across_thread_counts_and_reruns() {
    let single = par::with_threads(1, || churn_fingerprint_run(1105));
    let parallel = par::with_threads(4, || churn_fingerprint_run(1105));
    let again = churn_fingerprint_run(1105);
    assert_eq!(
        single.trace_fingerprint, parallel.trace_fingerprint,
        "RON_THREADS must not change the trace"
    );
    assert_eq!(
        single.trace_fingerprint, again.trace_fingerprint,
        "reruns must replay the identical trace"
    );
    assert_ne!(
        single.trace_fingerprint,
        churn_fingerprint_run(1106).trace_fingerprint,
        "the seed must matter"
    );
    let timeline = single.availability_timeline(8);
    assert_eq!(timeline, parallel.availability_timeline(8));
    assert_eq!(timeline, again.availability_timeline(8));
    assert_eq!(
        timeline.iter().map(|b| b.injected).sum::<usize>(),
        single.queries,
        "every query lands in exactly one bucket"
    );
}

/// Lookups keep flowing through a leave wave: success dips while the
/// directory is damaged and returns to 100% for queries injected after
/// the repair epoch completes.
#[test]
fn success_dips_and_recovers_around_a_repair_epoch() {
    let space = Space::new(gen::clustered(96, 2, 4, 0.01, 23));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..12)
        .map(|i| (ObjectId(i as u64), Node::new((i * 17 + 3) % 96)))
        .collect();
    overlay.publish_batch(&space, &items);
    // Kill the top hub (worst case for the climb) and a spread of nodes.
    let top = overlay.levels() - 1;
    let hub = space
        .nodes()
        .find(|&v| overlay.is_net_member(top, v))
        .expect("a hub exists");
    let coordinator = space
        .nodes()
        .find(|&v| v != hub && v.index() % 7 != 1)
        .expect("coordinator");
    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        ConstantLatency(0.5),
        SimConfig {
            seed: 3,
            drop_prob: 0.0,
            timeout: Some(100.0),
        },
    );
    let mut schedule = ChurnSchedule::new();
    schedule.leave_at(200.0, hub);
    for k in 0..8usize {
        let v = Node::new((k * 7 + 1) % 96);
        if v != hub && v != coordinator {
            schedule.leave_at(200.0, v);
        }
    }
    schedule.repair_at(400.0);
    schedule.apply(&mut sim, coordinator);
    sim.mark_phase(0.0, "steady");
    // The churned phase starts a little before the wave so lookups still
    // in flight when the crash hits are charged to it, not to steady.
    sim.mark_phase(185.0, "churned");
    sim.mark_phase(500.0, "repaired");
    let alive_origin = |q: usize| {
        // Avoid dead origins so the dip measures directory damage, not
        // OriginDown noise.
        let mut v = Node::new((q * 5 + 2) % 96);
        while v == hub || v.index() % 7 == 1 {
            v = Node::new((v.index() + 1) % 96);
        }
        v
    };
    for q in 0..600usize {
        let obj = ObjectId((q % items.len()) as u64);
        sim.inject(q as f64, alive_origin(q), DirectoryMsg::Lookup { obj });
    }
    let report = sim.run();
    let phases = report.phase_breakdown();
    assert_eq!(phases.len(), 3);
    assert_eq!(phases[0].success_rate(), Some(1.0), "steady phase");
    let churned = phases[1].success_rate().expect("churned phase has queries");
    assert!(
        churned < 1.0,
        "the leave wave must break some lookups (got {churned})"
    );
    assert_eq!(
        phases[2].success_rate(),
        Some(1.0),
        "post-repair lookups must all succeed again"
    );
}

/// Failure parity of the shared walk rule on a damaged directory: nodes
/// leave (and some rejoin empty-handed) with **no** repair, the fleet is
/// partitioned from that state, and every alive `(origin, object)` pair
/// is looked up both ways. A delivery must match home, hops and found
/// level; an exhausted climb must fail as `NotFound` on both sides; a
/// chain node missing its entry must fail as `BrokenChain` on both
/// sides. (A chain entry naming a *dead* node is `BrokenChain` in
/// process, where liveness is a table lookup; on the wire the packet is
/// simply lost, so the simulated query must merely not deliver.)
/// Returns how many lookups ended (delivered, not found, broken).
fn cross_validate_damaged_walk<M: Metric>(
    space: &Space<M>,
    objects: usize,
    stride: usize,
    kills: &[usize],
    rejoin_every: usize,
) -> (usize, usize, usize) {
    use ron_location::LocateError;
    let n = space.len();
    let mut damaged = DirectoryOverlay::build(space);
    for i in 0..objects {
        damaged.publish(space, ObjectId(i as u64), Node::new((i * stride + 1) % n));
    }
    for (i, &k) in kills.iter().enumerate() {
        let v = Node::new(k % n);
        if damaged.is_alive(v) && damaged.alive_count() > 2 {
            damaged.leave(v);
            if rejoin_every > 0 && i % rejoin_every == 0 {
                damaged.join(space, v);
            }
        }
    }

    let mut sim = Simulator::new(
        DirectoryNode::fleet(space, &damaged),
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    for v in space.nodes().filter(|&v| !damaged.is_alive(v)) {
        sim.crash_at(0.0, v);
    }
    let mut expect = Vec::new();
    for s in space.nodes().filter(|&s| damaged.is_alive(s)) {
        for &obj in damaged.objects() {
            sim.inject(1.0, s, DirectoryMsg::Lookup { obj });
            expect.push(damaged.lookup(space, s, obj));
        }
    }
    let report = sim.run();
    let (mut delivered, mut not_found, mut broken) = (0, 0, 0);
    for (record, outcome) in report.records.iter().zip(&expect) {
        let origin = record.origin;
        match outcome {
            Ok(out) => {
                delivered += 1;
                assert_eq!(
                    record.resolution,
                    Resolution::Delivered {
                        at: out.home,
                        detail: out.found_level as u64
                    },
                    "answer mismatch from {origin}"
                );
                assert_eq!(record.hops as usize, out.hops(), "hops from {origin}");
            }
            Err(LocateError::NotFound { .. }) => {
                not_found += 1;
                assert_eq!(
                    record.resolution,
                    Resolution::Failed(FailKind::NotFound),
                    "from {origin}"
                );
            }
            Err(LocateError::BrokenChain { at, .. }) if damaged.is_alive(*at) => {
                broken += 1;
                assert_eq!(
                    record.resolution,
                    Resolution::Failed(FailKind::BrokenChain),
                    "from {origin}"
                );
            }
            Err(LocateError::BrokenChain { .. }) => assert!(
                matches!(record.resolution, Resolution::Failed(_)),
                "a packet sent to a dead node cannot deliver (from {origin})"
            ),
            Err(other) => panic!("alive origin, published object: {other}"),
        }
    }
    (delivered, not_found, broken)
}

#[test]
fn damaged_walk_fails_the_same_way_in_process_and_simulated() {
    let mut totals = (0usize, 0usize, 0usize);
    let mut tally = |(d, n, b): (usize, usize, usize)| {
        totals = (totals.0 + d, totals.1 + n, totals.2 + b);
    };
    for seed in 0..6u64 {
        let kills = |range| kill_list(seed ^ 0x51, 10, range);
        let cube = Space::new(gen::uniform_cube(40, 2, seed));
        tally(cross_validate_damaged_walk(&cube, 5, 13, &kills(40), 3));
        let clusters = Space::new(gen::clustered(40, 2, 4, 0.01, seed));
        tally(cross_validate_damaged_walk(&clusters, 5, 11, &kills(40), 2));
        let grid = Space::new(gen::perturbed_grid(6, 2, 0.2, seed));
        tally(cross_validate_damaged_walk(&grid, 5, 7, &kills(36), 0));
        let line = Space::new(gen::exponential_line(16));
        tally(cross_validate_damaged_walk(&line, 4, 3, &kills(16), 2));
    }
    // The damage must actually exercise every outcome of the walk rule.
    assert!(totals.0 > 0 && totals.1 > 0 && totals.2 > 0, "{totals:?}");
}

/// A repair epoch ships grams only where slices change: after one leave
/// from the middle of the ladder at n = 1024 (clustered), the nodes sent
/// a gram are exactly the alive nodes within `c·r_j` (by `space.dist`)
/// of a node touched at `j`, plus the nodes with plan work, less the
/// coordinator (which applies its own delta in place) — fewer than an
/// eighth of the alive nodes.
#[test]
fn a_leave_sends_grams_only_near_its_changes() {
    let n = 1024;
    let space = Space::new(gen::clustered(n, 2, 16, 0.01, 42));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..128)
        .map(|i| (ObjectId(i as u64), Node::new((i * 31 + 1) % n)))
        .collect();
    overlay.publish_batch(&space, &items);
    let leaver = space
        .nodes()
        .find(|&v| overlay.top_level_of(v) == Some(overlay.levels() / 2))
        .expect("the middle level has members of its own");
    let coordinator = space.nodes().find(|&v| v != leaver).expect("n > 1");

    // The epoch's touched nodes and plan work, planned on a copy.
    let mut control = overlay.control_plane();
    control.note_leave(leaver);
    let plan = control.plan_repair(&space);
    let mut expected: BTreeSet<Node> = plan.node_repairs.iter().map(|nr| nr.node).collect();
    for (j, touched) in plan.touched.iter().enumerate() {
        let reach = overlay.ring_factor() * overlay.nets().radius(j);
        for &t in touched {
            let near = space.nodes().filter(|&v| space.dist(t, v) <= reach);
            expected.extend(near.filter(|&v| control.is_alive(v)));
        }
    }
    expected.remove(&coordinator);

    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        ConstantLatency(0.0),
        SimConfig::default(),
    );
    let mut schedule = ChurnSchedule::new();
    schedule.leave_at(0.0, leaver);
    schedule.repair_at(1.0);
    schedule.apply(&mut sim, coordinator);
    let report = sim.run();
    let received: BTreeSet<Node> = space
        .nodes()
        .filter(|&v| v != coordinator && report.node_received[v.index()] > 0)
        .collect();
    assert_eq!(received, expected, "the nodes sent a gram");
    assert_eq!(sim.node(coordinator).repair_grams(), &[expected.len()]);
    assert!(
        expected.len() < control.alive_count() / 8,
        "{} grams for {} alive nodes",
        expected.len(),
        control.alive_count()
    );
}
