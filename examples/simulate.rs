//! The rings protocols as a distributed system: a 4096-node clustered
//! "Internet latency" metric, publishes and lookups running as real
//! message rounds through the deterministic simulator, a crash burst
//! mid-run, a leave/join wave with distributed repair (success dips,
//! repair epochs run as message rounds, success recovers to 100%), and
//! greedy small-world routing as message chains.
//!
//! Run with: `cargo run --release --example simulate`
//! (`RON_SIM_N=512` shrinks the instance for smoke runs.)
//!
//! Everything is seeded — the printed reports, including the event-trace
//! fingerprints, reproduce exactly.

use std::time::Instant;

use rings_of_neighbors::location::{DirectoryOverlay, ObjectId};
use rings_of_neighbors::metric::{gen, Node, Space};
use rings_of_neighbors::sim::directory::{DirectoryMsg, DirectoryNode};
use rings_of_neighbors::sim::greedy::{GreedyNode, GreedyPacket};
use rings_of_neighbors::sim::{
    ChurnSchedule, LognormalLatency, MetricLatency, Percentiles, SimConfig, Simulator,
};
use rings_of_neighbors::smallworld::GreedyModel;

const SEED: u64 = 1105;

fn sim_n() -> usize {
    const DEFAULT: usize = 4096;
    match std::env::var("RON_SIM_N") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 64 => n,
            _ => {
                eprintln!(
                    "warning: ignoring RON_SIM_N={raw:?} (need an integer >= 64); \
                     running at the default n = {DEFAULT}"
                );
                DEFAULT
            }
        },
        Err(_) => DEFAULT,
    }
}

fn main() {
    let n = sim_n();
    let objects = (n / 4).clamp(16, 1000);
    let lookups = if n >= 4096 { 10_000 } else { (2 * n).max(1000) };
    let routes = if n >= 4096 { 2_000 } else { (n / 2).max(500) };

    // 1. A clustered Internet-latency-like metric and the (empty)
    //    directory overlay, partitioned into per-node slices.
    let t0 = Instant::now();
    let space = Space::new(gen::clustered(n, 2, (n / 64).max(4), 0.01, SEED));
    let mut overlay = DirectoryOverlay::build(&space);
    let fleet = DirectoryNode::fleet(&space, &overlay);
    println!(
        "built + partitioned overlay: n = {n}, levels = {} ({:.1?})",
        overlay.levels(),
        t0.elapsed()
    );

    // The WAN model: latency proportional to the metric with lognormal
    // queueing jitter.
    let wan = LognormalLatency {
        scale: 50.0,
        floor: 0.5,
        sigma: 0.3,
    };

    // 2. Publish phase: each object's home fans its pointer entries out
    //    over the net ladder as install messages.
    let mut publish = Simulator::new(
        fleet,
        |u, v| space.dist(u, v),
        wan,
        SimConfig {
            seed: SEED,
            drop_prob: 0.0,
            timeout: None,
        },
    );
    for i in 0..objects {
        let home = Node::new((i * 31 + 1) % n);
        publish.inject(
            i as f64,
            home,
            DirectoryMsg::Publish {
                obj: ObjectId(i as u64),
            },
        );
    }
    let report = publish.run();
    println!("\n{}", report.render(&format!("publish {objects} objects")));
    assert_eq!(report.completed, objects, "publishes must all acknowledge");

    // The per-node *state* load after the installs — the static
    // counterpart of the message-load histograms below.
    let nodes = publish.into_nodes();
    let static_load = Percentiles::of(
        nodes
            .iter()
            .map(|node| node.state().entries() as f64)
            .collect(),
    );
    println!(
        "per-node directory entries: p50 {:.0} / p99 {:.0} / max {:.0}\n",
        static_load.p50, static_load.p99, static_load.max
    );

    // 3. Lookup phase over the installed tables: 10k lookups with a
    //    crash burst mid-run (2% of the nodes die while queries are in
    //    flight) and a per-query deadline.
    let mut lookup = Simulator::new(
        nodes,
        |u, v| space.dist(u, v),
        wan,
        SimConfig {
            seed: SEED ^ 0x100,
            drop_prob: 0.0,
            timeout: Some(2000.0),
        },
    );
    let spread = lookups as f64 * 0.05;
    let burst = (n / 50).max(1);
    for k in 0..burst {
        lookup.crash_at(spread * 0.6 + k as f64 * 0.01, Node::new((k * 101 + 3) % n));
    }
    for q in 0..lookups {
        let origin = Node::new((q * 53 + 7) % n);
        let obj = ObjectId((q * 97 + 13) as u64 % objects as u64);
        lookup.inject(q as f64 * 0.05, origin, DirectoryMsg::Lookup { obj });
    }
    let report = lookup.run();
    println!(
        "{}",
        report.render(&format!(
            "{lookups} lookups, crash burst of {burst} nodes mid-run"
        ))
    );
    assert!(
        report.success_rate().unwrap_or(0.0) > 0.5,
        "a 2% crash burst must not take down the directory"
    );
    assert!(
        report.completed < lookups,
        "the burst should cost at least one in-flight query"
    );

    // 4. Churn lifecycle: the same lookup workload while ~2% of the
    //    nodes (including the top-level hub) *leave* — state conceded,
    //    directory damaged — a coordinator runs distributed repair as
    //    message rounds (promotion announcements, reconciliation grams,
    //    acks), and half the leavers rejoin fresh with backfill. Lookup
    //    success dips while the directory is damaged and recovers to
    //    100% once the epochs complete.
    //
    //    The fleet comes from an in-process publish of the same objects
    //    (property-tested byte-identical to the simulated installs), so
    //    the repair coordinator's control plane knows the registry.
    let items: Vec<(ObjectId, Node)> = (0..objects)
        .map(|i| (ObjectId(i as u64), Node::new((i * 31 + 1) % n)))
        .collect();
    overlay.publish_batch(&space, &items);
    let top = overlay.levels() - 1;
    let hub = space
        .nodes()
        .find(|&v| overlay.is_net_member(top, v))
        .expect("a top-level hub exists");
    let mut victims = vec![hub];
    for k in 0..(n / 50).max(4) {
        let v = Node::new((k * 101 + 3) % n);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let coordinator = space
        .nodes()
        .find(|v| !victims.contains(v))
        .expect("somebody stays alive");
    let rejoiners: Vec<Node> = victims.iter().step_by(2).copied().collect();
    let mut churn = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        wan,
        SimConfig {
            seed: SEED ^ 0x200,
            drop_prob: 0.0,
            timeout: Some(2000.0),
        },
    );
    let mut schedule = ChurnSchedule::new();
    for &v in &victims {
        schedule.leave_at(300.0, v);
    }
    schedule.repair_at(500.0);
    for &v in &rejoiners {
        schedule.join_at(700.0, v);
    }
    schedule.repair_at(750.0);
    schedule.apply(&mut churn, coordinator);
    // Phase boundaries leave slack for in-flight lookups and for the
    // repair rounds (two message hops each) to ack under WAN jitter.
    churn.mark_phase(0.0, "steady");
    churn.mark_phase(250.0, "churned");
    churn.mark_phase(1200.0, "recovered");
    let span = 1400.0;
    for q in 0..lookups {
        // Origins avoid the victims: the dip below measures directory
        // damage, not dead origins.
        let mut origin = Node::new((q * 53 + 7) % n);
        while victims.contains(&origin) {
            origin = Node::new((origin.index() + 1) % n);
        }
        let obj = ObjectId((q * 97 + 13) as u64 % objects as u64);
        churn.inject(
            q as f64 * span / lookups as f64,
            origin,
            DirectoryMsg::Lookup { obj },
        );
    }
    let report = churn.run();
    println!(
        "{}",
        report.render(&format!(
            "churn lifecycle: {} leave (incl. the top hub), {} rejoin, 2 repair epochs",
            victims.len(),
            rejoiners.len()
        ))
    );
    print!("{}", report.render_phases());
    for (i, repair) in churn.node(coordinator).repair_history().iter().enumerate() {
        println!(
            "repair {}: promotions {}, pointer writes {}, deletes {}, rehomed {}",
            i + 1,
            repair.promotions,
            repair.pointer_writes,
            repair.pointer_deletes,
            repair.rehomed
        );
    }
    // The same run sliced by *injection time* instead of phase marks:
    // the per-bucket availability timeline through the waves and repair
    // epochs.
    print!("{}", report.render_availability(12));
    println!();
    let timeline = report.availability_timeline(12);
    assert_eq!(
        timeline.iter().map(|b| b.injected).sum::<usize>(),
        report.queries,
        "every lookup lands in exactly one timeline bucket"
    );
    let rates: Vec<f64> = timeline.iter().filter_map(|b| b.success_rate()).collect();
    assert!(
        rates.iter().all(|&r| r > 0.0),
        "no bucket may go fully dark: the directory keeps an availability \
         floor even while repair epochs run"
    );
    assert_eq!(
        rates.last(),
        Some(&1.0),
        "the last bucket with traffic must serve everything"
    );
    let phases = report.phase_breakdown();
    assert!(
        phases[0].success_rate().unwrap_or(0.0) > 0.99,
        "the steady phase must serve (in-flight boundary tail aside)"
    );
    assert!(
        phases[1].success_rate().unwrap_or(1.0) < 1.0,
        "the leave wave must dent lookup success"
    );
    assert_eq!(
        phases[2].success_rate(),
        Some(1.0),
        "lookups after the repair epochs must recover to 100%"
    );

    // 5. Greedy small-world routing (Theorem 5.2): 2k routes as message
    //    chains; every route completes in O(log n) messages.
    let t0 = Instant::now();
    let model = GreedyModel::sample(&space, 2.0, SEED);
    println!(
        "sampled greedy contacts: max degree {} ({:.1?})",
        model.contacts().max_out_degree(),
        t0.elapsed()
    );
    let budget = model.hop_budget() as u32;
    let mut greedy = Simulator::new(
        GreedyNode::fleet(model.contacts()),
        |u, v| space.dist(u, v),
        MetricLatency {
            scale: 50.0,
            floor: 0.5,
        },
        SimConfig {
            seed: SEED ^ 0x9,
            drop_prob: 0.0,
            timeout: None,
        },
    );
    for q in 0..routes {
        let src = Node::new((q * 131 + 7) % n);
        let tgt = Node::new((q * 197 + 89) % n);
        greedy.inject(
            q as f64 * 0.05,
            src,
            GreedyPacket {
                target: tgt,
                hops_left: budget,
            },
        );
    }
    let report = greedy.run();
    println!("{}", report.render(&format!("{routes} greedy routes")));
    assert_eq!(report.completed, routes, "greedy routes must all complete");
    let log2n = (n as f64).log2();
    assert!(
        report.hops.max <= 4.0 * log2n + 8.0,
        "greedy message chains must stay O(log n): max {} vs log2 n = {log2n:.1}",
        report.hops.max
    );
    println!("done: all phases deterministic; re-run to see identical fingerprints");
}
