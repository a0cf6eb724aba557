//! E-SIM: the protocols as message-passing systems.

use ron_location::{DirectoryOverlay, ObjectId};
use ron_metric::{gen, EuclideanMetric, Node, Space, DENSE_NODE_CAP};
use ron_sim::directory::{DirectoryMsg, DirectoryNode};
use ron_sim::greedy::{GreedyNode, GreedyPacket};
use ron_sim::{MetricLatency, SimConfig, SimReport, Simulator};
use ron_smallworld::GreedyModel;

use crate::{f, rate_cell, Table};

/// The instance both message-passing tables run on: a clustered
/// Internet-latency metric of `n` nodes and a directory with `n / 8`
/// objects (the returned count) published across it.
pub(crate) fn clustered_directory(n: usize) -> (Space<EuclideanMetric>, DirectoryOverlay, usize) {
    let space = Space::new(gen::clustered(n, 2, (n / 64).max(4), 0.01, 42));
    let objects = (n / 8).clamp(8, 512);
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..objects)
        .map(|i| (ObjectId(i as u64), Node::new((i * 31 + 1) % n)))
        .collect();
    overlay.publish_batch(&space, &items);
    (space, overlay, objects)
}

/// E-SIM: the protocols as message-passing systems (`ron-sim`) over a
/// clustered Internet-latency metric — message counts, per-query message
/// chains, simulated latency percentiles and the **per-node
/// message-load histogram** (the §5 STRUCTURES uniform-load claim,
/// measured at message level).
///
/// Three phases: directory lookups on a failure-free network, greedy
/// small-world routes (Theorem 5.2 hops as message chains), and the same
/// directory workload with a mid-run crash burst plus per-query
/// timeouts, showing the degradation the repair machinery exists for.
/// Everything is seeded; `n` is clamped to [`DENSE_NODE_CAP`].
#[must_use]
pub fn table(n: usize) -> Table {
    let n = n.clamp(16, DENSE_NODE_CAP);
    let mut t = Table::new(
        format!("E-SIM: message-passing simulation (clustered metric, n = {n})"),
        &[
            "driver",
            "queries",
            "success %",
            "msgs sent",
            "msgs dropped+lost",
            "hops mean",
            "hops max",
            "lat p50",
            "lat p99",
            "load p99",
            "load max",
            "load histogram (per-node msgs received)",
        ],
    );
    let push = |t: &mut Table, driver: &str, queries: usize, r: &SimReport| {
        let load = r.load_percentiles();
        t.rows.push(vec![
            driver.to_string(),
            queries.to_string(),
            rate_cell(r.success_rate()),
            r.messages.sent.to_string(),
            (r.messages.dropped + r.messages.lost_to_crash).to_string(),
            f(r.hops.mean),
            f(r.hops.max),
            f(r.latency.p50),
            f(r.latency.p99),
            f(load.p99),
            f(load.max),
            r.load_histogram_rendered(),
        ]);
    };

    let (space, overlay, objects) = clustered_directory(n);
    let lookups = (4 * n).min(8192);
    let latency = MetricLatency {
        scale: 1.0,
        floor: 0.01,
    };
    let inject_lookups = |sim: &mut Simulator<'_, DirectoryNode>| {
        for q in 0..lookups {
            let origin = Node::new((q * 53 + 7) % n);
            let obj = ObjectId((q * 97 + 13) as u64 % objects as u64);
            sim.inject(q as f64 * 0.05, origin, DirectoryMsg::Lookup { obj });
        }
    };

    // Phase 1: failure-free directory lookups.
    let mut sim = Simulator::new(
        DirectoryNode::fleet(&space, &overlay),
        |u, v| space.dist(u, v),
        latency,
        SimConfig::default(),
    );
    inject_lookups(&mut sim);
    let clean = sim.run();
    assert_eq!(
        clean.completed, lookups,
        "failure-free lookups must all complete"
    );
    push(&mut t, "directory lookup", lookups, &clean);

    // Phase 2: greedy small-world routes.
    let model = GreedyModel::sample(&space, 2.0, 21);
    let budget = model.hop_budget() as u32;
    let mut sim = Simulator::new(
        GreedyNode::fleet(model.contacts()),
        |u, v| space.dist(u, v),
        latency,
        SimConfig::default(),
    );
    let routes = n.min(2048);
    for q in 0..routes {
        let src = Node::new((q * 131 + 7) % n);
        let tgt = Node::new((q * 197 + 89) % n);
        sim.inject(
            q as f64 * 0.05,
            src,
            GreedyPacket {
                target: tgt,
                hops_left: budget,
            },
        );
    }
    push(&mut t, "greedy route (Thm 5.2)", routes, &sim.run());

    // Phase 3: the directory workload again, with 2% of the nodes
    // crashing mid-run and a per-query deadline.
    let mut sim = Simulator::new(
        DirectoryNode::fleet(&space, &overlay),
        |u, v| space.dist(u, v),
        latency,
        SimConfig {
            seed: 7,
            drop_prob: 0.0,
            timeout: Some(64.0),
        },
    );
    let burst = (n / 50).max(1);
    let mid = lookups as f64 * 0.05 / 2.0;
    for k in 0..burst {
        sim.crash_at(mid + k as f64 * 0.01, Node::new((k * 101 + 3) % n));
    }
    inject_lookups(&mut sim);
    let churned = sim.run();
    push(
        &mut t,
        &format!("directory lookup (crash burst -{burst})"),
        lookups,
        &churned,
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn sim_smoke() {
        let t = super::table(64);
        assert_eq!(t.rows.len(), 3);
        // Failure-free phases serve everything.
        assert_eq!(t.rows[0][2], "100.0");
        assert_eq!(t.rows[1][2], "100.0");
    }
}
