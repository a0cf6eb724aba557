//! E-CHURN: distributed churn, repair and recovery.

use ron_location::ObjectId;
use ron_metric::Node;
use ron_sim::directory::{DirectoryMsg, DirectoryNode};
use ron_sim::{ChurnSchedule, MetricLatency, SimConfig, Simulator};

use crate::sim::{clustered_directory, DENSE_NODE_CAP};
use crate::{f, rate_cell, Table};

/// E-CHURN: the full churn→repair→recovery lifecycle as a distributed
/// protocol (`ron-sim`): lookups flow continuously while a leave wave
/// (including the top-level hub) damages the directory, a coordinator
/// runs the repair epoch as message rounds (promotion announcements,
/// pointer-reconciliation grams, re-homing adoptions), half the leavers
/// rejoin fresh and a second epoch backfills them. One row per phase
/// (success rate and per-node message load) plus one row per repair
/// epoch (the repair bill) and the run's trace fingerprint.
///
/// The steady phase must serve 100% and the post-repair phases must
/// *recover* to 100% — asserted, not just printed (zero-latency
/// failure-free repair is property-tested byte-equal to the in-process
/// `DirectoryOverlay::repair` in `ron-sim`'s test suite). Everything is
/// seeded; `n` is clamped to `[64, DENSE_NODE_CAP]`.
#[must_use]
pub fn table(n: usize) -> Table {
    let n = n.clamp(64, DENSE_NODE_CAP);
    let mut t = Table::new(
        format!("E-CHURN: distributed churn & repair (clustered metric, n = {n})"),
        &[
            "phase",
            "queries",
            "success %",
            "msgs sent",
            "load p99",
            "load max",
            "detail",
        ],
    );

    let (space, overlay, objects) = clustered_directory(n);

    // Victims: the top-level hub (worst case for the climb) plus a
    // deterministic spread; the coordinator never churns.
    let top = overlay.levels() - 1;
    let hub = space
        .nodes()
        .find(|&v| overlay.is_net_member(top, v))
        .expect("a hub exists");
    let mut victims = vec![hub];
    for k in 0..(n / 16).max(2) {
        let v = Node::new((k * 11 + 3) % n);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let coordinator = space
        .nodes()
        .find(|v| !victims.contains(v))
        .expect("somebody stays");
    let rejoiners: Vec<Node> = victims.iter().step_by(2).copied().collect();

    let lookups = (4 * n).min(8192);
    let span = (lookups as f64 * 0.05).max(400.0);
    let dt = span / lookups as f64;
    let t_wave = 0.30 * span;
    let t_repair = 0.50 * span;
    let t_join = 0.65 * span;
    let t_repair2 = 0.70 * span;

    let mut sim = Simulator::new(
        DirectoryNode::fleet_with_coordinator(&space, &overlay, coordinator),
        |u, v| space.dist(u, v),
        MetricLatency {
            scale: 1.0,
            floor: 0.01,
        },
        SimConfig {
            seed: 1105,
            drop_prob: 0.0,
            timeout: Some(64.0),
        },
    );
    let mut schedule = ChurnSchedule::new();
    for &v in &victims {
        schedule.leave_at(t_wave, v);
    }
    schedule.repair_at(t_repair);
    for &v in &rejoiners {
        schedule.join_at(t_join, v);
    }
    schedule.repair_at(t_repair2);
    schedule.apply(&mut sim, coordinator);
    // Phase boundaries leave slack for in-flight lookups (a climb plus
    // a descent under this latency model stays well under 30 time
    // units) and for the repair rounds to ack.
    sim.mark_phase(0.0, "steady");
    sim.mark_phase(t_wave - 30.0, "churned");
    sim.mark_phase(t_repair + 20.0, "repaired");
    sim.mark_phase(t_join - 30.0, "join wave");
    sim.mark_phase(t_repair2 + 20.0, "rejoined");
    for q in 0..lookups {
        // Origins avoid the victims so the measured dip is directory
        // damage, not OriginDown.
        let mut origin = Node::new((q * 53 + 7) % n);
        while victims.contains(&origin) {
            origin = Node::new((origin.index() + 1) % n);
        }
        let obj = ObjectId((q * 97 + 13) as u64 % objects as u64);
        sim.inject(q as f64 * dt, origin, DirectoryMsg::Lookup { obj });
    }
    let report = sim.run();
    let history = sim.node(coordinator).repair_history().to_vec();

    for phase in report.phase_breakdown() {
        let success = phase.success_rate();
        match phase.name.as_str() {
            "steady" => assert_eq!(success, Some(1.0), "steady phase must serve everything"),
            "repaired" | "rejoined" => assert_eq!(
                success,
                Some(1.0),
                "{} phase must recover to 100%",
                phase.name
            ),
            _ => {}
        }
        t.rows.push(vec![
            phase.name.clone(),
            phase.queries.to_string(),
            rate_cell(success),
            "-".into(),
            f(phase.load.p99),
            f(phase.load.max),
            format!("[{:.0}, {:.0})", phase.start, phase.end),
        ]);
    }
    assert_eq!(history.len(), 2, "both repair epochs must complete");
    for (i, repair) in history.iter().enumerate() {
        t.rows.push(vec![
            format!("repair {}", i + 1),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!(
                "promotions {}, writes {}, deletes {}, rehomed {} (of {} objects)",
                repair.promotions,
                repair.pointer_writes,
                repair.pointer_deletes,
                repair.rehomed,
                repair.objects_touched
            ),
        ]);
    }
    t.rows.push(vec![
        "whole run".into(),
        report.queries.to_string(),
        rate_cell(report.success_rate()),
        report.messages.sent.to_string(),
        f(report.load_percentiles().p99),
        f(report.load_percentiles().max),
        format!(
            "wave -{} (+{} rejoined), trace {:016x}",
            victims.len(),
            rejoiners.len(),
            report.trace_fingerprint
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn churn_smoke() {
        // The table asserts its own recovery invariants (steady and
        // post-repair phases at 100%); here we pin the table shape:
        // 5 phases + 2 repair bills + the whole-run summary.
        let t = super::table(64);
        assert_eq!(t.rows.len(), 8);
        assert!(t.rows.iter().any(|r| r[0] == "repair 2"));
        assert_eq!(t.rows[0][0], "steady");
        assert_eq!(t.rows[0][2], "100.0");
    }
}
