//! Table 1: `(1+delta)`-stretch routing on doubling graphs.

use ron_routing::{over_all_pairs, BasicScheme, FullTableBaseline, SimpleScheme};

use crate::{f, graph_instance, Table};

/// Table 1: (1+delta)-stretch routing schemes on doubling **graphs** —
/// measured table/header bits and stretch for Theorems 2.1 and 4.1 next to
/// the competitors' formulas.
#[must_use]
pub fn table(delta: f64) -> Table {
    let mut t = Table::new(
        format!("Table 1: (1+d)-stretch routing on doubling graphs (delta = {delta})"),
        &[
            "graph",
            "n",
            "logDelta",
            "scheme",
            "table bits",
            "header bits",
            "max stretch",
        ],
    );
    for name in ["grid-8x8", "exp-path-24"] {
        let inst = graph_instance(name);
        let n = inst.graph.len();
        let log_delta = inst.space.index().aspect_ratio().log2();
        let log_n = (n as f64).log2();
        let dout = inst.graph.max_out_degree() as f64;

        let baseline = FullTableBaseline::build(&inst.graph, &inst.apsp);
        let b_stats = over_all_pairs(&inst.graph, &inst.apsp, |u, v| {
            baseline.route(&inst.graph, u, v)
        })
        .expect("baseline");
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "full table (stretch 1)".into(),
            baseline.table_bits().total_bits().to_string(),
            baseline.header_bits().to_string(),
            f(b_stats.max_stretch),
        ]);

        let basic = BasicScheme::build(&inst.space, &inst.graph, &inst.apsp, delta);
        let s = over_all_pairs(&inst.graph, &inst.apsp, |u, v| {
            basic.route(&inst.graph, u, v)
        })
        .expect("thm 2.1");
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "Thm 2.1 (measured)".into(),
            basic.max_table_bits().to_string(),
            basic.header_bits().to_string(),
            f(s.max_stretch),
        ]);

        let simple = SimpleScheme::build(&inst.space, &inst.graph, &inst.apsp, delta);
        let s = over_all_pairs(&inst.graph, &inst.apsp, |u, v| {
            simple.route(&inst.graph, u, v)
        })
        .expect("thm 4.1");
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "Thm 4.1 (measured)".into(),
            simple.max_table_bits().to_string(),
            simple.header_bits().to_string(),
            f(s.max_stretch),
        ]);

        // Competitor formulas with unit constants (the paper's Table 1
        // cites asymptotics; '~' marks formula evaluation, not
        // measurement).
        let inv = 1.0 / delta;
        let talwar_table = inv * (log_delta + 2.0).powi(2);
        let talwar_header = (log_delta + 2.0) * inv.log2().max(1.0);
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "~Talwar'04 formula".into(),
            format!("~{talwar_table:.0}"),
            format!("~{talwar_header:.0}"),
            String::from("1+d"),
        ]);
        let chan_table = inv * (log_delta + 2.0) * dout.log2().max(1.0);
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "~Chan+'05 formula".into(),
            format!("~{chan_table:.0}"),
            format!("~{talwar_header:.0}"),
            String::from("1+d"),
        ]);
        let abraham_table = inv * (log_delta + 2.0) * log_n;
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "~Abraham+'06 formula".into(),
            format!("~{abraham_table:.0}"),
            format!("~{:.0}", log_n.ceil()),
            String::from("1+d"),
        ]);
    }
    t
}
