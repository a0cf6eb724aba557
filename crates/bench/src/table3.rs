//! Table 3: space split of the two-mode scheme.

use ron_metric::Node;
use ron_routing::TwoModeScheme;

use crate::{f, graph_instance, Table};

/// Table 3: the M1/M2 space split of the two-mode scheme (Theorem B.1).
#[must_use]
pub fn table(delta: f64) -> Table {
    let mut t = Table::new(
        format!("Table 3: two-mode scheme space requirements (delta = {delta})"),
        &[
            "graph",
            "n",
            "logDelta",
            "component",
            "bits (max over nodes)",
        ],
    );
    for name in ["grid-8x8", "exp-path-24"] {
        let inst = graph_instance(name);
        let scheme = TwoModeScheme::build(&inst.space, &inst.graph, &inst.apsp, delta);
        let log_delta = inst.space.index().aspect_ratio().log2();
        // Aggregate per-component maxima over nodes.
        let mut maxima: Vec<(String, u64)> = Vec::new();
        for i in 0..inst.graph.len() {
            let report = scheme.table_bits(Node::new(i));
            for (part, bits) in report.parts() {
                match maxima.iter_mut().find(|(p, _)| p == part) {
                    Some(entry) => entry.1 = entry.1.max(*bits),
                    None => maxima.push((part.clone(), *bits)),
                }
            }
        }
        for (part, bits) in &maxima {
            t.rows.push(vec![
                name.to_string(),
                inst.graph.len().to_string(),
                f(log_delta),
                part.clone(),
                bits.to_string(),
            ]);
        }
        t.rows.push(vec![
            name.to_string(),
            inst.graph.len().to_string(),
            f(log_delta),
            "header total".into(),
            scheme.header_bits().to_string(),
        ]);
    }
    t
}
