//! Table 2: `(1+delta)`-stretch routing on doubling metrics.

use ron_routing::{BasicScheme, SimpleScheme};

use crate::{f, metric_instance, Table};

/// Table 2: (1+delta)-stretch routing schemes on **metrics** (§4.1) —
/// overlay out-degree, table bits, header bits.
#[must_use]
pub fn table(delta: f64) -> Table {
    let mut t = Table::new(
        format!("Table 2: (1+d)-stretch routing on doubling metrics (delta = {delta})"),
        &[
            "metric",
            "n",
            "logDelta",
            "scheme",
            "out-degree",
            "table bits",
            "header bits",
            "max stretch",
        ],
    );
    for name in ["cube-128", "exp-line-32"] {
        let space = metric_instance(name);
        let n = space.len();
        let log_delta = space.index().aspect_ratio().log2();
        let basic = BasicScheme::build_overlay(&space, delta);
        let mut worst = 1.0f64;
        for u in space.nodes() {
            for v in space.nodes() {
                if u == v {
                    continue;
                }
                let trace = basic.route_overlay(u, v).expect("delivery");
                worst = worst.max(trace.stretch(space.dist(u, v)));
            }
        }
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "Thm 2.1 overlay".into(),
            basic.overlay_out_degree().to_string(),
            basic.max_table_bits().to_string(),
            basic.header_bits().to_string(),
            f(worst),
        ]);

        let simple = SimpleScheme::build_overlay(&space, delta);
        let mut worst = 1.0f64;
        for u in space.nodes() {
            for v in space.nodes() {
                if u == v {
                    continue;
                }
                let trace = simple.route_overlay(&space, u, v).expect("delivery");
                worst = worst.max(trace.stretch(space.dist(u, v)));
            }
        }
        t.rows.push(vec![
            name.to_string(),
            n.to_string(),
            f(log_delta),
            "Thm 4.1 overlay".into(),
            simple.overlay_out_degree().to_string(),
            simple.max_table_bits().to_string(),
            simple.header_bits().to_string(),
            f(worst),
        ]);
    }
    t
}
