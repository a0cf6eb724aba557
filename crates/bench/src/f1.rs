//! F1: measured stretch of every routing scheme as delta varies.

use ron_routing::{over_all_pairs, BasicScheme, SimpleScheme, TwoModeScheme};

use crate::{f, graph_instance, Table};

/// Figure F1: stretch of every routing scheme as delta varies (the
/// theorem-level claim behind Figure 1's idea flow).
#[must_use]
pub fn table() -> Table {
    let mut t = Table::new(
        "F1: measured stretch vs delta (grid-8x8)",
        &["delta", "Thm 2.1", "Thm 4.1", "Thm B.1", "bound 1+8d"],
    );
    let inst = graph_instance("grid-8x8");
    for delta in [0.5, 0.25, 0.125] {
        let basic = BasicScheme::build(&inst.space, &inst.graph, &inst.apsp, delta);
        let simple = SimpleScheme::build(&inst.space, &inst.graph, &inst.apsp, delta);
        let twomode = TwoModeScheme::build(&inst.space, &inst.graph, &inst.apsp, delta);
        let sb = over_all_pairs(&inst.graph, &inst.apsp, |u, v| {
            basic.route(&inst.graph, u, v)
        })
        .expect("basic");
        let ss = over_all_pairs(&inst.graph, &inst.apsp, |u, v| {
            simple.route(&inst.graph, u, v)
        })
        .expect("simple");
        let mut modes = Default::default();
        let st = over_all_pairs(&inst.graph, &inst.apsp, |u, v| {
            twomode.route(&inst.graph, u, v, &mut modes)
        })
        .expect("twomode");
        t.rows.push(vec![
            f(delta),
            f(sb.max_stretch),
            f(ss.max_stretch),
            f(st.max_stretch),
            f(1.0 + 8.0 * delta),
        ]);
    }
    t
}
