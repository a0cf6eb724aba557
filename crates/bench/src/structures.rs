//! E-5.4: STRUCTURES on a UL-constrained metric.

use ron_smallworld::{GreedyModel, QueryStats, Structures};

use crate::{f, metric_instance, Table};

/// Figure E-5.4: STRUCTURES vs Theorem 5.2 models on a UL-constrained
/// metric (perturbed grid).
#[must_use]
pub fn table() -> Table {
    let mut t = Table::new(
        "E-5.4: STRUCTURES on a UL-constrained metric",
        &[
            "model",
            "n",
            "degree max",
            "log2(n)^2",
            "hops mean",
            "hops max",
            "done %",
        ],
    );
    let space = metric_instance("pgrid-10");
    let n = space.len();
    let log2n = (n as f64).log2();
    let st = Structures::sample(&space, 1.0, 31);
    let qs = QueryStats::over_all_pairs(n, |u, v| st.query(&space, u, v));
    t.rows.push(vec![
        "STRUCTURES [32]".into(),
        n.to_string(),
        st.contacts().max_out_degree().to_string(),
        f(log2n * log2n),
        f(qs.mean_hops),
        qs.max_hops.to_string(),
        format!("{:.0}", qs.completion_rate() * 100.0),
    ]);
    let a = GreedyModel::sample(&space, 1.0, 32);
    let qa = QueryStats::over_all_pairs(n, |u, v| a.query(&space, u, v));
    t.rows.push(vec![
        "Thm 5.2(a)".into(),
        n.to_string(),
        a.contacts().max_out_degree().to_string(),
        f(log2n * log2n),
        f(qa.mean_hops),
        qa.max_hops.to_string(),
        format!("{:.0}", qa.completion_rate() * 100.0),
    ]);
    t
}
