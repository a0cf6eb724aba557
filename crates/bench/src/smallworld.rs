//! E-5.2 / E-5.5: small-world hop counts and degrees.

use ron_smallworld::{GreedyModel, KleinbergGrid, PrunedModel, QueryStats, SingleLinkModel};

use crate::{f, graph_instance, metric_instance, Table};

/// Figure E-5.2/E-5.5: small-world hop counts and degrees across models.
#[must_use]
pub fn table() -> Table {
    let mut t = Table::new(
        "E-5.2/E-5.5: small-world models (hops over all pairs)",
        &[
            "model",
            "instance",
            "n",
            "log2 n",
            "degree max",
            "hops mean",
            "hops max",
            "done %",
        ],
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |model: &str, instance: &str, n: usize, deg: usize, q: &QueryStats| {
        rows.push(vec![
            model.into(),
            instance.into(),
            n.to_string(),
            f((n as f64).log2()),
            deg.to_string(),
            f(q.mean_hops),
            q.max_hops.to_string(),
            format!("{:.0}", q.completion_rate() * 100.0),
        ]);
    };
    for name in ["cube-128", "exp-line-64"] {
        let space = metric_instance(name);
        let n = space.len();
        let a = GreedyModel::sample(&space, 2.0, 21);
        let qa = QueryStats::over_all_pairs(n, |u, v| a.query(&space, u, v));
        push("Thm 5.2(a)", name, n, a.contacts().max_out_degree(), &qa);
        let b = PrunedModel::sample(&space, 2.0, 22);
        let qb = QueryStats::over_all_pairs(n, |u, v| b.query(&space, u, v));
        push("Thm 5.2(b)", name, n, b.contacts().max_out_degree(), &qb);
    }
    let grid = KleinbergGrid::sample(11, 1, 23).expect("valid grid");
    let qg = QueryStats::over_all_pairs(121, |u, v| grid.query(u, v));
    push(
        "Kleinberg grid",
        "grid-11x11",
        121,
        grid.contacts().max_out_degree(),
        &qg,
    );
    for name in ["grid-8x8", "exp-path-24"] {
        let inst = graph_instance(name);
        let model = SingleLinkModel::sample(&inst.space, &inst.graph, 24);
        let q = QueryStats::over_all_pairs(inst.graph.len(), |u, v| {
            model.query(&inst.space, &inst.graph, u, v)
        });
        push(
            "Thm 5.5 single link",
            name,
            inst.graph.len(),
            inst.graph.max_out_degree() + 1,
            &q,
        );
    }
    t.rows = rows;
    t
}
