//! The paper's tables, regenerated.
//!
//! One module per table or figure: each builds its instances, measures
//! the quantities the paper's tables bound (bits, degrees, stretch, hops,
//! message counts) and returns a formatted [`Table`]. [`TABLES`] is the
//! registry the `report` binary prints from; every table in it is seeded
//! and counts only, so the rendered text is byte-identical across reruns
//! and across `RON_THREADS`. Everything timed lives in the `benchmark/`
//! package (`ron-benchmark`), with one exception: [`scale`], the only path
//! that runs the stack above `2^14` nodes, printed on request only.
//!
//! Asymptotic competitor columns (Talwar \[52], Chan et al. \[14], Abraham
//! et al. \[7]) are *formulas evaluated with unit constants* — exactly how
//! the paper's tables cite them — marked with `~` in the output.

use ron_graph::{gen as ggen, Apsp, Graph};
use ron_metric::{gen, LineMetric, Metric, Space};

pub mod churn;
pub mod f1;
pub mod labels;
pub mod scale;
pub mod sim;
pub mod smallworld;
pub mod structures;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod triangulation;

/// Stretch parameter of the routing tables and the label figure.
pub const DELTA: f64 = 0.25;

/// Triangulation parameter of E-3.2 (the bound needs `delta < 1/2`).
pub const TRIANGULATION_DELTA: f64 = 0.2;

/// Node count of the two message-passing tables.
pub const SIM_N: usize = 1024;

/// Builds one paper table.
pub type TableFn = fn() -> Table;

/// The paper tables by name, in report order.
pub const TABLES: &[(&str, TableFn)] = &[
    ("table1", || table1::table(DELTA)),
    ("table2", || table2::table(DELTA)),
    ("table3", || table3::table(DELTA)),
    ("f1", f1::table),
    ("triangulation", || {
        triangulation::table(TRIANGULATION_DELTA)
    }),
    ("labels", || labels::table(DELTA)),
    ("smallworld", smallworld::table),
    ("structures", structures::table),
    ("sim", || sim::table(SIM_N)),
    ("churn", || churn::table(SIM_N)),
];

/// A formatted output table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (paper artifact id).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// Renders an optional success rate as a bare-percent table cell under
/// a "success %" header: `"87.5"`, or `"n/a"` for a query-less run.
fn rate_cell(rate: Option<f64>) -> String {
    rate.map_or_else(|| "n/a".into(), |s| format!("{:.1}", s * 100.0))
}

/// A connected doubling graph family instance for the routing tables.
pub struct GraphInstance {
    /// Family name.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// All-pairs shortest paths.
    pub apsp: Apsp,
    /// Its shortest-path metric.
    pub space: Space<ron_metric::ExplicitMetric>,
}

/// Builds the named graph instance.
///
/// # Panics
///
/// Panics on an unknown instance name.
#[must_use]
pub fn graph_instance(name: &str) -> GraphInstance {
    let graph = match name {
        "grid-8x8" => ggen::grid_graph(8, 2),
        "grid-12x12" => ggen::grid_graph(12, 2),
        "knn-128" => ggen::knn_geometric(128, 2, 3, 9).0,
        "exp-path-24" => ggen::exponential_path(24),
        "exp-path-40" => ggen::exponential_path(40),
        other => panic!("unknown graph instance {other}"),
    };
    let apsp = Apsp::compute(&graph);
    let space = Space::new(apsp.to_metric().expect("instances are connected"));
    GraphInstance {
        name: name.to_string(),
        graph,
        apsp,
        space,
    }
}

/// Builds the named metric instance.
///
/// # Panics
///
/// Panics on an unknown instance name.
#[must_use]
pub fn metric_instance(name: &str) -> Space<Box<dyn Metric>> {
    let metric: Box<dyn Metric> = match name {
        "cube-64" => Box::new(gen::uniform_cube(64, 2, 1)),
        "cube-128" => Box::new(gen::uniform_cube(128, 2, 1)),
        "cube-256" => Box::new(gen::uniform_cube(256, 2, 1)),
        "clusters-120" => Box::new(gen::clustered(120, 2, 10, 0.01, 2)),
        "exp-line-24" => Box::new(LineMetric::exponential(24).expect("valid")),
        "exp-line-32" => Box::new(LineMetric::exponential(32).expect("valid")),
        "exp-line-48" => Box::new(LineMetric::exponential(48).expect("valid")),
        "exp-line-64" => Box::new(LineMetric::exponential(64).expect("valid")),
        "pgrid-10" => Box::new(gen::perturbed_grid(10, 2, 0.2, 6)),
        other => panic!("unknown metric instance {other}"),
    };
    Space::new(metric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let mut t = Table::new("test", &["a", "b"]);
        t.rows.push(vec!["1".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("test"));
        assert!(s.contains("22"));
    }

    #[test]
    fn graph_instances_build() {
        let inst = graph_instance("grid-8x8");
        assert_eq!(inst.graph.len(), 64);
        assert!(inst.graph.is_connected());
    }

    #[test]
    fn metric_instances_build() {
        assert_eq!(metric_instance("cube-64").len(), 64);
        assert_eq!(metric_instance("exp-line-24").len(), 24);
    }
}
