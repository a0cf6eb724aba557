//! What a run prints: a table of every metric by name with its unit,
//! the estimator's quartiles beside the reported value, and as the last
//! line the one JSON object the driver reads.

use std::fmt::Write as _;

use crate::estimate::{best_quartile_mean, quartiles, Quartiles};
use crate::phases::Tally;
use crate::spec::{Better, MetricDecl};

/// One emitted metric.
#[derive(Clone, Debug)]
struct Emitted {
    name: &'static str,
    value: f64,
    /// The sample the value was estimated from, when it was.
    quartiles: Option<Quartiles>,
}

/// The metrics of one run, checked against one declared table.
#[derive(Clone, Debug)]
pub struct Report {
    table: &'static [MetricDecl],
    emitted: Vec<Emitted>,
}

impl Report {
    #[must_use]
    pub fn new(table: &'static [MetricDecl]) -> Self {
        Report {
            table,
            emitted: Vec::new(),
        }
    }

    /// Emits an exact value (a count, a ratio, a single measurement).
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.emitted.push(Emitted {
            name,
            value,
            quartiles: None,
        });
    }

    /// Emits the best of `samples`, in the direction the table declares
    /// for `name`. For phases that take a fixed number of samples, so
    /// that the extreme does not improve with the speed of the commit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or `samples` is empty.
    pub fn best_of(&mut self, name: &'static str, samples: &[f64]) {
        let q = quartiles(samples);
        self.estimated(name, q.best(self.better(name)), q);
    }

    /// Emits the best quartile of `samples` (p25 or p75). For the epochs,
    /// whose number depends on how fast they are.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or `samples` is empty.
    pub fn best_quartile_of(&mut self, name: &'static str, samples: &[f64]) {
        let q = quartiles(samples);
        self.estimated(name, q.best_quartile(self.better(name)), q);
    }

    /// Emits the mean of the best quarter of `samples`. For per-batch
    /// values too coarse for their best to differ from run to run.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or `samples` is empty.
    pub fn best_quartile_mean_of(&mut self, name: &'static str, samples: &[f64]) {
        let value = best_quartile_mean(samples, self.better(name));
        self.estimated(name, value, quartiles(samples));
    }

    fn better(&self, name: &str) -> Better {
        self.table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not declared"))
            .better
    }

    /// Emits the median of `samples` (set-up time: the contract asks for
    /// the median of several set-ups, not the best).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        let q = quartiles(samples);
        self.estimated(name, q.p50, q);
    }

    fn estimated(&mut self, name: &'static str, value: f64, q: Quartiles) {
        self.emitted.push(Emitted {
            name,
            value,
            quartiles: Some(q),
        });
    }

    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.emitted
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// The gate on the metric set itself: every declared metric emitted
    /// exactly once, nothing undeclared, every value a finite number.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for decl in self.table {
            match self.emitted.iter().filter(|e| e.name == decl.name).count() {
                1 => {}
                0 => out.push(format!("declared metric {} was not emitted", decl.name)),
                k => out.push(format!("metric {} was emitted {k} times", decl.name)),
            }
        }
        for e in &self.emitted {
            if !self.table.iter().any(|m| m.name == e.name) {
                out.push(format!("undeclared metric {} was emitted", e.name));
            }
            if !e.value.is_finite() {
                out.push(format!("metric {} is {}", e.name, e.value));
            }
        }
        out
    }

    /// The human-readable table, in declaration order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for decl in self.table {
            let Some(e) = self.emitted.iter().find(|e| e.name == decl.name) else {
                continue;
            };
            let _ = write!(out, "{:<36} {:>16.6} {:<6}", decl.name, e.value, decl.unit);
            if let Some(q) = e.quartiles {
                let _ = write!(
                    out,
                    " quartiles {:.6} {:.6} {:.6} n {}",
                    q.p25, q.p50, q.p75, q.n
                );
            }
            out.push('\n');
        }
        out
    }

    /// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self, tally: &Tally, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted.max(1),
            tally.failed
        );
        let mut first = true;
        for decl in self.table {
            let Some(e) = self.emitted.iter().find(|e| e.name == decl.name) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                decl.name,
                json_number(e.value),
                decl.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A number as measured, with all its digits (JSON has no NaN or
/// infinity; those are gate violations and print as `null`).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}
