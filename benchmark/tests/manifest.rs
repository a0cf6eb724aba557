//! `BENCHMARK.json` is generated from the tables in `spec`, stays inside
//! the driver's limits, and the run's JSON line names exactly what it
//! declares.

use ron_benchmark::phases::Tally;
use ron_benchmark::report::Report;
use ron_benchmark::spec::{
    manifest_json, Better, MetricDecl, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate with `ron-benchmark --print-manifest > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn tables_stay_inside_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut names: Vec<&str> = Vec::new();
    for w in WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(!w.why.contains('"') && !w.why.contains('\\'));
        let shares = w.build_share + w.serve_share + w.epoch_share;
        assert!(shares < 1.0, "{} leaves no time for live lookups", w.name);
        assert!(w.churn == (w.epoch_share == 0.0));
        names.push(w.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    for m in PER_LAYER {
        assert!(m.bound.is_none(), "{}", m.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}", m.unit);
        names.push(m.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    // Set-up time has unit s, is better lower and has the largest bound.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
}

/// The number after `"name": {"value": ` on the driver's line.
fn value_of(line: &str, m: &MetricDecl) -> Option<f64> {
    let key = format!("\"{}\": {{\"value\": ", m.name);
    let rest = &line[line.find(&key)? + key.len()..];
    let (number, rest) = rest.split_once(", ")?;
    rest.starts_with(&format!("\"unit\": \"{}\"}}", m.unit))
        .then(|| number.parse().ok())?
}

#[test]
fn result_line_round_trips_against_the_tables() {
    for table in [END_TO_END, PER_LAYER] {
        let mut report = Report::new(table);
        for (k, m) in table.iter().enumerate() {
            if k % 2 == 0 {
                report.exact(m.name, 1.5 + k as f64);
            } else {
                report.best_of(m.name, &[1.5 + k as f64]);
            }
        }
        assert!(report.violations().is_empty());
        let tally = Tally {
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
        };
        let line = report.result_json(&tally, true);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.ends_with("}}") && !line.contains('\n'));
        assert_eq!(line.matches("\"unit\"").count(), table.len());
        for (k, m) in table.iter().enumerate() {
            assert_eq!(value_of(&line, m), Some(1.5 + k as f64), "{}", m.name);
        }
    }
}

#[test]
fn the_metric_set_is_gated() {
    let mut report = Report::new(END_TO_END);
    for m in &END_TO_END[1..] {
        report.exact(m.name, 1.0);
    }
    assert_eq!(
        report.violations(),
        ["declared metric setup_s was not emitted"]
    );
    report.exact("setup_s", f64::NAN);
    report.exact("made_up", 1.0);
    report.exact("build_s", 2.0);
    let violations = report.violations();
    assert!(violations.contains(&"metric setup_s is NaN".to_string()));
    assert!(violations.contains(&"undeclared metric made_up was emitted".to_string()));
    assert!(violations.contains(&"metric build_s was emitted 2 times".to_string()));
    // One fault repeated per query does not flood the report.
    let mut tally = Tally::default();
    for k in 0..100 {
        tally.violation(format!("served stretch {k} > 18"));
    }
    assert_eq!(tally.violations.len(), 16);
}
