//! `--smoke` runs every workload, untraced and traced, through the full
//! correctness gate, and the result line names every declared metric.

use std::process::Command;
use std::time::Instant;

use ron_benchmark::spec::{MetricDecl, END_TO_END, PER_LAYER, WORKLOADS};

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ron-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(line: &str, table: &[MetricDecl], nonzero: bool) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    assert_eq!(line.matches("\"unit\"").count(), table.len(), "{line}");
    for m in table {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        let (number, rest) = line[at + key.len()..].split_once(", ").unwrap();
        let value: f64 = number
            .parse()
            .unwrap_or_else(|_| panic!("{}: {number}", m.name));
        assert!(value.is_finite(), "{}", m.name);
        assert!(!nonzero || value > 0.0, "{} is {value}", m.name);
        assert!(
            rest.starts_with(&format!("\"unit\": \"{}\"}}", m.unit)),
            "{}",
            m.name
        );
    }
}

#[test]
fn all_four_workloads_pass_the_gate_untraced() {
    let start = Instant::now();
    for w in WORKLOADS {
        check(&run(w.name, "0"), END_TO_END, true);
    }
    // Release builds finish in about 4 s; debug builds are not timed.
    if !cfg!(debug_assertions) {
        assert!(
            start.elapsed().as_secs_f64() < 10.0,
            "{:?}",
            start.elapsed()
        );
    }
}

#[test]
fn all_four_workloads_pass_the_gate_traced() {
    for w in WORKLOADS {
        check(&run(w.name, "1"), PER_LAYER, false);
        let trace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", w.name));
        let spans = std::fs::read_to_string(&trace).expect("the traced run writes its spans");
        for name in [
            "\"build\"",
            "\"request\"",
            "\"epoch\"",
            "\"location.walk\"",
            "\"location.capture\"",
        ] {
            assert!(
                spans.contains(name),
                "{name} missing from {}",
                trace.display()
            );
        }
    }
}

#[test]
fn unknown_workloads_and_missing_seeds_are_refused() {
    let bin = env!("CARGO_BIN_EXE_ron-benchmark");
    let out = Command::new(bin)
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let out = Command::new(bin)
        .args(["--workload", "serve-walk"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
