//! `ron-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload, checks its outputs, prints every metric by name
//! with its unit and, as the last line, the JSON object the driver
//! reads. Exits non-zero when the correctness gate trips.

use std::path::PathBuf;
use std::process::ExitCode;

use ron_benchmark::run::{run, Args};
use ron_benchmark::spec::{manifest_json, Workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str =
    "usage: ron-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
       ron-benchmark --print-manifest";

/// Rounds of an untraced run, each on its own set-up (`setup_s` is the
/// median of the set-ups).
const ROUNDS: usize = 5;

fn parse() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = f64::from(RUN_SECONDS);
    let mut trace = false;
    let mut smoke = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-manifest" => return Ok(None),
            "--smoke" => smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} out of (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload: if smoke { workload.smoke() } else { workload },
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rounds: if smoke { 2 } else { ROUNDS },
    }))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", manifest_json());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let mut violations = outcome.tally.violations.clone();
    violations.extend(outcome.report.violations());
    if outcome.tally.failed > 0 {
        violations.push(format!(
            "{} of {} lookups failed",
            outcome.tally.failed, outcome.tally.attempted
        ));
    }
    if let Some(tracer) = &outcome.tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", args.workload.name));
        match tracer.write(&path) {
            Ok(()) => println!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => violations.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    println!(
        "workload {} ({} nodes served) seed {} seconds {} trace {}",
        args.workload.name,
        args.workload.serving.n(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", outcome.report.render());
    for v in &violations {
        println!("GATE: {v}");
    }
    let correct = violations.is_empty();
    println!("{}", outcome.report.result_json(&outcome.tally, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
