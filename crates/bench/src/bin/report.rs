//! Prints the paper's tables as text.
//!
//! ```text
//! report                  # all ten tables, in paper order
//! report table2 labels    # the named tables only
//! report scale N [N...]   # construction scaling at the given sizes
//! ```
//!
//! The default output is seeded counts only, so it is byte-identical
//! across reruns and across `RON_THREADS`: diff two runs to check a
//! change. `scale` is the one timed table (sparse construction, one row
//! per size, with the two-worker bit-identity and bytes-per-node budget
//! assertions) and runs only when asked for.

use std::process::ExitCode;

use ron_bench::{scale, TableFn, TABLES};

fn usage() -> ExitCode {
    let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: report [TABLE...]       (tables: {})\n       report scale N [N...]   (node counts >= 2)",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "scale") {
        let sizes: Option<Vec<usize>> = args[1..]
            .iter()
            .map(|raw| raw.parse().ok().filter(|&n| n >= 2))
            .collect();
        return match sizes {
            Some(ns) if !ns.is_empty() => {
                println!("{}", scale::table(&ns).render());
                ExitCode::SUCCESS
            }
            _ => usage(),
        };
    }
    let mut chosen: Vec<TableFn> = Vec::new();
    for arg in &args {
        match TABLES.iter().find(|(name, _)| name == arg) {
            Some((_, build)) => chosen.push(*build),
            None => return usage(),
        }
    }
    if chosen.is_empty() {
        chosen.extend(TABLES.iter().map(|(_, build)| *build));
    }
    for build in chosen {
        println!("{}", build().render());
    }
    ExitCode::SUCCESS
}
