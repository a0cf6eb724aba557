//! ron-benchmark — the repo's committed benchmark for the
//! rings-of-neighbors serving stack: four named workloads, the
//! end-to-end metrics a user of the stack sees, and a per-layer ladder
//! measured from outside, through the crates' public API only.
//!
//! `README.md` beside this crate has the metric and workload tables, the
//! layer → end-to-end map and the sizing numbers behind each choice;
//! `../BENCHMARK.json` is generated from [`spec`].

pub mod estimate;
pub mod inputs;
pub mod ladder;
pub mod phases;
pub mod report;
pub mod run;
pub mod spec;
pub mod stack;
pub mod trace;
