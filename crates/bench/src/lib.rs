//! # pitract-bench — the experiment harness
//!
//! One experiment per checkable claim of the paper, E1–E14. Each
//! `run_eXX()` function builds its workload, measures with deterministic
//! step meters (and wall clock where meaningful), classifies growth curves
//! with `pitract_core::fit`, and returns a printable [`table::Table`]. The
//! `tables` binary renders all of them; `benches/experiments.rs` adds
//! Criterion wall-clock measurements of the same operations. The serving
//! stack (sharding, live updates, WAL, MVCC, replication) is measured by
//! the end-to-end benchmark in `crates/e2e`, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;

/// Named constructor type for one experiment runner.
pub type ExperimentFn = fn() -> table::Table;

/// All experiment runners in id order, for the binary and for tests.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    use experiments::*;
    vec![
        ("e1", run_e01 as ExperimentFn),
        ("e2", run_e02),
        ("e3", run_e03),
        ("e4", run_e04),
        ("e5", run_e05),
        ("e6", run_e06),
        ("e7", run_e07),
        ("e8", run_e08),
        ("e9", run_e09),
        ("e10", run_e10),
        ("e11", run_e11),
        ("e12", run_e12),
        ("e13", run_e13),
        ("e14", run_e14),
    ]
}
