//! The experiments E1–E14, one per checkable claim of the paper.
//!
//! Conventions shared by all experiments:
//!
//! * **Steps** are deterministic meter counts (comparisons, probes, node
//!   visits) — reproducible run-to-run, unlike wall clock.
//! * Every preprocessed structure is **verified against its baseline** on
//!   the measured workload before costs are reported; an experiment that
//!   produced a wrong answer would panic, not print.
//! * Growth verdicts come from `pitract_core::fit::best_fit` over the
//!   measured series.

mod dynamics;
mod graphs;
mod indexing;

pub use dynamics::{run_e10, run_e11, run_e12, run_e13, run_e14};
pub use graphs::{run_e06, run_e07, run_e08, run_e09};
pub use indexing::{run_e01, run_e02, run_e03, run_e04, run_e05};
