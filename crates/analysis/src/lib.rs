//! # pitract-analysis — invariant lints for the serving stack
//!
//! The serving tiers rest on invariants that used to exist only as
//! comments: panic-free serving paths, no disk flush under the WAL
//! writer-state lock, workers routed through the pool, bench artifacts
//! in the repo root. This crate makes them mechanical, in the
//! workspace's zero-dependency style:
//!
//! * [`lexer`] — a hand-rolled token-level Rust lexer (strings, raw
//!   strings, chars vs lifetimes, nested comments) that also collects
//!   the `// lint:allow(<rule>)` escape hatch.
//! * [`source`] — lexed files with crate/target attribution and a
//!   test-code mask (`#[cfg(test)]` / `#[test]` items are exempt from
//!   serving rules).
//! * [`rules`] — the deny-by-default [`Rule`] set:
//!   `no-unwrap-in-serving`, `no-fsync-under-lock`,
//!   `no-bare-thread-spawn`, `bench-artifact-path`.
//! * [`report`] — machine-readable findings with `file:line`,
//!   JSON-exportable via `pitract-obs`.
//! * [`walk`] — first-party source discovery over the workspace.
//!
//! The `pitract-lint` binary wires these together and exits nonzero on
//! any finding; CI runs it as the `lint` job. The runtime half of the
//! same effort — rank-checked locks — lives in
//! `pitract_core::lockdep`.
//!
//! ```
//! use pitract_analysis::source::{FileKind, SourceFile};
//! use pitract_analysis::rules::{default_rules, run_rules};
//!
//! let seeded = SourceFile::from_source(
//!     "pitract-engine",
//!     "src/demo.rs",
//!     FileKind::Lib,
//!     "fn serve(x: Option<u32>) -> u32 { x.unwrap() }",
//! );
//! let report = run_rules(&[seeded], &default_rules());
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "no-unwrap-in-serving");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

pub use report::{Finding, LintReport};
pub use rules::{default_rules, run_rules, Rule};

use std::path::Path;

/// Lint the workspace at `root` with the default rule set.
pub fn lint_workspace(root: &Path) -> LintReport {
    let files = walk::walk_workspace(root);
    run_rules(&files, &default_rules())
}
