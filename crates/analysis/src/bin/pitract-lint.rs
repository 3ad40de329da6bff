//! `pitract-lint` — run the workspace invariant lints.
//!
//! ```text
//! pitract-lint [--json | --loc] [ROOT]
//! ```
//!
//! Walks every first-party source file (root package + `crates/*`),
//! runs the deny-by-default rule set, prints findings as
//! `path:line: [rule] message` (or a JSON report with `--json`), and
//! exits nonzero if anything fired. `// lint:allow(<rule>)` on or above
//! the offending line excuses a site — with a justification, please.
//!
//! `--loc` lints nothing: it prints the non-test lines of each crate
//! and their total ([`pitract_analysis::loc`]).

use pitract_analysis::{lint_workspace, walk, LineCount};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut loc = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--loc" => loc = true,
            "--help" | "-h" => {
                println!("usage: pitract-lint [--json | --loc] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "pitract-lint: no workspace root found above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if loc {
        println!("{}", LineCount::of(&walk::walk_workspace(&root)));
        return ExitCode::SUCCESS;
    }
    let report = lint_workspace(&root);
    if json {
        println!("{}", report.to_json().render());
    } else {
        println!("{report}");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
