//! Fixture-driven self-tests: every seeded-violation snippet must fire
//! its rule, every clean counterpart must not. The fixtures live as
//! real `.rs` files under `fixtures/` (outside any target tree, so the
//! workspace walk never lints them).

use pitract_analysis::rules::{default_rules, run_rules};
use pitract_analysis::source::{FileKind, SourceFile};
use pitract_analysis::LintReport;

/// Lint one fixture as if it were library code of `crate_name`.
fn lint(crate_name: &str, src: &str) -> LintReport {
    lint_as(crate_name, "src/fixture.rs", FileKind::Lib, src)
}

/// The one serving-crate file `fs-outside-storage` lets touch the
/// filesystem: fixtures about file I/O lint as it, so that only the
/// rule under test speaks.
const STORAGE: &str = "crates/store/src/storage.rs";

/// Lint one fixture as file `path` of `crate_name`.
fn lint_as(crate_name: &str, path: &str, kind: FileKind, src: &str) -> LintReport {
    let file = SourceFile::from_source(crate_name, path, kind, src);
    run_rules(&[file], &default_rules())
}

fn rules_fired(report: &LintReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unwrap_fixture_fires_on_every_seeded_panic_path() {
    let report = lint(
        "pitract-engine",
        include_str!("../fixtures/unwrap_violation.rs"),
    );
    let fired = rules_fired(&report);
    assert_eq!(
        fired.len(),
        5,
        "unwrap, expect, panic!, unreachable!, dbg! — got {:?}",
        report.findings
    );
    assert!(fired.iter().all(|r| *r == "no-unwrap-in-serving"));
    // Findings carry real locations.
    assert!(report.findings.iter().all(|f| f.line > 0));
    assert!(report.findings.iter().all(|f| f.path == "src/fixture.rs"));
}

#[test]
fn unwrap_fixture_is_silent_outside_the_serving_crates() {
    let report = lint(
        "pitract-bench",
        include_str!("../fixtures/unwrap_violation.rs"),
    );
    assert!(report.is_clean(), "{report}");
}

#[test]
fn unwrap_fixture_is_silent_in_test_targets() {
    let src = include_str!("../fixtures/unwrap_violation.rs");
    let report = lint_as("pitract-engine", "tests/fixture.rs", FileKind::Test, src);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn unwrap_clean_fixture_stays_clean_and_counts_the_allow() {
    let report = lint(
        "pitract-engine",
        include_str!("../fixtures/unwrap_clean.rs"),
    );
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.suppressed, 1, "the excused expect was suppressed");
}

#[test]
fn fsync_fixture_fires_under_every_guard_shape() {
    let report = lint(
        "pitract-wal",
        include_str!("../fixtures/fsync_violation.rs"),
    );
    let fired = rules_fired(&report);
    assert_eq!(
        fired,
        vec![
            "no-fsync-under-lock",
            "no-fsync-under-lock",
            "no-fsync-under-lock"
        ],
        "{report}"
    );
}

#[test]
fn fsync_clean_fixture_passes_the_cloned_handle_pattern() {
    let report = lint("pitract-wal", include_str!("../fixtures/fsync_clean.rs"));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn fsync_rule_is_scoped_to_the_wal_crate() {
    let report = lint(
        "pitract-store",
        include_str!("../fixtures/fsync_violation.rs"),
    );
    assert!(
        rules_fired(&report)
            .iter()
            .all(|r| *r != "no-fsync-under-lock"),
        "{report}"
    );
}

#[test]
fn spawn_fixture_fires_on_path_and_builder_spawns() {
    // Outside the serving crates only the bare spawns are findings…
    let report = lint(
        "pitract-bench",
        include_str!("../fixtures/spawn_violation.rs"),
    );
    assert_eq!(
        rules_fired(&report),
        vec!["no-bare-thread-spawn", "no-bare-thread-spawn"],
        "{report}"
    );
    // …inside them the scoped fan-out is two more: `thread::scope` and
    // the `scope.spawn` within it.
    let report = lint(
        "pitract-engine",
        include_str!("../fixtures/spawn_violation.rs"),
    );
    assert_eq!(rules_fired(&report), vec!["no-bare-thread-spawn"; 4]);
    let scoped: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.message.contains("PooledExecutor"))
        .collect();
    assert_eq!(scoped.len(), 2, "{report}");
}

#[test]
fn spawn_clean_fixture_allows_the_pool() {
    let report = lint("pitract-engine", include_str!("../fixtures/spawn_clean.rs"));
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.suppressed, 1, "the pool's spawn point was excused");
}

#[test]
fn syscall_fixture_fires_on_every_eval_body_io_site() {
    let src = include_str!("../fixtures/syscall_violation.rs");
    let report = lint_as("pitract-store", STORAGE, FileKind::Lib, src);
    let fired = rules_fired(&report);
    assert_eq!(
        fired.len(),
        5,
        "File::open, OpenOptions::new, sync_all, fs::metadata (generic \
         eval_shard), fs::read — got {:?}",
        report.findings
    );
    assert!(fired
        .iter()
        .all(|r| *r == "no-blocking-syscalls-on-pool-workers"));
    // The `checkpoint` body (non-eval fn, same I/O) stayed out of scope.
    assert!(report.findings.iter().all(|f| f.line < 32), "{report}");
}

#[test]
fn syscall_fixture_is_silent_outside_the_serving_crates() {
    let report = lint(
        "pitract-bench",
        include_str!("../fixtures/syscall_violation.rs"),
    );
    assert!(report.is_clean(), "{report}");
}

#[test]
fn syscall_fixture_is_silent_in_test_targets() {
    let src = include_str!("../fixtures/syscall_violation.rs");
    let report = lint_as("pitract-engine", "tests/fixture.rs", FileKind::Test, src);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn syscall_clean_fixture_keeps_the_write_path_and_counts_the_allow() {
    let src = include_str!("../fixtures/syscall_clean.rs");
    let report = lint_as("pitract-store", STORAGE, FileKind::Lib, src);
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        report.suppressed, 1,
        "the excused warm-up read was suppressed"
    );
}

#[test]
fn findings_render_machine_readably() {
    let report = lint(
        "pitract-engine",
        include_str!("../fixtures/unwrap_violation.rs"),
    );
    let json = report.to_json().render();
    assert!(json.contains("\"rule\":\"no-unwrap-in-serving\""));
    assert!(json.contains("\"path\":\"src/fixture.rs\""));
    let text = report.to_string();
    assert!(
        text.contains("src/fixture.rs:5: [no-unwrap-in-serving]"),
        "{text}"
    );
}

#[test]
fn gauge_fixture_fires_outside_status_and_honours_the_allow() {
    let report = lint(
        "pitract-engine",
        include_str!("../fixtures/gauge_violation.rs"),
    );
    assert_eq!(
        rules_fired(&report),
        vec!["gauge-outside-status"],
        "{report}"
    );
    assert_eq!(report.findings[0].line, 7, "the pin-path gauge");
    assert_eq!(report.suppressed, 1, "the excused shim was suppressed");
}

#[test]
fn gauge_fixture_is_silent_in_status_obs_and_tests() {
    for (crate_name, kind, path) in [
        (
            "pitract-engine",
            FileKind::Lib,
            "crates/engine/src/status.rs",
        ),
        ("pitract-obs", FileKind::Lib, "crates/obs/src/fixture.rs"),
        ("pitract-engine", FileKind::Test, "tests/fixture.rs"),
    ] {
        let report = lint_as(
            crate_name,
            path,
            kind,
            include_str!("../fixtures/gauge_violation.rs"),
        );
        assert!(report.is_clean(), "{crate_name} {path}: {report}");
        assert_eq!(report.suppressed, 0, "{crate_name} {path}");
    }
}

#[test]
fn fs_fixture_fires_outside_storage_and_honours_the_allow() {
    let report = lint("pitract-wal", include_str!("../fixtures/fs_violation.rs"));
    assert_eq!(
        rules_fired(&report),
        vec!["fs-outside-storage"; 5],
        "{report}"
    );
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        [4, 7, 10, 11, 15],
        "use, fs::, std::fs, OpenOptions, File::"
    );
    assert_eq!(report.suppressed, 1, "the excused probe was suppressed");
}

#[test]
fn fs_fixture_is_silent_in_storage_outside_serving_crates_and_in_tests() {
    let src = include_str!("../fixtures/fs_violation.rs");
    for (crate_name, kind, path) in [
        ("pitract-store", FileKind::Lib, STORAGE),
        ("pitract-bench", FileKind::Lib, "src/fixture.rs"),
        ("pitract-wal", FileKind::Test, "tests/fixture.rs"),
    ] {
        let report = lint_as(crate_name, path, kind, src);
        assert!(report.is_clean(), "{crate_name} {path}: {report}");
    }
}

#[test]
fn fs_clean_fixture_reaches_the_disk_through_a_dir() {
    let report = lint("pitract-repl", include_str!("../fixtures/fs_clean.rs"));
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.suppressed, 0);
}
