//! Smoke and determinism tests: all four workloads at toy scale
//! (|D| = 2^10, ≤ 50 cycles), traced and untraced, with every
//! correctness check armed — and no timing assertion, so `cargo test`
//! keeps the harness compiling and honest on any machine.

use super::*;
use std::path::PathBuf;

/// A data root of this test's own (run directories under one root are
/// already distinct; distinct roots keep one test's clean-up from
/// racing another's set-up).
fn data_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pitract-e2e-{}-{tag}", std::process::id()))
}

fn toy(name: &str, seed: u64, traced: bool, root: &Path) -> Outcome {
    run_workload(name, seed, Scale::Toy, traced, root)
        .unwrap_or_else(|e| panic!("{name} (traced: {traced}) erred: {e}"))
}

/// Per-layer metrics that must be non-zero on a workload: the layers it
/// exists to exercise really ran.
fn busy_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "point_read" => &[
            "planner.route_us_per_batch",
            "planner.path_share.point",
            "index.eval_us_per_batch",
            "index.ns_per_step",
            "index.steps_per_query.d12",
            "index.steps_per_query.d20",
            "index.build_s",
            "pool.execute_us_per_batch",
            "pool.read_batch_p50_ms",
            "pool.read_batch_p99_ms",
            "trace.wall_ratio",
        ],
        "fanout_read" => &[
            "planner.shards_per_query",
            "planner.path_share.range",
            "planner.path_share.inl",
            "index.eval_max_shard_us",
            "pool.rows_per_query",
            "pool.overhead_us_per_batch",
        ],
        "write_replicate" => &[
            "wal.write_ups",
            "wal.share_us_per_batch",
            "wal.fsync_us_p50",
            "wal.bytes_per_update",
            "wal.checkpoint_s",
            "wal.recover_s",
            "wal.recover_replayed_records",
            "live.apply_us_per_update",
            "live.maintenance_work_per_changed",
            "store.disk_bytes_per_row",
            "store.load_s",
            "repl.poll_us_p50",
            "repl.apply_us_p50",
            "repl.records_per_shipment",
            "repl.restart_s",
            "repl.replica_read_over_primary",
            "repl.visible_p50_ms",
            "repl.visible_p99_ms",
        ],
        "contended_rw" => &[
            "wal.write_batch_p50_ms",
            "wal.commits",
            "wal.bytes_per_update",
            "live.read_under_write_ratio",
            "live.maintenance_worst_ratio",
            "pool.execute_us_per_batch",
        ],
        other => panic!("no such workload: {other}"),
    }
}

/// End-to-end metrics without a bound that a workload must print all the
/// same: the ones only it has.
fn own_metrics(workload: &str) -> &'static [&'static str] {
    match workload {
        "point_read" | "fanout_read" => &["read_batch_p99_ms"],
        "write_replicate" => &[
            "read_batch_p50_ms",
            "write_ups",
            "write_batch_p50_ms",
            "write_batch_p99_ms",
            "replica_visible_p99_ms",
            "checkpoint_s",
            "recover_s",
            "disk_bytes_per_row",
        ],
        "contended_rw" => &["read_batch_p50_ms", "write_ups", "write_batch_p99_ms"],
        other => panic!("no such workload: {other}"),
    }
}

#[test]
fn every_workload_runs_correctly_untraced_and_reports_every_bounded_metric() {
    let root = data_root("untraced");
    for (name, _) in WORKLOADS {
        let o = toy(name, gen::DEFAULT_SEED, false, &root);
        assert!(o.correct(), "{}", o.render());
        assert!(o.attempted > 0 && o.failed == 0, "{}", o.render());
        let bounded = END_TO_END.iter().filter(|m| m.bound.is_some());
        for m in bounded
            .map(|m| m.name)
            .chain(own_metrics(name).iter().copied())
        {
            let v = o.metrics.get(m).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{name} reports {m} = {v:?}; it must be set and never 0"
            );
        }
        assert_eq!(o.value("failed_share"), 0.0);
        assert!(
            !o.notes.is_empty(),
            "sample counts are printed beside the timings"
        );
    }
    assert!(
        !root.exists(),
        "the run directories clean up after themselves"
    );
}

#[test]
fn every_workload_runs_correctly_traced_and_its_own_layers_are_busy() {
    let root = data_root("traced");
    for (name, _) in WORKLOADS {
        let o = toy(name, gen::DEFAULT_SEED, true, &root);
        assert!(o.correct(), "{}", o.render());
        for layer in busy_layers(name) {
            assert!(
                o.value(layer) > 0.0,
                "{name}: {layer} reads 0\n{}",
                o.render()
            );
        }
        assert!(o
            .metrics
            .keys()
            .all(|k| PER_LAYER.iter().any(|m| m.name == *k)));
    }
    // Layers a workload leaves idle read 0: no WAL or replication work
    // behind the read-only workloads.
    let o = toy("point_read", gen::DEFAULT_SEED, true, &root);
    for idle in ["wal.commits", "repl.poll_us_p50", "live.retained_undo_max"] {
        assert_eq!(o.value(idle), 0.0, "{idle}");
    }
    // What is left is one span file per workload and no run directory.
    let mut left: Vec<String> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    let mut want: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, _)| format!("spans-{name}.jsonl"))
        .collect();
    want.sort();
    assert_eq!(left, want);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_span_file_is_json_lines_whose_parents_exist() {
    let root = data_root("spans");
    let o = toy("write_replicate", 1, true, &root);
    assert!(o.correct(), "{}", o.render());
    let text = std::fs::read_to_string(root.join("spans-write_replicate.jsonl")).unwrap();
    assert!(o.render().contains("spans-write_replicate.jsonl"));
    let field = |line: &str, key: &str| -> u64 {
        let rest = &line[line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
        rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
    };
    let ids: std::collections::BTreeSet<u64> = text.lines().map(|l| field(l, "id")).collect();
    assert!(
        ids.len() > 100 && ids.len() == text.lines().count(),
        "ids are unique"
    );
    for line in text.lines() {
        assert!(
            line.starts_with("{\"id\":") && line.ends_with('}'),
            "{line}"
        );
        let parent = field(line, "parent");
        assert!(parent == 0 || ids.contains(&parent), "orphan: {line}");
        assert!(field(line, "start_ns") <= field(line, "end_ns"), "{line}");
        assert!(field(line, "request") > 0, "{line}");
    }
    for name in [
        "wal.apply_batch",
        "repl.poll",
        "repl.apply",
        "pool.execute.replica",
    ] {
        assert!(text.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_same_seed_repeats_every_count_and_another_seed_changes_the_inputs() {
    let root = data_root("determinism");
    // Counts of the serial workloads repeat exactly.
    for name in ["point_read", "fanout_read", "write_replicate"] {
        let (a, b) = (toy(name, 7, false, &root), toy(name, 7, false, &root));
        assert_eq!(
            a.value("steps_per_query"),
            b.value("steps_per_query"),
            "{name}"
        );
        assert_eq!(a.attempted, b.attempted, "{name}");
    }
    let (a, b) = (
        toy("write_replicate", 7, true, &root),
        toy("write_replicate", 7, true, &root),
    );
    for count in [
        "wal.bytes_per_update",
        "wal.commits",
        "repl.records_per_shipment",
        "repl.bytes_per_shipment",
        "wal.recover_replayed_records",
        "wal.compact_records_dropped",
        "store.checkpoint_bytes",
        "store.disk_bytes_per_row",
    ] {
        assert_eq!(a.value(count), b.value(count), "{count}");
        assert!(
            a.value(count) > 0.0 || count == "wal.compact_records_dropped",
            "{count}"
        );
    }
    // Another seed means other rows, other queries, other deletes.
    let other = toy("fanout_read", 8, false, &root);
    assert_ne!(
        toy("fanout_read", 7, false, &root).value("steps_per_query"),
        other.value("steps_per_query")
    );
    assert_ne!(
        toy("write_replicate", 7, false, &root).value("steps_per_query"),
        toy("write_replicate", 8, false, &root).value("steps_per_query")
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_header_echoes_the_seed_and_the_machine() {
    let args = parse_args(&["--all".into(), "--seed".into(), "0x5EED_0007".into()]).unwrap();
    let header = header(&args);
    assert!(header.contains("seed 0x5eed0007 (1592590343)"), "{header}");
    assert!(header.contains("cores "), "{header}");
    assert!(header.contains("data dir "), "{header}");
    assert!(header.contains("group commit"), "{header}");
}

#[test]
fn the_driver_s_command_line_parses_and_mistakes_are_refused() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv(
        "--workload fanout_read --seed 12 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.mode.clone(), a.seed, a.seconds, a.traced),
        (Mode::One, 12, 10, true)
    );
    assert_eq!(a.workload.as_deref(), Some("fanout_read"));
    let a = parse_args(&argv("--workload point_read --trace 0")).unwrap();
    assert!(!a.traced);
    assert_eq!(a.seconds, sizing::run_seconds());
    assert_eq!(parse_args(&argv("--list")).unwrap().mode, Mode::List);
    assert_eq!(
        parse_args(&argv("--repeat-check")).unwrap().mode,
        Mode::RepeatCheck
    );
    for bad in [
        "",
        "--workload nope",
        "--workload point_read --trace 2",
        "--workload point_read --traced",
        "--all --toy",
        "--workload point_read --seed x",
        "--workload",
        "--frobnicate",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "`{bad}` accepted");
    }
}

/// Every call into the system under test goes through `stack.rs`: no
/// other file of the harness names one of its crates.
#[test]
fn only_stack_rs_names_the_system_s_crates() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    // Built from pieces so this file passes its own check.
    let needle = concat!("pitract", "_");
    let mut checked = 0;
    for entry in std::fs::read_dir(&here).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("stack.rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                !text.contains(needle),
                "{} names a system crate",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 10);
}

/// A build's profile is its workspace root's, and this package is its
/// own root: its `[profile.release]` must stay the repository's, or the
/// benchmark would measure another optimisation level than the one the
/// repository ships.
#[test]
fn the_release_profile_is_the_repository_s() {
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }
    let ours = release_profile(include_str!("../Cargo.toml"));
    let theirs = release_profile(include_str!("../../../Cargo.toml"));
    assert!(!ours.is_empty());
    assert_eq!(ours, theirs);
}
