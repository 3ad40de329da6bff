//! Every metric the harness reports, by name, with its unit and which
//! way is better — the one table `--list`, the result printer, the
//! repeat check and `BENCHMARK.json` all agree with.
//!
//! End-to-end metrics come from the untraced run. The *bounded* ones
//! carry a regression bound, every workload reports every one of them,
//! and they are the result line of `--trace 0`. The rest are printed by
//! the workloads that have them, without a bound. Per-layer metrics come
//! from the traced run, carry no bound, and read 0 on a workload that
//! leaves their layer idle.

/// The `BENCHMARK.json` this binary was built beside: the harness takes
/// its default run length from it, and a test keeps its metric and
/// workload tables equal to the ones below.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// An end-to-end metric: what a user of the serving stack would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the baseline median it may worsen by before that counts
    /// as a regression; `None` for a metric only some workloads have, or
    /// one this box cannot repeat well enough to hold to a bound.
    pub bound: Option<f64>,
    /// What it measures.
    pub what: &'static str,
}

/// A single layer's metric, taken from outside the layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.name`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: Option<f64>,
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        what,
    }
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        moves,
    }
}

/// The end-to-end metrics of the untraced run: the bounded ones first.
///
/// `request_p50_ms` is the latency of the request a workload exists to
/// measure: the read batch on `point_read` and `fanout_read`, write start
/// → visible on the replica on `write_replicate`, and the durable write
/// batch timed from its due time on `contended_rw`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e(
        "setup_s",
        "s",
        false,
        Some(0.25),
        "generate + build Π(D) + create/bootstrap + pool spawn + warm-up (median of the run's set-ups)",
    ),
    e2e(
        "request_p50_ms",
        "ms",
        false,
        Some(0.25),
        "median latency of the workload's defining request: read_batch_p50_ms (point_read, fanout_read), replica_visible_p50_ms (write_replicate), write_batch_p50_ms (contended_rw)",
    ),
    e2e(
        "read_qps",
        "queries/s",
        true,
        Some(0.25),
        "queries per second of read-call time; replica reads on write_replicate, reads beside writes on contended_rw",
    ),
    e2e(
        "steps_per_query",
        "count",
        false,
        Some(0.01),
        "metered evaluation steps per query (BatchReport::total_steps)",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        false,
        Some(0.05),
        "peak resident set of the run's process (VmHWM)",
    ),
    e2e(
        "read_batch_p50_ms",
        "ms",
        false,
        None,
        "median read batch latency where the read batch is not the defining request (write_replicate: replica; contended_rw)",
    ),
    e2e(
        "read_batch_p99_ms",
        "ms",
        false,
        None,
        "read batch tail: median of the windows' p99s",
    ),
    e2e(
        "write_ups",
        "updates/s",
        true,
        None,
        "acknowledged-durable updates per second of write-call time",
    ),
    e2e(
        "write_batch_p50_ms",
        "ms",
        false,
        None,
        "median durable apply_batch latency on write_replicate (on contended_rw it is request_p50_ms)",
    ),
    e2e(
        "write_batch_p99_ms",
        "ms",
        false,
        None,
        "durable apply_batch tail",
    ),
    e2e(
        "replica_visible_p99_ms",
        "ms",
        false,
        None,
        "apply_batch start -> catch_up returns lag 0, tail (the median is request_p50_ms)",
    ),
    e2e(
        "checkpoint_s",
        "s",
        false,
        None,
        "median foreground stall of checkpoint + compact_primary",
    ),
    e2e(
        "recover_s",
        "s",
        false,
        None,
        "DurableLiveRelation::recover -> first verified answer",
    ),
    e2e(
        "disk_bytes_per_row",
        "bytes",
        false,
        None,
        "snapshot + WAL bytes at the end / live rows",
    ),
    e2e(
        "failed_share",
        "ratio",
        false,
        None,
        "failed / attempted operations (the result line carries the two counts)",
    ),
];

/// The per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // planner
    lower(
        "planner.route_us_per_batch",
        "us",
        "request_p50_ms, read_qps on fanout_read",
    ),
    lower(
        "planner.shards_per_query",
        "count",
        "steps_per_query, request_p50_ms on fanout_read",
    ),
    higher("planner.path_share.point", "ratio", "steps_per_query"),
    lower("planner.path_share.range", "ratio", "steps_per_query"),
    lower("planner.path_share.inl", "ratio", "steps_per_query"),
    lower("planner.path_share.scan", "ratio", "steps_per_query"),
    lower(
        "planner.est_over_metered",
        "ratio",
        "none: planner accuracy",
    ),
    // index
    lower(
        "index.eval_us_per_batch",
        "us",
        "request_p50_ms, read_qps on point_read",
    ),
    lower(
        "index.eval_max_shard_us",
        "us",
        "request_p50_ms, read_qps on point_read",
    ),
    lower(
        "index.ns_per_step",
        "ns",
        "request_p50_ms, read_qps on point_read",
    ),
    lower("index.steps_per_query.d12", "count", "steps_per_query"),
    lower("index.steps_per_query.d16", "count", "steps_per_query"),
    lower(
        "index.steps_per_query.d20",
        "count",
        "steps_per_query on point_read",
    ),
    lower("index.build_s", "s", "setup_s"),
    lower("index.build_ns_per_row", "ns", "setup_s, peak_rss_mb"),
    // pool
    lower("pool.execute_us_per_batch", "us", "read_qps"),
    lower(
        "pool.overhead_us_per_batch",
        "us",
        "request_p50_ms, read_qps on fanout_read",
    ),
    lower(
        "pool.admission_wait_us",
        "us",
        "pool.read_batch_p99_ms on contended_rw",
    ),
    lower(
        "pool.admission_waits",
        "count",
        "pool.read_batch_p99_ms on contended_rw",
    ),
    lower(
        "pool.rows_per_query",
        "count",
        "none: output size on fanout_read",
    ),
    lower(
        "pool.read_batch_p50_ms",
        "ms",
        "read_qps; request_p50_ms on point_read, fanout_read",
    ),
    lower(
        "pool.read_batch_p99_ms",
        "ms",
        "read_qps (a mean: the tail pulls it down before the median moves)",
    ),
    // live
    lower(
        "live.apply_us_per_update",
        "us",
        "request_p50_ms on write_replicate, contended_rw",
    ),
    lower("live.pin_us", "us", "read_qps"),
    lower(
        "live.retained_undo_max",
        "count",
        "pool.read_batch_p99_ms on contended_rw",
    ),
    lower(
        "live.read_under_write_ratio",
        "ratio",
        "read_qps on contended_rw",
    ),
    lower(
        "live.maintenance_worst_ratio",
        "ratio",
        "wal.write_batch_p99_ms on contended_rw",
    ),
    lower(
        "live.maintenance_work_per_changed",
        "ratio",
        "request_p50_ms on contended_rw",
    ),
    // wal
    higher(
        "wal.write_ups",
        "updates/s",
        "request_p50_ms on write_replicate",
    ),
    lower(
        "wal.write_batch_p50_ms",
        "ms",
        "request_p50_ms on write_replicate, contended_rw",
    ),
    lower("wal.write_batch_p99_ms", "ms", "none: write tail"),
    lower(
        "wal.share_us_per_batch",
        "us",
        "request_p50_ms on write_replicate, contended_rw",
    ),
    lower(
        "wal.stage_us_per_record",
        "us",
        "request_p50_ms on contended_rw",
    ),
    lower("wal.fsync_us_p50", "us", "request_p50_ms on contended_rw"),
    lower(
        "wal.fsync_us_p99",
        "us",
        "wal.write_batch_p99_ms on contended_rw",
    ),
    lower("wal.bytes_per_update", "bytes", "store.disk_bytes_per_row"),
    lower("wal.commits", "count", "request_p50_ms on contended_rw"),
    lower("wal.segments", "count", "wal.recover_s"),
    lower(
        "wal.checkpoint_s",
        "s",
        "none: foreground stall between cycles",
    ),
    lower(
        "wal.compact_s",
        "s",
        "none: foreground stall between cycles",
    ),
    higher("wal.compact_records_dropped", "count", "wal.recover_s"),
    lower("wal.scan_s", "s", "wal.recover_s"),
    lower("wal.replay_s", "s", "wal.recover_s"),
    lower(
        "wal.recover_s",
        "s",
        "none: restart to first verified answer",
    ),
    lower("wal.recover_replayed_records", "count", "wal.recover_s"),
    // store
    lower("store.checkpoint_bytes", "bytes", "wal.checkpoint_s"),
    lower("store.bytes_per_row", "bytes", "store.disk_bytes_per_row"),
    lower(
        "store.disk_bytes_per_row",
        "bytes",
        "none: space per live row",
    ),
    lower(
        "store.save_s",
        "s",
        "wal.checkpoint_s, setup_s on write_replicate",
    ),
    lower(
        "store.load_s",
        "s",
        "wal.recover_s, setup_s on write_replicate",
    ),
    lower(
        "store.load_over_build",
        "ratio",
        "setup_s on write_replicate",
    ),
    // repl
    lower(
        "repl.poll_us_p50",
        "us",
        "request_p50_ms on write_replicate",
    ),
    lower(
        "repl.apply_us_p50",
        "us",
        "request_p50_ms on write_replicate",
    ),
    lower(
        "repl.poll_us_first_decile",
        "us",
        "request_p50_ms on write_replicate",
    ),
    lower(
        "repl.poll_us_last_decile",
        "us",
        "repl.visible_p99_ms on write_replicate",
    ),
    lower(
        "repl.records_per_shipment",
        "count",
        "request_p50_ms on write_replicate",
    ),
    lower(
        "repl.bytes_per_shipment",
        "bytes",
        "request_p50_ms on write_replicate",
    ),
    lower(
        "repl.segments_read_per_poll",
        "count",
        "request_p50_ms on write_replicate",
    ),
    lower("repl.bootstrap_s", "s", "setup_s on write_replicate"),
    lower(
        "repl.restart_s",
        "s",
        "none: follower restart from its mirror",
    ),
    lower(
        "repl.replica_read_over_primary",
        "ratio",
        "read_qps on write_replicate",
    ),
    lower(
        "repl.visible_p50_ms",
        "ms",
        "request_p50_ms on write_replicate (its traced twin)",
    ),
    lower("repl.visible_p99_ms", "ms", "none: write -> visible tail"),
    // the harness itself
    lower(
        "gen.late_share",
        "ratio",
        "none: open-loop generator lateness",
    ),
    lower("trace.wall_ratio", "ratio", "none: tracing overhead"),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "point_read",
        "big batches of single-shard point probes at 2^20 rows: index descent dominates; WAL, replication and fan-out are idle",
    ),
    (
        "fanout_read",
        "small row-returning batches with no shard key: every query fans out to all shards, so routing, dispatch and merge dominate",
    ),
    (
        "write_replicate",
        "serial apply -> fsync -> ship -> replay -> replica read cycles with checkpoints and a final recovery: the whole durable path",
    ),
    (
        "contended_rw",
        "fixed-rate durable writes beside closed-loop pinned reads: undo rings fill, readers roll back, shard and epoch locks contend",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The bounded end-to-end metrics with their bounds: what
    /// `BENCHMARK.json` declares and the `--trace 0` result line carries.
    fn bounded() -> impl Iterator<Item = (&'static EndToEnd, f64)> {
        END_TO_END.iter().filter_map(|m| Some((m, m.bound?)))
    }

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
            assert!(seen.insert(m.name), "{} twice", m.name);
        }
        for m in PER_LAYER {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(well_formed(name, 64), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            assert!(seen.insert(name), "{name} twice");
        }
        assert!(bounded().count() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let (setup, bound) = bounded()
            .find(|(m, _)| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(
            bounded().all(|(_, b)| b <= bound),
            "setup_s has the largest"
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above without a JSON parser: every declared name must
    /// appear there with its unit, direction and bound, and the file
    /// must declare nothing else.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let flat: String = BENCHMARK_JSON.split_whitespace().collect();
        for (m, bound) in bounded() {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{bound}}}",
                m.name, m.unit
            );
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        for m in PER_LAYER {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"}}",
                m.name, m.unit
            );
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        for (name, _) in WORKLOADS {
            assert!(flat.contains(&format!("{{\"name\":\"{name}\",\"why\":")));
        }
        let declared = flat.matches("{\"name\":").count();
        assert_eq!(
            declared,
            bounded().count() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
