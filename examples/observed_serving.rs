//! Observed serving: one recorder watching the whole durable stack.
//!
//! The paper's contract is a cost *profile* — query work bounded by the
//! accessed fraction Π(D), maintenance by |CHANGED| — and this example
//! shows the `pitract-obs` layer measuring that profile on a live node
//! instead of trusting it:
//!
//! 1. **Wire**: one `Recorder` rides in both configs — the
//!    `WalConfig` handed to `DurableLiveRelation::create` and the
//!    `PoolConfig` handed to `PooledExecutor::new` — so the WAL
//!    (`wal_*`), worker pool (`pool_*`), MVCC read cuts (`mvcc_*`), and
//!    query engine (`engine_*`) all record into the same registry; one
//!    `exec.status().publish(&recorder)` sets the state before a scrape.
//! 2. **Serve under churn**: writer threads absorb durable updates
//!    while verified query batches run — every fsync, admission wait,
//!    plan choice, and undo-ring walk lands in a metric.
//! 3. **Crash with a torn tail**: drop the node cold and leave a
//!    half-written record; `DurableLiveRelation::recover`, handed a
//!    fresh recorder in its `WalConfig`, truncates it *observably*
//!    — a `wal_torn_tail_truncated` trace event plus
//!    `wal_recovery_*` counters, not a silent byte-chop.
//! 4. **Export**: dump the snapshot as Prometheus text and JSON
//!    (`target/observed_serving.prom` / `.json`), verify all four
//!    subsystem prefixes are live, and round-trip the JSON losslessly.
//!
//! Run with: `cargo run --release --example observed_serving`

use pi_tractable::obs::to_prometheus;
use pi_tractable::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("=== Observed serving: one recorder across WAL, pool, MVCC, engine ===\n");

    let n = 50_000i64;
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 100))])
        .collect();
    let base = Relation::from_rows(schema, rows).expect("valid rows");

    let root = std::env::temp_dir().join(format!("pitract-observed-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let wal_dir = root.join("wal");

    // 1. Wire: one recorder for the whole node, carried by both configs.
    let wal_config = |recorder: &Recorder| WalConfig {
        segment_bytes: 256 << 10,
        recorder: recorder.clone(),
    };
    let pool_config = |recorder: &Recorder| PoolConfig {
        workers: 4,
        max_inflight: 8,
        recorder: recorder.clone(),
    };
    let recorder = Recorder::new();
    let live = LiveRelation::build(&base, ShardBy::Hash { col: 0 }, 8, &[0, 1])
        .expect("valid sharding spec");
    let node =
        DurableLiveRelation::create(live, &catalog, "orders", &wal_dir, wal_config(&recorder))
            .expect("fresh durable node");
    let exec = PooledExecutor::new(Arc::new(node), pool_config(&recorder));
    println!("wired: durable node + 4-worker pool publishing into one registry");

    // 2. Serve under churn: 4 writers, 12 verified batches.
    let batch = QueryBatch::new((0..256i64).map(|k| match k % 3 {
        0 => SelectionQuery::point(0, (k * 997) % n),
        1 => SelectionQuery::range_closed(0, (k * 641) % n, (k * 641) % n + 150),
        _ => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 100).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 1_500),
        ),
    }));
    let oracle: Vec<bool> = batch.queries().iter().map(|q| base.eval_scan(q)).collect();
    let t0 = Instant::now();
    let applied: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4i64)
            .map(|w| {
                let node = Arc::clone(exec.relation());
                scope.spawn(move || {
                    let mut applied = 0u64;
                    for i in 0..1_000i64 {
                        let gid = node
                            .insert(vec![Value::Int(n + w * 1_000_000 + i), Value::str("hot")])
                            .expect("durable insert");
                        applied += 1;
                        if i % 2 == 0 {
                            node.delete(gid).expect("durable delete").expect("live gid");
                            applied += 1;
                        }
                    }
                    applied
                })
            })
            .collect();
        for round in 0..12 {
            let got = exec.execute(&batch).expect("batch");
            assert_eq!(got.answers, oracle, "round {round} diverged from oracle");
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    exec.relation().wal().sync().expect("final flush");
    exec.status().publish(&recorder);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "served 12×256 verified queries while absorbing {applied} durable updates \
         ({:.0} updates/s) — every fsync, plan choice, and pin recorded",
        applied as f64 / secs,
    );

    let snap = recorder.snapshot();
    println!("\nmid-flight registry highlights:");
    for name in [
        "wal_appends_total",
        "pool_batches_admitted_total",
        "engine_queries_total",
        "engine_updates_total",
    ] {
        println!("  {name} = {}", snap.counter(name).expect("live counter"));
    }
    let fsync = snap.histogram("wal_fsync_micros").expect("fsync histogram");
    println!(
        "  wal_fsync_micros: count={} p50={}us p99={}us",
        fsync.count,
        fsync.quantile(0.50),
        fsync.quantile(0.99),
    );

    // 3. Crash with a torn tail, then recover observably.
    drop(exec);
    let newest = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("segments exist");
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest)
            .expect("open segment");
        f.write_all(&64u32.to_le_bytes()).expect("torn frame");
        f.write_all(&[0xAB; 5]).expect("torn frame");
    }
    println!("\ncrash: process gone, a half-written (never confirmed) record torn at the tail");

    let recorder = Recorder::new();
    let node = DurableLiveRelation::recover(&catalog, "orders", &wal_dir, wal_config(&recorder))
        .expect("recovery");
    let replayed = node.recovery_summary().expect("recovered node").replayed;
    let exec = PooledExecutor::new(Arc::new(node), pool_config(&recorder));
    assert_eq!(exec.execute(&batch).expect("batch").answers, oracle);
    exec.status().publish(&recorder);
    let snap = recorder.snapshot();
    let torn = recorder
        .drain_trace()
        .into_iter()
        .find(|e| e.name == "wal_torn_tail_truncated")
        .expect("torn-tail trace event");
    println!(
        "recovered: replayed {replayed} compacted entries; truncation observed — \
         {} torn bytes, {} dropped record(s), trace event `{}` emitted",
        snap.counter("wal_recovery_torn_bytes_total")
            .expect("torn byte counter"),
        snap.counter("wal_recovery_dropped_records_total")
            .expect("dropped record counter"),
        torn.name,
    );

    // 4. Export: Prometheus text + JSON, written for scrapers/CI.
    let text = to_prometheus(&snap);
    for prefix in ["wal_", "pool_", "mvcc_", "engine_"] {
        assert!(
            text.lines().any(|l| l.starts_with(prefix)),
            "missing {prefix} series in the export"
        );
    }
    let json = snap.to_json();
    let reparsed = MetricsSnapshot::from_json(&json).expect("well-formed snapshot JSON");
    assert_eq!(reparsed, snap, "JSON export must round-trip losslessly");

    let out_dir = std::path::Path::new("target");
    let _ = std::fs::create_dir_all(out_dir);
    std::fs::write(out_dir.join("observed_serving.prom"), &text).expect("write .prom");
    std::fs::write(out_dir.join("observed_serving.json"), json.render_pretty())
        .expect("write .json");
    println!(
        "\nexported {} Prometheus series (all four prefixes live) to \
         target/observed_serving.prom and a lossless JSON twin to \
         target/observed_serving.json",
        text.lines().filter(|l| !l.starts_with('#')).count(),
    );

    println!("\neverything verified: served, crashed, recovered — and every step measured. ✓");
    let _ = std::fs::remove_dir_all(&root);
}
