//! Integration suite for the durable WAL tier: crash consistency proven
//! against an oracle at **every** truncation point of a log produced by
//! *concurrent* writers, compaction invariance, and the end-to-end
//! checkpoint → churn → crash → recover → serve loop.

use pi_tractable::prelude::*;
use pi_tractable::wal::segment::{scan_dir, RECORD_OVERHEAD, SEGMENT_HEADER_LEN};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)])
}

fn base_live(n: i64) -> LiveRelation {
    let rows = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 8))])
        .collect();
    let rel = Relation::from_rows(schema(), rows).unwrap();
    LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap()
}

fn probes(upper: i64) -> Vec<SelectionQuery> {
    vec![
        SelectionQuery::point(1, "grp3"),
        SelectionQuery::point(1, "hot"),
        SelectionQuery::range_closed(0, 0i64, upper),
        SelectionQuery::and(
            SelectionQuery::point(1, "grp5"),
            SelectionQuery::range_closed(0, 0i64, upper),
        ),
    ]
}

/// Assert two nodes are observably identical: length, every row slot,
/// answers and global row ids for a probe set.
fn assert_same_state(a: &LiveRelation, b: &LiveRelation, gid_upper: usize, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: live count");
    for gid in 0..gid_upper {
        assert_eq!(a.row(gid), b.row(gid), "{ctx}: gid {gid}");
    }
    for q in probes(10_000) {
        assert_eq!(a.answer(&q), b.answer(&q), "{ctx}: answer {q:?}");
        assert_eq!(a.matching_ids(&q), b.matching_ids(&q), "{ctx}: ids {q:?}");
    }
}

fn copy_dir(from: &Dir, to: &Dir) {
    to.create_dir_all().unwrap();
    for name in from.list().unwrap() {
        to.write_atomic(&name, &from.read(&name, 0).unwrap())
            .unwrap();
    }
}

/// The acceptance property: a WAL produced under racing writers (with a
/// mid-run checkpoint, so the mark is nonzero) is truncated at **every
/// byte offset** of its active segment; at each offset, recovery must
/// rebuild exactly the confirmed prefix — checked against an
/// independent oracle that replays the prefix onto the checkpoint state
/// — and compacting the truncated log first must change nothing.
#[test]
fn every_truncation_point_recovers_the_confirmed_prefix() {
    let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
    let wal_dir = Dir::memory();
    let config = WalConfig {
        segment_bytes: 900, // several segments; a short active tail
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    };
    let node =
        DurableLiveRelation::create(base_live(50), &catalog, "node", &wal_dir, config.clone())
            .unwrap();

    // Phase 1: concurrent churn, then a checkpoint (mark > 0).
    std::thread::scope(|scope| {
        for t in 0..3i64 {
            let node = &node;
            scope.spawn(move || {
                for i in 0..12i64 {
                    let gid = node
                        .insert(vec![Value::Int(1_000 + t * 100 + i), Value::str("hot")])
                        .unwrap();
                    if i % 3 == 0 {
                        node.delete(gid).unwrap().unwrap();
                    }
                }
            });
        }
    });
    node.checkpoint(&catalog, "node").unwrap();
    let mark = node.checkpoint_mark();
    assert!(mark > 0, "the checkpoint covered the phase-1 churn");

    // Phase 2: more racing writers — these live only in the WAL tail.
    std::thread::scope(|scope| {
        for t in 0..3i64 {
            let node = &node;
            scope.spawn(move || {
                for i in 0..10i64 {
                    let gid = node
                        .insert(vec![Value::Int(2_000 + t * 100 + i), Value::str("hot")])
                        .unwrap();
                    if i % 4 == 0 {
                        node.delete(gid).unwrap().unwrap();
                    }
                }
            });
        }
    });
    node.wal().sync().unwrap();
    drop(node);

    // The WAL is the authoritative history. Identify the active segment
    // and the byte extent of each of its records.
    let scan = scan_dir(&wal_dir).unwrap();
    let active = scan.segments.last().unwrap();
    let active_name = active.name.clone();
    let active_bytes = wal_dir.read(&active_name, 0).unwrap();
    assert!(scan.segments.len() > 1, "rotation produced closed segments");
    let reader = WalReader::open(&wal_dir).unwrap();
    assert!(reader.len() > 40, "both phases logged");

    // (lsn, entry, end-offset-in-active-file) for active-segment records;
    // closed-segment records survive every cut.
    let closed_tail: Vec<UpdateEntry> = reader
        .records()
        .iter()
        .filter(|r| r.lsn >= mark && r.lsn < active.base_lsn)
        .map(|r| r.entry.clone())
        .collect();
    let mut active_extents: Vec<(u64, UpdateEntry, usize)> = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    for (lsn, payload) in &active.records {
        offset += RECORD_OVERHEAD + payload.len();
        let entry = reader
            .records()
            .iter()
            .find(|r| r.lsn == *lsn)
            .unwrap()
            .entry
            .clone();
        active_extents.push((*lsn, entry, offset));
    }
    assert_eq!(offset, active_bytes.len(), "extent math spans the file");

    let (state, state_mark, _epoch) = catalog.load("node").unwrap().into_checkpoint().unwrap();
    assert_eq!(state_mark, mark);

    let pristine = wal_dir;
    for cut in 0..=active_bytes.len() {
        // Crash: on a fresh copy of the pristine volume, the active
        // segment loses everything past `cut`.
        let wal_dir = Dir::memory().join("wal");
        copy_dir(&pristine, &wal_dir);
        wal_dir
            .open(&active_name)
            .unwrap()
            .truncate(cut as u64)
            .unwrap();

        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config.clone())
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));

        // Oracle: checkpoint state + replay of the confirmed prefix
        // (closed tail + active records whose frames fit).
        let mut confirmed = closed_tail.clone();
        confirmed.extend(
            active_extents
                .iter()
                .filter(|(lsn, _, end)| *end <= cut && *lsn >= mark)
                .map(|(_, e, _)| e.clone()),
        );
        let oracle = LiveRelation::from_sharded(state.clone());
        oracle
            .replay_entries(confirmed)
            .unwrap_or_else(|e| panic!("cut {cut}: oracle replay failed: {e}"));
        assert_same_state(&recovered, &oracle, 150, &format!("cut {cut}"));

        // Compaction on the crashed log must not change what recovers.
        if cut % 5 == 0 {
            drop(recovered);
            let report = Compactor::new(mark).compact_dir(&wal_dir).unwrap();
            assert!(report.records_after <= report.records_before);
            let after = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config.clone())
                .unwrap_or_else(|e| panic!("cut {cut}: post-compaction recovery failed: {e}"));
            assert_same_state(&after, &oracle, 150, &format!("cut {cut} compacted"));
        }
    }
}

/// One batch through a serving session over `node`. The session ends
/// (its pool joins) before this returns, so dropping `node` afterwards
/// really is the crash.
fn serve(node: &Arc<DurableLiveRelation>, batch: &QueryBatch) -> Vec<bool> {
    PooledExecutor::with_default_pool(Arc::clone(node))
        .execute(batch)
        .unwrap()
        .answers
}

/// End-to-end durable serving loop: create → serve under concurrent
/// writers and readers → checkpoint → more churn → crash → recover →
/// the node continues seamlessly (same answers, continued gid and LSN
/// sequences), with compaction bounding the on-disk log.
#[test]
fn durable_serving_loop_survives_crash_and_compaction() {
    let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
    let wal_dir = Dir::memory();
    let config = WalConfig {
        segment_bytes: 2_000,
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    };
    let n = 2_000i64;
    let node = Arc::new(
        DurableLiveRelation::create(base_live(n), &catalog, "orders", &wal_dir, config.clone())
            .unwrap(),
    );

    // Serve queries while writers churn, exactly like the non-durable
    // tier — the WAL must not change any answer.
    let batch = QueryBatch::new((0..64i64).map(|k| match k % 2 {
        0 => SelectionQuery::point(0, (k * 31) % n),
        _ => SelectionQuery::range_closed(0, (k * 13) % n, (k * 13) % n + 40),
    }));
    let oracle: Vec<bool> = {
        let rel = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 8))])
            .collect::<Vec<_>>();
        let rel = Relation::from_rows(schema(), rel).unwrap();
        batch.queries().iter().map(|q| rel.eval_scan(q)).collect()
    };
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2i64)
            .map(|t| {
                let node = &node;
                scope.spawn(move || {
                    for i in 0..60i64 {
                        let gid = node
                            .insert(vec![Value::Int(n + t * 1_000 + i), Value::str("hot")])
                            .unwrap();
                        if i % 2 == 0 {
                            node.delete(gid).unwrap().unwrap();
                        }
                    }
                })
            })
            .collect();
        for _ in 0..5 {
            assert_eq!(serve(&node, &batch), oracle, "stable region diverged");
        }
        for w in writers {
            w.join().unwrap();
        }
    });

    node.checkpoint(&catalog, "orders").unwrap();
    for i in 0..30i64 {
        let gid = node
            .insert(vec![Value::Int(n + 5_000 + i), Value::str("tail")])
            .unwrap();
        if i % 3 == 0 {
            node.delete(gid).unwrap().unwrap();
        }
    }
    let pre_crash: Vec<Option<Vec<Value>>> =
        (0..(n as usize + 200)).map(|gid| node.row(gid)).collect();
    let pre_len = node.len();
    drop(node); // crash: everything confirmed is in snapshot + WAL

    let node = Arc::new(
        DurableLiveRelation::recover(&catalog, "orders", &wal_dir, config.clone()).unwrap(),
    );
    assert_eq!(node.len(), pre_len);
    for (gid, expect) in pre_crash.iter().enumerate() {
        assert_eq!(&node.row(gid), expect, "gid {gid}");
    }
    assert_eq!(serve(&node, &batch), oracle);

    // Compact: the closed churn shrinks, and the node still recovers.
    node.wal().rotate_now().unwrap();
    node.checkpoint(&catalog, "orders").unwrap();
    let report = node.compact_wal().unwrap();
    assert!(
        report.records_after < report.records_before,
        "churn compacted away: {report:?}"
    );
    drop(node);
    let node =
        Arc::new(DurableLiveRelation::recover(&catalog, "orders", &wal_dir, config).unwrap());
    assert_eq!(node.len(), pre_len);
    assert_eq!(serve(&node, &batch), oracle);
    // And it keeps serving durably after all of that.
    let gid = node
        .insert(vec![Value::Int(999_999), Value::str("alive")])
        .unwrap();
    assert!(node.row(gid).is_some());
}

/// The no-WAL and durable nodes agree observably under the same update
/// stream — durability must be a pure overlay, never a semantic change.
#[test]
fn durable_node_serves_identically_to_plain_live_relation() {
    let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
    let plain = base_live(300);
    let durable = DurableLiveRelation::create(
        base_live(300),
        &catalog,
        "twin",
        Dir::memory(),
        WalConfig::default(),
    )
    .unwrap();
    for i in 0..50i64 {
        let a = plain
            .insert(vec![Value::Int(5_000 + i), Value::str("x")])
            .unwrap();
        let b = durable
            .insert(vec![Value::Int(5_000 + i), Value::str("x")])
            .unwrap();
        assert_eq!(a, b, "gid assignment agrees");
        if i % 4 == 0 {
            assert_eq!(plain.delete(a).unwrap(), durable.delete(b).unwrap());
        }
    }
    assert_same_state(&plain, &durable, 360, "overlay");
    assert_eq!(
        plain.boundedness_report(),
        durable.boundedness_report(),
        "maintenance accounting identical"
    );
}
