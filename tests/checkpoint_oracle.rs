//! A checkpoint is a pinned read: it pins epoch `e`, encodes each
//! shard at `e` under that shard's read lock alone, then the id map at
//! `e`, while writers keep going. This suite races a writer against
//! checkpoints, with a batch's older pin held across them, and checks
//! each checkpoint file byte for byte against the log-prefix oracle at
//! its epoch: the bootstrap state with exactly the WAL records below the
//! checkpoint's mark replayed onto it. Then it recovers the node and
//! checks it against the node it replaces.
//!
//! In debug builds the pinned read also asserts, through lockdep, that
//! it holds one shard lock at a time and none while it reads the id map.

use pi_tractable::prelude::*;
use pi_tractable::wal::WalRecord;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn base_live(n: i64) -> LiveRelation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 8))])
        .collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap()
}

fn probes() -> Vec<SelectionQuery> {
    vec![
        SelectionQuery::point(1, "grp3"),
        SelectionQuery::point(1, "late"),
        SelectionQuery::range_closed(0, 0i64, 5_000),
        SelectionQuery::and(
            SelectionQuery::point(1, "grp5"),
            SelectionQuery::range_closed(0, 100i64, 900),
        ),
    ]
}

/// The oracle at `mark`: the bootstrap state with every WAL record
/// below `mark` replayed onto it.
fn prefix_oracle(base: i64, log: &[WalRecord], mark: u64) -> LiveRelation {
    let oracle = base_live(base);
    let prefix = log
        .iter()
        .take_while(|r| r.lsn < mark)
        .map(|r| r.entry.clone())
        .collect();
    oracle.replay_entries(prefix).unwrap();
    oracle
}

#[test]
fn checkpoints_racing_a_writer_are_the_log_prefix_at_their_epoch() {
    const BASE: i64 = 600;
    let snaps = Dir::memory();
    let catalog = SnapshotCatalog::open(snaps.clone()).unwrap();
    let wal_dir = Dir::memory();
    let config = WalConfig::default();
    let node =
        DurableLiveRelation::create(base_live(BASE), &catalog, "boot", &wal_dir, config.clone())
            .unwrap();
    assert_eq!(node.checkpoint_mark(), 0);

    // A batch pins an early epoch and holds it across every checkpoint:
    // the rings then hold undo records from before each checkpoint's
    // pin as well as after it.
    for i in 0..20 {
        node.delete(i * 3).unwrap().unwrap();
    }
    let batch = node.pin();

    let ops = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut checkpoints = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0i64;
            while !done.load(Ordering::Acquire) || i < 400 {
                let gid = node
                    .insert(vec![Value::Int(BASE + i), Value::str("late")])
                    .unwrap();
                // Deletes of rows live at the last pin, and of an
                // insert made after it.
                node.delete((i as usize * 7 + 1) % BASE as usize).unwrap();
                if i % 5 == 0 {
                    node.delete(gid).unwrap().unwrap();
                }
                ops.fetch_add(1, Ordering::Release);
                i += 1;
            }
        });
        for round in 0..6 {
            while ops.load(Ordering::Acquire) < 40 * (round + 1) {
                std::thread::yield_now();
            }
            let name = format!("ckpt{round}");
            node.checkpoint(&catalog, &name).unwrap();
            checkpoints.push((name, node.checkpoint_mark()));
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(
        batch.epoch(),
        Epoch::new(20),
        "the batch's pin held throughout"
    );
    drop(batch);
    node.wal().sync().unwrap();
    let log = WalReader::open(&wal_dir).unwrap();
    let log = log.records();

    let mut marks = Vec::new();
    for (name, mark) in &checkpoints {
        let bytes = snaps.read(&format!("{name}.snap"), 0).unwrap();
        let (state, wal_lsn, epoch) = Snapshot::from_bytes(&bytes)
            .unwrap()
            .into_checkpoint()
            .unwrap();
        // The mark is the pinned epoch's LSN, and the marks only rise.
        assert_eq!(
            (wal_lsn, epoch),
            (*mark, node.epoch_of_lsn(*mark)),
            "{name}"
        );
        marks.push(*mark);
        let oracle = prefix_oracle(BASE, log, *mark);
        assert_eq!(
            oracle.current_epoch(),
            epoch,
            "{name}: epoch ≡ records below the mark"
        );
        let want = Snapshot {
            state: oracle.to_sharded(),
            mark: Some((wal_lsn, epoch)),
        }
        .to_bytes();
        assert!(
            bytes == want,
            "{name}: the file is the log prefix at its epoch, byte for byte"
        );
        // The same, as a served relation: answers and global ids.
        let loaded = LiveRelation::from_sharded(state);
        assert_eq!(loaded.len(), oracle.len(), "{name}");
        for q in probes() {
            assert_eq!(
                loaded.matching_ids(&q),
                oracle.matching_ids(&q),
                "{name}: {q:?}"
            );
        }
    }
    assert!(marks.windows(2).all(|w| w[0] <= w[1]), "{marks:?}");
    assert!(marks[0] > 20, "the first checkpoint covers racing writes");

    // Recover from the last checkpoint plus the tail: the node it
    // replaces, row for row.
    let upper = log.len() + BASE as usize;
    let rows: Vec<Option<Vec<Value>>> = (0..upper).map(|gid| node.row(gid)).collect();
    let answers: Vec<Vec<usize>> = probes().iter().map(|q| node.matching_ids(q)).collect();
    let last = checkpoints.last().unwrap().0.clone();
    drop(node);
    let recovered = DurableLiveRelation::recover(&catalog, &last, &wal_dir, config).unwrap();
    for (gid, row) in rows.iter().enumerate() {
        assert_eq!(&recovered.row(gid), row, "gid {gid}");
    }
    for (q, ids) in probes().iter().zip(&answers) {
        assert_eq!(&recovered.matching_ids(q), ids, "{q:?}");
    }
}
