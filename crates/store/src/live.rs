//! Checkpoint and recovery for the live serving tier.
//!
//! A [`LiveRelation`] accumulates updates in a replayable in-memory
//! [`UpdateLog`]; this module gives it crash-consistent persistence on
//! top of the snapshot catalog:
//!
//! * [`LiveCheckpoint::checkpoint`] atomically freezes the live state
//!   (all shard locks held for the export, so the snapshot is a true
//!   point in time), writes it through [`SnapshotCatalog`] (temp-file +
//!   rename, so a crash mid-save never corrupts the previous
//!   checkpoint), and only then truncates the covered log prefix — a
//!   failed save loses nothing.
//! * [`LiveCheckpoint::recover`] is the inverse: load the named
//!   snapshot, wrap it for serving, and replay a log of the updates that
//!   landed after the checkpoint. Replay verifies that every insert
//!   reproduces its logged global id, so recovery is bit-identical to
//!   the lost live state — same answers *and* same row ids — or fails
//!   typed, never silently diverges.
//!
//! The log itself can be persisted too ([`Snapshot::Log`] /
//! [`crate::snapshot::SnapshotKind::UpdateLog`]): a deployment that saves
//! the pending log after each update (or batch of updates) can recover
//! everything; one that only checkpoints recovers to the last
//! checkpoint.

use crate::catalog::SnapshotCatalog;
use crate::error::StoreError;
use crate::snapshot::Snapshot;
use pitract_core::epoch::Epoch;
use pitract_engine::{LiveRelation, UpdateLog};
use std::path::PathBuf;

/// What [`LiveCheckpoint::recover`] reconstructed: where the recovered
/// node's clocks resumed and how much replay it took to get there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// The epoch clock after recovery — the checkpoint's cut epoch plus
    /// one tick per logged update, exactly where the lost node's clock
    /// stood. The next applied update is stamped `epoch + 1`.
    pub epoch: Epoch,
    /// The checkpoint's WAL mark, when the checkpoint was written by a
    /// WAL-attached node (`None` for in-memory-log checkpoints).
    pub lsn: Option<u64>,
    /// Updates actually replayed — the *compacted* net change, not the
    /// logged churn.
    pub replayed: usize,
}

/// Checkpoint/recover operations connecting [`LiveRelation`] to the
/// snapshot catalog. Implemented (only) for [`LiveRelation`]; a trait so
/// the engine crate stays independent of the store crate.
pub trait LiveCheckpoint: Sized {
    /// Freeze the live state, persist it under `name` (together with the
    /// cut's MVCC epoch, so recovery resumes the epoch clock exactly),
    /// and truncate the update log to the entries not covered by the
    /// snapshot. Returns the snapshot's file path.
    fn checkpoint(&self, catalog: &SnapshotCatalog, name: &str) -> Result<PathBuf, StoreError>;

    /// Load the snapshot saved under `name`, wrap it for live serving,
    /// and replay `log` (the updates recorded after that checkpoint)
    /// onto it — after [`UpdateLog::compact`]ing it, so recovery work is
    /// bounded by the *net* change, not the churn: insert+delete pairs
    /// are cancelled and their ids burned as tombstones. The result is
    /// bit-identical to the state the log was recorded from — same
    /// answers, same live global row ids, same epoch clock (summarized
    /// in the returned [`Recovered`]). Accepts both the current
    /// `LiveCheckpoint` snapshot kind and plain `ShardedRelation`
    /// snapshots written before epochs existed (cut epoch 0).
    fn recover(
        catalog: &SnapshotCatalog,
        name: &str,
        log: &UpdateLog,
    ) -> Result<(Self, Recovered), StoreError>;
}

impl LiveCheckpoint for LiveRelation {
    fn checkpoint(&self, catalog: &SnapshotCatalog, name: &str) -> Result<PathBuf, StoreError> {
        let frozen = self.freeze();
        let path = catalog.save(
            name,
            &Snapshot::Checkpoint {
                state: frozen.state,
                wal_lsn: 0,
                epoch: frozen.epoch,
            },
        )?;
        // Truncate only after the save succeeded: a failed write keeps
        // every entry replayable against the previous checkpoint.
        self.confirm_checkpoint(frozen.covered);
        Ok(path)
    }

    fn recover(
        catalog: &SnapshotCatalog,
        name: &str,
        log: &UpdateLog,
    ) -> Result<(Self, Recovered), StoreError> {
        let (state, wal_lsn, cut) = match catalog.load(name)? {
            // Pre-epoch deployments checkpointed the bare sharded state.
            Snapshot::Sharded(state) => (state, 0, Epoch::ZERO),
            other => other.into_checkpoint()?,
        };
        let live = LiveRelation::from_sharded(state);
        let compacted = log.compact();
        live.replay_compacted(&compacted)
            .map_err(StoreError::Engine)?;
        // Trailing cancelled pairs leave no entry to carry their ids;
        // burn up to the original log's watermark so future inserts get
        // the same gids the lost node would have assigned.
        if let Some(watermark) = log.next_gid_watermark() {
            live.burn_gids_to(watermark);
        }
        // The epoch clock counts *applied* updates of the original
        // history, not surviving log entries. A log captured from a live
        // node carries that clock as `end_epoch` (it survives compaction
        // and truncation); `cut + len` is the fallback for logs decoded
        // from files written before epochs existed, whose end defaults
        // to the bare entry count.
        let epoch = Epoch::new((cut.get() + log.len() as u64).max(log.end_epoch().get()));
        live.advance_epoch_to(epoch);
        let summary = Recovered {
            epoch,
            lsn: (wal_lsn > 0).then_some(wal_lsn),
            replayed: compacted.len(),
        };
        Ok((live, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dir;
    use pitract_engine::ShardBy;
    use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};

    fn live(n: i64) -> LiveRelation {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap()
    }

    #[test]
    fn checkpoint_then_recover_is_bit_identical() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let lr = live(60);
        lr.delete(10).unwrap().unwrap();
        lr.insert(vec![Value::Int(600), Value::str("pre")]).unwrap();

        lr.checkpoint(&catalog, "orders").unwrap();
        assert!(lr.pending_log().is_empty(), "log truncated on checkpoint");

        // Post-checkpoint traffic, covered only by the pending log.
        lr.insert(vec![Value::Int(601), Value::str("post")])
            .unwrap();
        lr.delete(20).unwrap().unwrap();

        let (recovered, summary) =
            LiveRelation::recover(&catalog, "orders", &lr.pending_log()).unwrap();
        assert_eq!(
            summary.epoch,
            lr.current_epoch(),
            "the epoch clock resumes exactly where the lost node's stood"
        );
        assert_eq!(recovered.current_epoch(), lr.current_epoch());
        assert_eq!(summary.lsn, None, "no WAL attached");
        assert_eq!(summary.replayed, 2);
        assert_eq!(recovered.len(), lr.len());
        for gid in 0..62 {
            assert_eq!(recovered.row(gid), lr.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::point(0, 600i64),
            SelectionQuery::point(0, 601i64),
            SelectionQuery::point(0, 20i64),
            SelectionQuery::range_closed(0, 0i64, 700i64),
        ] {
            assert_eq!(recovered.matching_ids(&q), lr.matching_ids(&q), "{q:?}");
        }
    }

    #[test]
    fn update_log_persists_as_its_own_catalog_entry() {
        use crate::snapshot::SnapshotKind;
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let lr = live(10);
        lr.insert(vec![Value::Int(77), Value::str("w")]).unwrap();
        lr.delete(3).unwrap().unwrap();

        let log = lr.pending_log();
        catalog.save("wal", &Snapshot::Log(log.clone())).unwrap();
        let loaded = catalog.load("wal").unwrap();
        assert_eq!(loaded.kind(), SnapshotKind::UpdateLog);
        let loaded = loaded.into_log().unwrap();
        assert_eq!(loaded, log, "codec roundtrips the log exactly");
    }

    #[test]
    fn recover_with_foreign_log_fails_typed() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let lr = live(10);
        lr.checkpoint(&catalog, "base").unwrap();

        // A log recorded against some other history.
        let other = live(50);
        other.delete(40).unwrap().unwrap();
        let err = LiveRelation::recover(&catalog, "base", &other.pending_log()).unwrap_err();
        assert!(matches!(err, StoreError::Engine(_)), "{err}");
    }

    /// Recovery compacts the pending log before replaying: an
    /// insert+delete pair in the suffix is never re-applied, yet the
    /// recovered node is still bit-identical on answers and row ids.
    #[test]
    fn recover_compacts_churn_to_net_change() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let lr = live(20);
        lr.checkpoint(&catalog, "base").unwrap();
        // Churn: 30 insert+delete pairs and 2 surviving updates.
        for i in 0..30i64 {
            let gid = lr
                .insert(vec![Value::Int(900 + i), Value::str("churn")])
                .unwrap();
            lr.delete(gid).unwrap().unwrap();
        }
        lr.insert(vec![Value::Int(777), Value::str("kept")])
            .unwrap();
        lr.delete(5).unwrap().unwrap();
        let pending = lr.pending_log();
        assert_eq!(pending.len(), 62);

        let (recovered, summary) = LiveRelation::recover(&catalog, "base", &pending).unwrap();
        assert_eq!(
            recovered.boundedness_report().len(),
            2,
            "only the net change was replayed"
        );
        assert_eq!(summary.replayed, 2);
        assert_eq!(
            recovered.current_epoch(),
            lr.current_epoch(),
            "compaction must not slow the epoch clock"
        );
        assert_eq!(recovered.len(), lr.len());
        for gid in 0..55 {
            assert_eq!(recovered.row(gid), lr.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::point(0, 777i64),
            SelectionQuery::point(0, 5i64),
            SelectionQuery::point(1, "churn"),
            SelectionQuery::range_closed(0, 0i64, 1_000i64),
        ] {
            assert_eq!(recovered.matching_ids(&q), lr.matching_ids(&q), "{q:?}");
        }
    }

    #[test]
    fn failed_checkpoint_keeps_the_log() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let lr = live(5);
        lr.insert(vec![Value::Int(50), Value::str("kept")]).unwrap();
        let err = lr.checkpoint(&catalog, "../escape").unwrap_err();
        assert!(matches!(err, StoreError::InvalidName(_)), "{err}");
        assert_eq!(lr.pending_log().len(), 1, "nothing truncated on failure");
    }
}
