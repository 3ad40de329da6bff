//! Replication crash-injection property tests: the transport and the
//! follower's local mirror are driven through the same crash model as
//! the primary's WAL — truncation at *every* byte offset, plus
//! arbitrary bit flips — and must either fail typed (a damaged
//! shipment applies nothing) or recover exactly (a follower killed
//! mid-catch-up restarts bit-identical to the oracle replay of its
//! confirmed prefix: answers AND global row ids).

use pitract_engine::{LiveRelation, ShardBy, UpdateEntry};
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use pitract_repl::{Follower, ReplError, SegmentPublisher, Shipment};
use pitract_store::{Dir, MemoryVolume, SnapshotCatalog};
use pitract_wal::segment::list_segments;
use pitract_wal::{DurableLiveRelation, SyncPolicy, WalConfig, WalReader};
use proptest::prelude::*;
use std::sync::Arc;

fn config(segment_bytes: u64) -> WalConfig {
    WalConfig {
        segment_bytes,
        sync: SyncPolicy::GroupCommit,
        ..WalConfig::default()
    }
}

/// A primary on a fresh in-memory volume, its snapshots and WAL under
/// `snaps` and `wal`.
fn primary(segment_bytes: u64) -> (Dir, Arc<DurableLiveRelation>, SnapshotCatalog) {
    let root = Dir::memory();
    let schema = Schema::new(&[("id", ColType::Int)]);
    let rel = Relation::from_rows(schema, vec![]).unwrap();
    let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
    let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
    let node = Arc::new(
        DurableLiveRelation::create(
            live,
            &catalog,
            "node",
            root.join("wal"),
            config(segment_bytes),
        )
        .unwrap(),
    );
    (root, node, catalog)
}

/// Apply generated ops to the primary; deletes only target still-live
/// gids so the stream is a plausible history.
fn drive(node: &DurableLiveRelation, ops: &[(u8, i64)]) {
    let mut live_gids: Vec<usize> = Vec::new();
    for &(op, key) in ops {
        if op % 4 == 0 && !live_gids.is_empty() {
            let gid = live_gids.remove(key as usize % live_gids.len());
            node.delete(gid).unwrap();
        } else {
            live_gids.push(node.insert(vec![Value::Int(key)]).unwrap());
        }
    }
}

/// The oracle for a follower's confirmed prefix: checkpoint state plus
/// the primary's WAL records below `below_lsn`.
fn oracle_at(catalog: &SnapshotCatalog, root: &Dir, below_lsn: u64) -> LiveRelation {
    let (state, mark, _cut) = catalog.load("node").unwrap().into_checkpoint().unwrap();
    let oracle = LiveRelation::from_sharded(state);
    let reader = WalReader::open(root.join("wal")).unwrap();
    let entries: Vec<UpdateEntry> = reader
        .records()
        .iter()
        .filter(|r| r.lsn >= mark && r.lsn < below_lsn)
        .map(|r| r.entry.clone())
        .collect();
    oracle.replay_entries(entries).unwrap();
    oracle
}

fn assert_matches_oracle(follower: &Follower, oracle: &LiveRelation, tag: &str) {
    assert_eq!(follower.len(), oracle.len(), "{tag}: live row count");
    for key in 0..1_000i64 {
        let q = SelectionQuery::point(0, key);
        assert_eq!(
            follower.matching_ids(&q),
            oracle.matching_ids(&q),
            "{tag}: gids for key {key}"
        );
    }
    for gid in 0..(oracle.len() + 8) {
        assert_eq!(follower.row(gid), oracle.row(gid), "{tag}: row {gid}");
    }
}

/// A shipment truncated at EVERY byte offset must fail typed and apply
/// nothing — a cut inside a frame is checksum/framing corruption, and a
/// cut exactly on a frame boundary is caught by the record count. This
/// is exhaustive over offsets, not sampled: every tear a transport can
/// produce is tried.
#[test]
fn shipment_truncated_at_every_byte_offset_fails_typed_and_applies_nothing() {
    let (root, node, catalog) = primary(u64::MAX);
    let publisher = SegmentPublisher::new(Arc::clone(&node));
    drive(
        &node,
        &[(1, 10), (2, 11), (0, 0), (3, 12), (1, 13), (0, 2), (2, 14)],
    );
    let follower =
        Follower::bootstrap(&catalog, "node", root.join("mirror"), config(u64::MAX)).unwrap();
    let ship = publisher.poll(0).unwrap();
    assert!(ship.records() >= 5, "the stream has substance");

    for cut in 0..ship.frames().len() {
        let torn = Shipment::from_parts(
            ship.base(),
            ship.end(),
            ship.records(),
            ship.frames()[..cut].to_vec(),
        );
        let err = follower
            .apply_shipment(&torn)
            .expect_err("every proper prefix must be rejected");
        assert!(
            matches!(err, ReplError::Wal(_) | ReplError::Misaligned { .. }),
            "cut at {cut}: unexpected error {err}"
        );
        assert_eq!(follower.applied_lsn(), 0, "cut at {cut}: nothing applied");
        assert_eq!(follower.len(), 0, "cut at {cut}: state untouched");
    }

    // The untampered shipment still applies after all those rejections.
    follower.apply_shipment(&ship).unwrap();
    assert_eq!(follower.applied_lsn(), ship.end());
    assert_eq!(follower.len(), node.len());
}

proptest! {
    /// A bit flipped anywhere in a shipment's frames must fail typed and
    /// apply nothing (the flip lands in a length, an LSN, a payload, or
    /// a checksum — all are covered by the frame checksum or framing
    /// checks).
    #[test]
    fn shipment_bit_flips_fail_typed_and_apply_nothing(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 3..20),
        flip_seed in 0usize..1_000_000
    ) {
        let (root, node, catalog) = primary(u64::MAX);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        drive(&node, &ops);
        let follower =
            Follower::bootstrap(&catalog, "node", root.join("mirror"), config(u64::MAX)).unwrap();
        let ship = publisher.poll(0).unwrap();
        prop_assert!(!ship.is_empty());

        let mut frames = ship.frames().to_vec();
        let at = flip_seed % frames.len();
        frames[at] ^= 0x01;
        let garbled = Shipment::from_parts(ship.base(), ship.end(), ship.records(), frames);
        // Either the damage is caught (typed) — or, if the flip struck a
        // frame's length field in a way that still frames correctly, the
        // record count / LSN alignment checks catch it. In no case may
        // partial state land.
        if follower.apply_shipment(&garbled).is_ok() {
            // The only undetectable flip would be one that keeps every
            // checksum valid — impossible for a single-bit flip under
            // FNV-1a over (lsn, payload), so reaching here means the
            // scanner legitimately decoded identical bytes.
            prop_assert_eq!(garbled.frames(), ship.frames(), "silent acceptance");
        } else {
            prop_assert_eq!(follower.applied_lsn(), 0, "nothing applied");
            prop_assert_eq!(follower.len(), 0, "state untouched");
            // And the pristine shipment still applies.
            follower.apply_shipment(&ship).unwrap();
            prop_assert_eq!(follower.len(), node.len());
        }
    }

    /// Kill a follower mid-catch-up — its mirror cut at an arbitrary
    /// byte offset, the crash model of an append-only log — and restart
    /// it: the recovered replica must be bit-identical (answers AND
    /// global row ids) to the oracle replay of its confirmed prefix, and
    /// must then drain to full convergence with the primary.
    #[test]
    fn follower_killed_mid_catch_up_restarts_to_its_exact_confirmed_prefix(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 4..28),
        step_bytes in 48usize..256,
        cut_seed in 0usize..1_000_000
    ) {
        let (root, node, catalog) = primary(160);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        drive(&node, &ops);
        node.wal().sync().unwrap();

        // Catch up partway in bounded steps, then "crash": drop the
        // follower and truncate its mirror's last segment at an
        // arbitrary byte offset.
        let mirror_dir = root.join("mirror");
        let follower =
            Follower::bootstrap(&catalog, "node", &mirror_dir, config(160)).unwrap();
        let sub = follower.attach(&publisher);
        let steps = 1 + cut_seed % 3;
        for _ in 0..steps {
            follower.catch_up_step(&publisher, sub, step_bytes).unwrap();
        }
        let applied_before = follower.applied_lsn();
        drop(follower);

        let mut full_mirror_survives = true;
        if let Some((_, last)) = list_segments(&mirror_dir).unwrap().pop() {
            let len = mirror_dir.read(&last, 0).unwrap().len();
            let cut = cut_seed % (len + 1);
            mirror_dir.open(&last).unwrap().truncate(cut as u64).unwrap();
            // Everything in earlier (sealed) segments plus the complete
            // frames below the cut survives; recovery decides exactly
            // which — the oracle comparison below is the real check.
            full_mirror_survives = cut == len;
        }

        // Restart: the recovered cursor is exactly what the mirror
        // confirms, and the state is the oracle replay of that prefix.
        let back = Follower::bootstrap(&catalog, "node", &mirror_dir, config(160)).unwrap();
        let recovered = back.applied_lsn();
        prop_assert!(recovered <= applied_before, "no invented records");
        if full_mirror_survives {
            prop_assert_eq!(recovered, applied_before, "an uncut mirror loses nothing");
        }
        let oracle = oracle_at(&catalog, &root, recovered);
        assert_matches_oracle(&back, &oracle, "post-crash");
        prop_assert_eq!(back.current_epoch(), back.applied_epoch());

        // And the restarted follower re-attaches and drains: the re-ship
        // of the truncated suffix converges bit-identically with the
        // primary.
        let sub = back.attach(&publisher);
        let report = back.catch_up(&publisher, sub).unwrap();
        prop_assert_eq!(report.lag, 0);
        let oracle = oracle_at(&catalog, &root, report.applied_lsn);
        assert_matches_oracle(&back, &oracle, "post-drain");
        prop_assert_eq!(back.len(), node.len());
    }

    /// A power loss under the follower: its mirror — on a volume that
    /// drops every byte no flush covered — holds shipments committed
    /// under group commit, then more appended under `SyncPolicy::Never`,
    /// whose commits flush nothing. After the crash the restarted
    /// follower is exactly the oracle replay of the committed prefix,
    /// and drains to convergence with the primary.
    #[test]
    fn follower_mirror_survives_power_loss_at_exactly_its_committed_prefix(
        ops in prop::collection::vec((0u8..8, 0i64..1_000), 4..28),
        step_bytes in 48usize..256,
        steps in 1usize..4,
    ) {
        let (root, node, catalog) = primary(160);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        drive(&node, &ops);
        node.wal().sync().unwrap();

        let volume = MemoryVolume::new();
        let mirror_dir = volume.root();
        let whole = |sync| WalConfig { segment_bytes: u64::MAX, sync, ..WalConfig::default() };
        let follower =
            Follower::bootstrap(&catalog, "node", &mirror_dir, whole(SyncPolicy::GroupCommit)).unwrap();
        let sub = follower.attach(&publisher);
        for _ in 0..steps {
            follower.catch_up_step(&publisher, sub, step_bytes).unwrap();
        }
        let committed = follower.applied_lsn();
        drop(follower);

        let follower =
            Follower::bootstrap(&catalog, "node", &mirror_dir, whole(SyncPolicy::Never)).unwrap();
        prop_assert_eq!(follower.applied_lsn(), committed);
        let sub = follower.attach(&publisher);
        let report = follower.catch_up(&publisher, sub).unwrap();
        prop_assert_eq!(report.lag, 0);
        drop(follower);
        volume.crash();

        let back =
            Follower::bootstrap(&catalog, "node", &mirror_dir, whole(SyncPolicy::GroupCommit)).unwrap();
        prop_assert_eq!(back.applied_lsn(), committed, "the unflushed shipments are gone");
        let oracle = oracle_at(&catalog, &root, committed);
        assert_matches_oracle(&back, &oracle, "post-power-loss");
        prop_assert_eq!(back.current_epoch(), back.applied_epoch());

        let sub = back.attach(&publisher);
        let report = back.catch_up(&publisher, sub).unwrap();
        prop_assert_eq!(report.lag, 0);
        prop_assert_eq!(back.len(), node.len());
    }
}
