//! Property tests for the snapshot codec and loader.
//!
//! Two contracts:
//!
//! 1. **Roundtrip**: `read(write(x)) == x` for arbitrary rows — integer
//!    extremes, empty and multi-byte-UTF-8 strings, zero-arity rows, and
//!    tombstones.
//! 2. **Totality**: feeding the loader arbitrary bytes, corrupted
//!    snapshots, or truncated prefixes of valid snapshots returns a typed
//!    error — it never panics and never over-allocates.

use pitract_engine::{LiveRelation, ShardBy};
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use pitract_store::codec::{Reader, Writer};
use pitract_store::snapshot::checksum;
use pitract_store::{Snapshot, FORMAT_VERSION, MAGIC};
use proptest::prelude::*;

/// Multi-byte UTF-8 corpus the string strategy draws from (the vendored
/// proptest shim generates ASCII only, so coverage of 2-, 3-, and 4-byte
/// sequences is injected from a pool).
const UTF8_POOL: [&str; 8] = [
    "",
    "plain ascii",
    "héllo wörld",
    "Σ*-encoding",
    "日本語のテキスト",
    "𝛑-tractable 𝔹⁺",
    "naïve café",
    "\u{10FFFF} max scalar",
];

/// Decode one strategy tuple into a `Value`, steering extremes in.
fn value_from((tag, i, pick): (u8, i64, usize)) -> Value {
    match tag % 4 {
        0 => Value::Int(i),
        1 => Value::Int([i64::MIN, i64::MAX, 0, -1][pick % 4]),
        2 => Value::str(UTF8_POOL[pick % UTF8_POOL.len()]),
        _ => Value::str(format!("{}{}", UTF8_POOL[pick % UTF8_POOL.len()], i)),
    }
}

proptest! {
    /// Arbitrary optional rows (tombstones included) roundtrip through
    /// the codec byte-for-byte.
    #[test]
    fn codec_roundtrips_arbitrary_rows(
        spec in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((any::<u8>(), any::<i64>(), 0usize..16), 0..5)),
            0..20
        )
    ) {
        let slots: Vec<Option<Vec<Value>>> = spec
            .into_iter()
            .map(|(live, cells)| {
                live.then(|| cells.into_iter().map(value_from).collect())
            })
            .collect();
        let mut w = Writer::new();
        w.usize(slots.len());
        for slot in &slots {
            w.opt_row(slot.as_ref());
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let n = r.count(1).expect("count");
        prop_assert_eq!(n, slots.len());
        let mut row = Vec::new();
        for slot in &slots {
            let live = r.opt_row_into(&mut row).expect("roundtrip");
            prop_assert_eq!(&live.then(|| row.clone()), slot);
        }
        prop_assert!(r.is_exhausted(), "no trailing bytes");
    }

    /// Whole-snapshot roundtrip equals the cold-rebuilt oracle on every
    /// query — the Π-once contract at property-test scale. The state
    /// has random deletes among built and inserted rows and multi-byte
    /// `Str` cells, so a body carries a bitmap with dead slots, `Str`
    /// runs whose dead cells were left out, and placeholders come back
    /// at the dead slots; the sharded twin checks global ids too.
    #[test]
    fn snapshot_roundtrip_matches_cold_rebuild(
        keys in prop::collection::vec((0i64..200, 0usize..16), 1..60),
        inserts in prop::collection::vec((0i64..200, 0usize..16), 0..20),
        deletes in prop::collection::vec(0usize..80, 0..25),
        probes in prop::collection::vec(0i64..220, 1..10)
    ) {
        let schema = Schema::new(&[("k", ColType::Int), ("tag", ColType::Str)]);
        let row = |&(k, p): &(i64, usize)| {
            vec![Value::Int(k), Value::str(UTF8_POOL[p % UTF8_POOL.len()])]
        };
        let rel = Relation::from_rows(schema, keys.iter().map(row).collect()).expect("valid rows");
        let one = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 1, &[0, 1])
            .expect("valid sharding");
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 1 }, 3, &[0, 1])
            .expect("valid sharding");
        for spec in &inserts {
            one.insert(row(spec)).expect("admitted");
            live.insert(row(spec)).expect("admitted");
        }
        let slots = keys.len() + inserts.len();
        for d in deletes {
            one.delete(d % slots).expect("no sink to fail");
            live.delete(d % slots).expect("no sink to fail");
        }
        let (one, sr) = (one.to_sharded(), live.to_sharded());

        // An unsharded relation is one shard: its rows, tombstones and
        // ids come back, and write back the same bytes.
        let bytes = Snapshot::from(one.clone()).to_bytes();
        let warm = Snapshot::from_bytes(&bytes).expect("own bytes load");
        prop_assert_eq!(warm.to_bytes(), bytes);
        let warm = warm.state;
        prop_assert!(
            warm.shards()[0].slots().eq(one.shards()[0].slots()),
            "the same rows and tombstones"
        );
        prop_assert_eq!(warm.id_map(), one.id_map());
        // Cold oracle: rebuild Π from the surviving rows.
        let cold = IndexedRelation::build(&warm.to_relation(), &[0, 1]).expect("rebuild");

        let sharded = Snapshot::from_bytes(&Snapshot::from(sr.clone()).to_bytes())
            .expect("own bytes load")
            .state;
        prop_assert_eq!(sharded.id_map(), sr.id_map());

        let mut queries = Vec::new();
        for k in probes {
            queries.push(SelectionQuery::point(0, k));
            queries.push(SelectionQuery::range_closed(0, k - 5, k + 5));
        }
        for s in UTF8_POOL {
            queries.push(SelectionQuery::point(1, s));
        }
        for q in &queries {
            prop_assert_eq!(warm.answer(q), cold.answer(q), "{:?}", q);
            prop_assert_eq!(sharded.matching_ids(q), sr.matching_ids(q), "{:?}", q);
        }
    }

    /// Loading arbitrary bytes returns a typed error, never a panic.
    #[test]
    fn loading_random_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..400)
    ) {
        let _ = Snapshot::from_bytes(&bytes);
    }

    /// Same, with a valid magic + version prefix so the parse gets past
    /// the header checks, at any version this binary reads: the older
    /// versions' reader sees arbitrary content too.
    #[test]
    fn loading_random_headed_bodies_never_panics(
        version in 1..=FORMAT_VERSION,
        body in prop::collection::vec(any::<u8>(), 0..300)
    ) {
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&version.to_le_bytes());
        data.extend_from_slice(&body);
        let _ = Snapshot::from_bytes(&data);

        // And with a forged-valid checksum, so section-table and payload
        // parsing run on arbitrary content.
        let mut forged = MAGIC.to_vec();
        forged.extend_from_slice(&version.to_le_bytes());
        forged.extend_from_slice(&body);
        let sum = checksum(version, &forged);
        forged.extend_from_slice(&sum.to_le_bytes());
        let _ = Snapshot::from_bytes(&forged);
    }

    /// Every truncated prefix and every single-byte corruption of a valid
    /// snapshot is rejected with an error (or, for corruptions the
    /// checksum provably cannot miss at these sizes, loads as *something*)
    /// — and never panics. The state has random deletes and multi-byte
    /// `Str` cells, so cuts and flips land in bitmaps, `i64` runs, arenas
    /// and end offsets alike; with the checksum forged valid, a flip
    /// reaches the section decoders themselves.
    #[test]
    fn truncations_and_flips_never_panic(
        cells in prop::collection::vec((any::<i64>(), 0usize..16), 1..40),
        deletes in prop::collection::vec(0usize..40, 0..12),
        cut_seed in any::<usize>(),
        flip_seed in any::<usize>(),
        xor in 1u8..=255
    ) {
        let schema = Schema::new(&[("k", ColType::Int), ("tag", ColType::Str)]);
        let rows = cells
            .iter()
            .map(|&(k, p)| vec![Value::Int(k), Value::str(UTF8_POOL[p % UTF8_POOL.len()])])
            .collect();
        let rel = Relation::from_rows(schema, rows).expect("valid rows");
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 1, &[0, 1])
            .expect("valid sharding");
        for d in deletes {
            live.delete(d % cells.len()).expect("no sink to fail");
        }
        let good = Snapshot::from(live.to_sharded()).to_bytes();

        let cut = cut_seed % good.len();
        prop_assert!(Snapshot::from_bytes(&good[..cut]).is_err(), "prefix {cut} accepted");

        let mut flipped = good.clone();
        let at = flip_seed % flipped.len();
        flipped[at] ^= xor;
        let _ = Snapshot::from_bytes(&flipped); // must not panic
        let body = flipped.len() - 8;
        let sum = checksum(FORMAT_VERSION, &flipped[..body]);
        flipped[body..].copy_from_slice(&sum.to_le_bytes());
        let _ = Snapshot::from_bytes(&flipped); // nor past the checksum
        prop_assert!(Snapshot::from_bytes(&good).is_ok(), "pristine bytes load");
    }
}
