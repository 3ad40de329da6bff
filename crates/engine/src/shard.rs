//! Horizontal partitioning: one logical relation, `S` indexed shards.
//!
//! `Π(D)` from the paper scales out by splitting `D` into shards and
//! preprocessing each independently — preprocessing stays PTIME (it is a
//! disjoint union of per-shard builds), and query answering gains the
//! parallel dimension the NC claim is about: shards can be probed
//! concurrently, and shard-key routing often proves most shards
//! irrelevant without touching them.
//!
//! A [`ShardedRelation`] is the immutable `Π(D)`: what
//! [`ShardedRelation::build`] and a snapshot load produce, and what
//! [`crate::live::LiveRelation::to_sharded`] copies out. It is never updated in
//! place and never served: [`crate::live::LiveRelation::from_sharded`]
//! takes it over for both, and updates stay incremental there (one
//! shard per tuple).
//!
//! # The interval property
//!
//! The shards relevant to a selection query always form **one run of
//! consecutive shard indices** (possibly empty), so routing returns a
//! `Range<usize>` and never builds a set. Proof sketch, by induction on
//! the query tree:
//!
//! * A leaf that does not constrain the shard key — any conjunct on
//!   another column, or a shard-key *range* under [`ShardBy::Hash`],
//!   where neighbouring keys scatter — keeps every shard: `0..S`.
//! * A shard-key *point* lives in exactly one shard under either
//!   partitioning: `s..s + 1`.
//! * A shard-key *range* under [`ShardBy::Range`] keeps
//!   `shard(lo)..=shard(hi)`: the split points are ascending, so
//!   `shard(·)` is monotone in the key and every key between the bounds
//!   lands between their shards. An unbounded side extends to the first
//!   or last shard; an exclusive bound is treated as inclusive (a
//!   superset, never a miss); `lo > hi` gives an empty run.
//! * A conjunction needs one tuple to satisfy both sides, so it keeps
//!   the intersection of their runs — and the intersection of two
//!   intervals is an interval (empty when they are disjoint, e.g. two
//!   contradictory shard-key points: nothing is probed and the answer is
//!   `false` / no rows).
//!
//! The run is a superset of the shards holding matches, so routing can
//! prune but never drop an answer. A `#[cfg(test)]` oracle (the per-shard
//! Boolean mask this replaced) checks the equality as sets on seeded
//! random queries.

use crate::error::EngineError;
use crate::idmap::IdMap;
use pitract_core::cost::Meter;
use pitract_core::hash::Fnv64;
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{Relation, RowRef, Schema, SelectionQuery, Value, ValueRef};
use std::ops::{Bound, Range};

/// The pinned shard-routing hash: FNV-1a 64 over the value's canonical
/// encoding (the same byte layout as `Encode`, fed incrementally so the
/// per-query hot path never allocates). Deliberately *not*
/// `DefaultHasher` — see [`ShardedRelation::shard_of`].
fn shard_hash(value: ValueRef<'_>) -> u64 {
    let mut h = Fnv64::new();
    match value {
        ValueRef::Int(i) => {
            h.write(&[0]);
            h.write(&i.to_le_bytes());
        }
        ValueRef::Str(s) => {
            h.write(&[1]);
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
    }
    h.finish()
}

/// The one routing function: which of `shard_count` shards a shard-key
/// `value` belongs to under `shard_by`. Shared by
/// [`ShardedRelation::shard_of`], the [`ShardedRelation::from_parts`]
/// membership validation, and the live serving layer
/// ([`crate::live::LiveRelation`]) so none of them can diverge.
pub(crate) fn route_shard(shard_by: &ShardBy, shard_count: usize, value: ValueRef<'_>) -> usize {
    match shard_by {
        ShardBy::Hash { .. } => (shard_hash(value) % shard_count as u64) as usize,
        ShardBy::Range { splits, .. } => splits.partition_point(|s| s.as_ref() <= value),
    }
}

/// The partitioning function assigning each tuple to a shard.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardBy {
    /// Shard `hash(t[col]) mod S` — uniform spread, point-routable.
    Hash {
        /// The shard-key column.
        col: usize,
    },
    /// Range partitioning on `col`: shard `i` holds tuples with
    /// `splits[i-1] ≤ t[col] < splits[i]` (first/last shard unbounded
    /// below/above). `splits` must be strictly ascending with exactly
    /// `S - 1` entries — both point- and range-routable.
    Range {
        /// The shard-key column.
        col: usize,
        /// The `S - 1` ascending split points.
        splits: Vec<Value>,
    },
}

impl ShardBy {
    /// The shard-key column.
    pub fn col(&self) -> usize {
        match self {
            ShardBy::Hash { col } | ShardBy::Range { col, .. } => *col,
        }
    }
}

/// A relation hash/range-partitioned across `S` independently indexed
/// shards, with global row ids stable under deletes: the immutable
/// `Π(D)` (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardedRelation {
    schema: Schema,
    shard_by: ShardBy,
    shards: Vec<IndexedRelation>,
    ids: IdMap,
}

impl ShardedRelation {
    /// Partition `relation` into `shard_count` shards and index `cols` on
    /// each shard (the per-shard `Π`). PTIME: one pass routes every row
    /// on its shard-key cell into one part vector — row `i` keeps global
    /// id `i`, and a shard's local ids are dense in arrival order. The id
    /// maps are sized and filled from that vector, and
    /// [`IndexedRelation::build_split`] copies the relation's columns by
    /// it into exactly-sized shard columns, one column at a time, and
    /// builds every shard, one sort per indexed column. No row is cloned
    /// or staged, and no id is looked up.
    pub fn build(
        relation: &Relation,
        shard_by: ShardBy,
        shard_count: usize,
        cols: &[usize],
    ) -> Result<Self, EngineError> {
        let schema = relation.schema();
        validate_shard_by(schema, &shard_by, shard_count)?;
        IndexedRelation::check_columns(schema, cols)?;
        let key_col = shard_by.col();
        // A shard index fits a `u32`: each shard is a heap-allocated
        // relation, and 2³² of them do not fit in memory.
        let part: Vec<u32> = relation
            .rows()
            .map(|row| route_shard(&shard_by, shard_count, row.get(key_col)) as u32)
            .collect();
        let ids = IdMap::assign(shard_count, &part);
        let shards = IndexedRelation::build_split(relation, shard_count, part, cols)?;
        Ok(ShardedRelation {
            schema: schema.clone(),
            shard_by,
            shards,
            ids,
        })
    }

    /// Schema of the logical relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (read-only; used by the batch executor).
    pub fn shards(&self) -> &[IndexedRelation] {
        &self.shards
    }

    /// Live tuples per shard (the balance diagnostic).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(IndexedRelation::len).collect()
    }

    /// Total live tuples.
    pub fn len(&self) -> usize {
        self.ids.live()
    }

    /// Total row slots ever assigned across all shards — live rows plus
    /// tombstones. This is what a full scan must walk, so the planner
    /// estimates scans against it (estimating against [`Self::len`] under-
    /// counted after heavy churn and mis-ranked scan vs index paths).
    pub fn slot_count(&self) -> usize {
        self.shards.iter().map(IndexedRelation::slot_count).sum()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partitioning function.
    pub fn shard_by(&self) -> &ShardBy {
        &self.shard_by
    }

    /// Which shard a tuple with shard-key `value` lives in.
    ///
    /// Hash routing uses a **pinned** hash (FNV-1a 64 over the value's
    /// canonical `Encode` bytes), not `std`'s `DefaultHasher`: the std
    /// algorithm is unspecified and may change between Rust releases,
    /// which would silently re-route every key of a persisted
    /// `ShardBy::Hash` snapshot loaded by a newer binary. The routing
    /// function is part of the on-disk contract now, so it must be
    /// stable across toolchains.
    pub fn shard_of(&self, value: &Value) -> usize {
        route_shard(&self.shard_by, self.shards.len(), value.as_ref())
    }

    /// The live tuple under a global row id: its location is found in
    /// the id maps, and the shard's live bit says whether it is live.
    pub fn row(&self, gid: usize) -> Option<RowRef<'_>> {
        let (shard, local) = self.ids.location(gid)?;
        self.shards[shard].row(local)
    }

    /// Which shards could possibly hold a tuple matching `q` — always one
    /// run of consecutive shard indices (see the module docs).
    ///
    /// Every conjunct that constrains the shard-key column narrows the
    /// run: a point selection pins a single shard under either
    /// partitioning; a range selection pins a contiguous shard interval
    /// under range partitioning. Conjuncts on other columns (and ranges
    /// under hash partitioning) keep the run unchanged, so the result is
    /// always a superset of the shards with matches — routing can prune,
    /// never drop answers.
    pub fn relevant_shards(&self, q: &SelectionQuery) -> Range<usize> {
        relevant_shards_for(&self.shard_by, self.shards.len(), q)
    }

    /// Boolean answer, probing only the relevant shards sequentially.
    /// (The parallel path is [`crate::pool::PooledExecutor`].)
    pub fn answer(&self, q: &SelectionQuery) -> bool {
        let meter = Meter::new();
        self.shards[self.relevant_shards(q)]
            .iter()
            .any(|shard| shard.answer_metered(q, &meter))
    }

    /// Global ids (ascending) of all live rows matching `q`.
    pub fn matching_ids(&self, q: &SelectionQuery) -> Vec<usize> {
        let meter = Meter::new();
        let mut ids: Vec<usize> = self
            .relevant_shards(q)
            .flat_map(|s| {
                self.shards[s]
                    .matching_ids_metered(q, &meter)
                    .into_iter()
                    .map(move |local| self.ids.global_ids(s)[local])
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Export all live tuples as one relation (shard-major order; a
    /// test/diagnostic aid), copied cell by cell out of the shards.
    #[allow(clippy::expect_used)]
    pub fn to_relation(&self) -> Relation {
        let mut relation = Relation::new(self.schema.clone());
        for row in self.shards.iter().flat_map(|s| s.slots().flatten()) {
            relation
                .insert_tuple(row)
                // lint:allow(no-unwrap-in-serving): every row came out of a validated shard
                .expect("shards hold validated rows");
        }
        relation
    }

    /// The global-id map: per shard local → global, tombstones
    /// included, and the next global id (persistence accessor:
    /// `pitract-store` serializes it so reloaded relations keep the same
    /// global ids).
    pub fn id_map(&self) -> &IdMap {
        &self.ids
    }

    /// Reassemble a `ShardedRelation` from previously exported parts —
    /// the warm-start path used by `pitract-store` when loading a
    /// snapshot. `ids` has passed its own check ([`IdMap::from_parts`]);
    /// this adds the partitioning invariants of [`Self::build`] and the
    /// shards' half of the id maps, so a structurally corrupt snapshot is
    /// rejected instead of producing a relation that answers queries
    /// differently from the original. The id map's live count becomes
    /// the rows the shards hold.
    pub fn from_parts(
        schema: Schema,
        shard_by: ShardBy,
        shards: Vec<IndexedRelation>,
        ids: IdMap,
    ) -> Result<Self, EngineError> {
        let mut relation = ShardedRelation {
            schema,
            shard_by,
            shards,
            ids,
        };
        relation.check_shards()?;
        let live = relation.shards.iter().map(IndexedRelation::len).sum();
        relation.ids.set_live(live);
        Ok(relation)
    }

    /// Assemble parts that uphold every invariant by construction — a
    /// live relation's copy under every shard lock
    /// ([`crate::live::LiveRelation::to_sharded`]).
    /// Debug builds still run the full check.
    pub(crate) fn from_consistent(
        schema: Schema,
        shard_by: ShardBy,
        shards: Vec<IndexedRelation>,
        ids: IdMap,
    ) -> Self {
        let relation = ShardedRelation {
            schema,
            shard_by,
            shards,
            ids,
        };
        debug_assert_eq!(relation.ids.check(), Ok(()));
        debug_assert_eq!(relation.check_shards(), Ok(()));
        debug_assert_eq!(relation.ids.live(), relation.shard_sizes().iter().sum());
        relation
    }

    /// The shards' half of the invariants: the partitioning is valid,
    /// every shard has the relation's schema, every live row routes to
    /// the shard holding it, and each shard has one global id per row
    /// slot. Which ids are live is then the shards' live bits.
    fn check_shards(&self) -> Result<(), EngineError> {
        let shards = &self.shards;
        validate_shard_by(&self.schema, &self.shard_by, shards.len())?;
        let inconsistent = |msg: String| Err(EngineError::InconsistentSnapshot(msg));
        if self.ids.shard_count() != shards.len() {
            return inconsistent(format!(
                "{} shards but {} global-id maps",
                shards.len(),
                self.ids.shard_count()
            ));
        }
        let key_col = self.shard_by.col();
        for (s, shard) in shards.iter().enumerate() {
            if shard.schema() != &self.schema {
                return inconsistent(format!("shard {s} schema differs"));
            }
            // Every live row must actually route to the shard holding it:
            // a misplaced row would be invisible to shard-key queries
            // (routing prunes to the shard the key *should* be in).
            for row in shard.slots().flatten() {
                let expect = route_shard(&self.shard_by, shards.len(), row.get(key_col));
                if expect != s {
                    return inconsistent(format!(
                        "shard {s} holds a row whose shard key routes to shard {expect}"
                    ));
                }
            }
            if self.ids.global_ids(s).len() != shard.slot_count() {
                return inconsistent(format!(
                    "shard {s} has {} row slots but {} global ids",
                    shard.slot_count(),
                    self.ids.global_ids(s).len()
                ));
            }
        }
        Ok(())
    }

    /// Decompose into owned parts — the exact inverse of
    /// [`Self::from_parts`]. Used by the live serving layer
    /// ([`crate::live::LiveRelation`]) to take ownership of the shards so
    /// each can sit behind its own lock.
    pub fn into_parts(self) -> (Schema, ShardBy, Vec<IndexedRelation>, IdMap) {
        (self.schema, self.shard_by, self.shards, self.ids)
    }
}

/// The routing-prune computation behind [`ShardedRelation::relevant_shards`],
/// shared with the live serving layer ([`crate::live::LiveRelation`]) and
/// the batch router so no path can prune differently: one walk of the
/// `And` tree, intersecting intervals on the way up, no allocation.
pub(crate) fn relevant_shards_for(
    shard_by: &ShardBy,
    shard_count: usize,
    q: &SelectionQuery,
) -> Range<usize> {
    let shard_of = |v: &Value| route_shard(shard_by, shard_count, v.as_ref());
    match q {
        SelectionQuery::And(a, b) => {
            let a = relevant_shards_for(shard_by, shard_count, a);
            let b = relevant_shards_for(shard_by, shard_count, b);
            let start = a.start.max(b.start);
            // Disjoint runs intersect to an empty one (`end == start`).
            start..a.end.min(b.end).max(start)
        }
        SelectionQuery::Point { col, value } if *col == shard_by.col() => {
            let keep = shard_of(value);
            keep..keep + 1
        }
        SelectionQuery::Range { col, lo, hi }
            if *col == shard_by.col() && matches!(shard_by, ShardBy::Range { .. }) =>
        {
            let first = match lo {
                Bound::Included(v) | Bound::Excluded(v) => shard_of(v),
                Bound::Unbounded => 0,
            };
            let end = match hi {
                Bound::Included(v) | Bound::Excluded(v) => shard_of(v) + 1,
                Bound::Unbounded => shard_count,
            };
            // `lo > hi` matches nothing: an empty run, not an inverted one.
            first..end.max(first)
        }
        _ => 0..shard_count,
    }
}

/// The build-time partitioning checks, shared by [`ShardedRelation::build`],
/// [`ShardedRelation::from_parts`], and [`crate::live::LiveRelation`].
pub(crate) fn validate_shard_by(
    schema: &Schema,
    shard_by: &ShardBy,
    shard_count: usize,
) -> Result<(), EngineError> {
    if shard_count == 0 {
        return Err(EngineError::NoShards);
    }
    let arity = schema.arity();
    if shard_by.col() >= arity {
        return Err(EngineError::ShardColumnOutOfRange {
            col: shard_by.col(),
            arity,
        });
    }
    if let ShardBy::Range { col, splits } = shard_by {
        if splits.len() + 1 != shard_count {
            return Err(EngineError::SplitCount {
                shard_count,
                got: splits.len(),
            });
        }
        // A split whose variant mismatches the column type compares via
        // the cross-variant tie-breaker (all Ints < all Strs), so it can
        // never separate tuples of the column's actual type — reject it
        // instead of silently accepting a skewed partitioning.
        let expected = schema.col_type(*col);
        if let Some(position) = splits.iter().position(|s| !expected.admits(s.as_ref())) {
            return Err(EngineError::SplitTypeMismatch { position, expected });
        }
        if splits.windows(2).any(|w| w[0] >= w[1]) {
            return Err(EngineError::SplitsNotAscending);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveRelation;
    use pitract_relation::{ColType, Columns};

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("city", ColType::Str)])
    }

    fn relation(n: i64) -> Relation {
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema(), rows).unwrap()
    }

    fn int_splits(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn build_validates_inputs() {
        let rel = relation(10);
        assert!(ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 0, &[0]).is_err());
        assert!(ShardedRelation::build(&rel, ShardBy::Hash { col: 9 }, 2, &[0]).is_err());
        assert!(ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[7]).is_err());
        let wrong_arity = ShardBy::Range {
            col: 0,
            splits: int_splits(&[5]),
        };
        assert!(ShardedRelation::build(&rel, wrong_arity, 4, &[0]).is_err());
        let unsorted = ShardBy::Range {
            col: 0,
            splits: int_splits(&[7, 3, 5]),
        };
        assert!(ShardedRelation::build(&rel, unsorted, 4, &[0]).is_err());
    }

    #[test]
    fn build_errors_are_typed() {
        let rel = relation(10);
        assert_eq!(
            ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 0, &[0]).unwrap_err(),
            EngineError::NoShards
        );
        assert_eq!(
            ShardedRelation::build(&rel, ShardBy::Hash { col: 9 }, 2, &[0]).unwrap_err(),
            EngineError::ShardColumnOutOfRange { col: 9, arity: 2 }
        );
        let unsorted = ShardBy::Range {
            col: 0,
            splits: int_splits(&[7, 3, 5]),
        };
        assert_eq!(
            ShardedRelation::build(&rel, unsorted, 4, &[0]).unwrap_err(),
            EngineError::SplitsNotAscending
        );
    }

    #[test]
    fn range_splits_must_match_shard_key_type() {
        // Regression: a Str split on an Int column was silently accepted.
        // Every Int sorts below every Str, so such a split can never
        // separate the column's actual values — the partitioning skews
        // instead of failing.
        let rel = relation(10);
        let mixed = ShardBy::Range {
            col: 0,
            splits: vec![Value::Int(5), Value::str("zzz")],
        };
        assert_eq!(
            ShardedRelation::build(&rel, mixed, 3, &[0]).unwrap_err(),
            EngineError::SplitTypeMismatch {
                position: 1,
                expected: ColType::Int,
            }
        );
        // Same check on a Str shard key with an Int split.
        let mixed = ShardBy::Range {
            col: 1,
            splits: vec![Value::Int(5)],
        };
        assert_eq!(
            ShardedRelation::build(&rel, mixed, 2, &[1]).unwrap_err(),
            EngineError::SplitTypeMismatch {
                position: 0,
                expected: ColType::Str,
            }
        );
        // Homogeneous, correctly typed splits still build.
        let ok = ShardBy::Range {
            col: 1,
            splits: vec![Value::str("city5")],
        };
        assert!(ShardedRelation::build(&rel, ok, 2, &[1]).is_ok());
    }

    /// Re-export every shard the way `pitract-store` loads a snapshot:
    /// each slot, tombstones included, through `Columns::push_slot`, then
    /// the trees rebuilt by `IndexedRelation::from_columns` on the same
    /// columns. Every live key of every indexed column must come back
    /// with the posting the source holds, and no other id may be posted.
    fn export_shards(sr: &ShardedRelation) -> Vec<IndexedRelation> {
        sr.shards()
            .iter()
            .map(|s| {
                let mut rows = Columns::new(s.schema().clone());
                for slot in s.slots() {
                    rows.push_slot(slot.map(RowRef::to_vec).as_deref()).unwrap();
                }
                let cols = s.indexed_columns();
                let reloaded = IndexedRelation::from_columns(rows, &cols).unwrap();
                assert_eq!(reloaded.indexed_columns(), cols);
                let everything = Bound::Unbounded;
                for &col in &cols {
                    assert_eq!(
                        reloaded.row_ids_in_range(col, &everything, &everything),
                        s.row_ids_in_range(col, &everything, &everything),
                        "column {col} posts the same ids"
                    );
                    for row in s.slots().flatten() {
                        let key = row.get(col).to_value();
                        assert_eq!(reloaded.row_ids_eq(col, &key), s.row_ids_eq(col, &key));
                    }
                }
                reloaded
            })
            .collect()
    }

    #[test]
    fn from_parts_roundtrips_exported_parts() {
        let live = LiveRelation::build(
            &relation(40),
            ShardBy::Range {
                col: 0,
                splits: int_splits(&[10, 25]),
            },
            3,
            &[0, 1],
        )
        .unwrap();
        live.delete(7).unwrap();
        live.insert(vec![Value::Int(500), Value::str("late")])
            .unwrap();
        let sr = live.to_sharded();

        let ids = sr.id_map();
        let maps = (0..ids.shard_count())
            .map(|s| ids.global_ids(s).to_vec())
            .collect();
        let ids = IdMap::from_parts(maps, ids.next_gid()).unwrap();
        let rebuilt = ShardedRelation::from_parts(
            sr.schema().clone(),
            sr.shard_by().clone(),
            export_shards(&sr),
            ids,
        )
        .unwrap();

        assert_eq!(rebuilt.id_map(), sr.id_map(), "the live count too");
        assert_eq!(rebuilt.len(), sr.len());
        for q in [
            SelectionQuery::point(0, 7i64),
            SelectionQuery::point(0, 500i64),
            SelectionQuery::range_closed(0, 5i64, 12i64),
            SelectionQuery::point(1, "late"),
        ] {
            assert_eq!(rebuilt.answer(&q), sr.answer(&q), "{q:?}");
            assert_eq!(rebuilt.matching_ids(&q), sr.matching_ids(&q), "{q:?}");
        }
    }

    #[test]
    fn from_parts_rejects_misrouted_rows() {
        // A row sitting in a shard its key does not route to is invisible
        // to shard-key queries; the maps can still be mutually consistent,
        // so membership needs its own check.
        let probe =
            ShardedRelation::build(&relation(0), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let stray = (0..100i64)
            .find(|&k| probe.shard_of(&Value::Int(k)) == 1)
            .expect("some key routes to shard 1");
        let one_row =
            Relation::from_rows(schema(), vec![vec![Value::Int(stray), Value::str("x")]]).unwrap();
        let misplaced = IndexedRelation::build(&one_row, &[0]).unwrap();
        let empty = IndexedRelation::build(&relation(0), &[0]).unwrap();
        let err = ShardedRelation::from_parts(
            schema(),
            ShardBy::Hash { col: 0 },
            vec![misplaced, empty], // stray sits in shard 0, routes to 1
            IdMap::from_parts(vec![vec![0], vec![]], 1).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InconsistentSnapshot(_)), "{err}");
    }

    /// The shards' half of the id-map check (the maps' own half is
    /// `idmap::tests::from_parts_rejects_inconsistent_maps`), and what is
    /// no longer a half: which ids are live is the shards' bits.
    #[test]
    fn from_parts_rejects_inconsistent_maps() {
        let sr = ShardedRelation::build(&relation(10), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let rebuild = |shards: Vec<IndexedRelation>, ids: IdMap| {
            ShardedRelation::from_parts(sr.schema().clone(), sr.shard_by().clone(), shards, ids)
        };
        let maps = |sr: &ShardedRelation| -> Vec<Vec<usize>> {
            (0..2).map(|s| sr.id_map().global_ids(s).to_vec()).collect()
        };

        // Wrong number of global-id maps.
        let one_map = IdMap::from_parts(vec![(0..10).collect()], 10);
        let err = rebuild(export_shards(&sr), one_map.unwrap()).unwrap_err();
        assert!(err.to_string().contains("2 shards but 1"), "{err}");

        // A shard with a row slot its map does not name.
        let mut short = maps(&sr);
        let (shard, _) = sr.id_map().location(3).unwrap();
        short[shard].retain(|&gid| gid != 3);
        let err = rebuild(export_shards(&sr), IdMap::from_parts(short, 10).unwrap()).unwrap_err();
        assert!(err.to_string().contains("row slots but"), "{err}");

        // A row its shard has deleted is a dead id, not an inconsistency.
        let mut shards = export_shards(&sr);
        let (shard, local) = sr.id_map().location(3).unwrap();
        shards[shard].delete(local).unwrap();
        let dead = rebuild(shards, IdMap::from_parts(maps(&sr), 10).unwrap()).unwrap();
        assert!(dead.row(3).is_none());
        assert_eq!((dead.len(), dead.id_map().live()), (9, 9));

        // The consistent parts still load.
        assert!(rebuild(export_shards(&sr), sr.id_map().clone()).is_ok());
    }

    #[test]
    fn every_tuple_lands_in_exactly_one_shard() {
        for shard_by in [
            ShardBy::Hash { col: 0 },
            ShardBy::Range {
                col: 0,
                splits: int_splits(&[25, 50, 75]),
            },
        ] {
            let sr = ShardedRelation::build(&relation(100), shard_by, 4, &[0, 1]).unwrap();
            assert_eq!(sr.len(), 100);
            assert_eq!(sr.shard_sizes().iter().sum::<usize>(), 100);
            assert_eq!(sr.to_relation().len(), 100);
        }
    }

    #[test]
    fn range_partitioning_respects_split_points() {
        let sr = ShardedRelation::build(
            &relation(100),
            ShardBy::Range {
                col: 0,
                splits: int_splits(&[10, 60]),
            },
            3,
            &[0],
        )
        .unwrap();
        // Shard 0: v < 10 (10 rows); shard 1: 10 ≤ v < 60 (50); shard 2: rest.
        assert_eq!(sr.shard_sizes(), vec![10, 50, 40]);
        assert_eq!(sr.shard_of(&Value::Int(9)), 0);
        assert_eq!(sr.shard_of(&Value::Int(10)), 1, "split point goes right");
        assert_eq!(sr.shard_of(&Value::Int(10_000)), 2);
    }

    #[test]
    fn answers_match_scan_oracle_on_all_query_shapes() {
        let rel = relation(200);
        for shard_by in [
            ShardBy::Hash { col: 1 },
            ShardBy::Range {
                col: 0,
                splits: int_splits(&[50, 100, 150]),
            },
        ] {
            let sr = ShardedRelation::build(&rel, shard_by, 4, &[0, 1]).unwrap();
            let queries = [
                SelectionQuery::point(0, 123i64),
                SelectionQuery::point(0, 999i64),
                SelectionQuery::point(1, "city7"),
                SelectionQuery::range_closed(0, 40i64, 55i64),
                SelectionQuery::range_closed(0, 900i64, 950i64),
                SelectionQuery::and(
                    SelectionQuery::point(1, "city3"),
                    SelectionQuery::range_closed(0, 100i64, 160i64),
                ),
            ];
            for q in &queries {
                assert_eq!(sr.answer(q), rel.eval_scan(q), "{q:?}");
            }
        }
    }

    #[test]
    fn point_queries_route_to_one_shard() {
        let hash =
            ShardedRelation::build(&relation(64), ShardBy::Hash { col: 0 }, 8, &[0]).unwrap();
        assert_eq!(
            hash.relevant_shards(&SelectionQuery::point(0, 7i64)).len(),
            1
        );
        // A non-key query touches every shard.
        assert_eq!(
            hash.relevant_shards(&SelectionQuery::point(1, "city1"))
                .len(),
            8
        );
        // Ranges do not route under hash partitioning.
        assert_eq!(
            hash.relevant_shards(&SelectionQuery::range_closed(0, 1i64, 2i64))
                .len(),
            8
        );
    }

    #[test]
    fn range_queries_route_to_contiguous_shards() {
        let sr = ShardedRelation::build(
            &relation(100),
            ShardBy::Range {
                col: 0,
                splits: int_splits(&[25, 50, 75]),
            },
            4,
            &[0],
        )
        .unwrap();
        assert_eq!(
            sr.relevant_shards(&SelectionQuery::range_closed(0, 30i64, 60i64)),
            1..3
        );
        assert_eq!(sr.relevant_shards(&SelectionQuery::point(0, 80i64)), 3..4);
        let half_open = SelectionQuery::Range {
            col: 0,
            lo: Bound::Unbounded,
            hi: Bound::Excluded(Value::Int(20)),
        };
        assert_eq!(sr.relevant_shards(&half_open), 0..1);
        // A conjunction intersects its conjuncts' shard sets.
        let conj = SelectionQuery::and(
            SelectionQuery::range_closed(0, 30i64, 60i64),
            SelectionQuery::point(0, 40i64),
        );
        assert_eq!(sr.relevant_shards(&conj), 1..2);
        // Contradictory shard-key points prune everything.
        let contradiction = SelectionQuery::and(
            SelectionQuery::point(0, 10i64),
            SelectionQuery::point(0, 90i64),
        );
        assert!(sr.relevant_shards(&contradiction).is_empty());
        assert!(!sr.answer(&contradiction));
    }

    /// The routing this module shipped before intervals: one Boolean per
    /// shard, narrowed conjunct by conjunct over the flattened query.
    /// Kept as the oracle the interval walk is checked against.
    fn relevant_shards_mask(
        shard_by: &ShardBy,
        shard_count: usize,
        q: &SelectionQuery,
    ) -> Vec<usize> {
        let mut mask = vec![true; shard_count];
        for conjunct in q.conjuncts() {
            match conjunct {
                SelectionQuery::Point { col, value } if *col == shard_by.col() => {
                    let keep = route_shard(shard_by, shard_count, value.as_ref());
                    for (i, m) in mask.iter_mut().enumerate() {
                        *m &= i == keep;
                    }
                }
                SelectionQuery::Range { col, lo, hi } if *col == shard_by.col() => {
                    if let ShardBy::Range { .. } = shard_by {
                        let first = match lo {
                            Bound::Included(v) | Bound::Excluded(v) => {
                                route_shard(shard_by, shard_count, v.as_ref())
                            }
                            Bound::Unbounded => 0,
                        };
                        let last = match hi {
                            Bound::Included(v) | Bound::Excluded(v) => {
                                route_shard(shard_by, shard_count, v.as_ref())
                            }
                            Bound::Unbounded => shard_count - 1,
                        };
                        for (i, m) in mask.iter_mut().enumerate() {
                            *m &= first <= i && i <= last;
                        }
                    }
                }
                _ => {}
            }
        }
        (0..shard_count).filter(|&i| mask[i]).collect()
    }

    /// The key domain of the routing property: `-3..40` as an `Int` key,
    /// or zero-padded (so string order is numeric order) as a `Str` key.
    fn key(str_key: bool, v: i64) -> Value {
        if str_key {
            Value::str(format!("k{:02}", v + 3))
        } else {
            Value::Int(v)
        }
    }

    /// One leaf conjunct from four small integers. Kinds 0–6 constrain
    /// the shard key (point; closed, half-open either side, one-sided
    /// and fully unbounded ranges — `lo > hi` included); kind 7 is a
    /// point or range on the other column.
    fn leaf(str_key: bool, kind: u8, a: i64, b: i64) -> SelectionQuery {
        let key_col = usize::from(str_key);
        let k = |v| key(str_key, v);
        let range = |lo, hi| SelectionQuery::Range {
            col: key_col,
            lo,
            hi,
        };
        match kind {
            0 => SelectionQuery::Point {
                col: key_col,
                value: k(a),
            },
            1 => range(Bound::Included(k(a)), Bound::Included(k(b))),
            2 => range(Bound::Included(k(a)), Bound::Excluded(k(b))),
            3 => range(Bound::Excluded(k(a)), Bound::Included(k(b))),
            4 => range(Bound::Unbounded, Bound::Included(k(b))),
            5 => range(Bound::Excluded(k(a)), Bound::Unbounded),
            6 => range(Bound::Unbounded, Bound::Unbounded),
            _ if a % 2 == 0 => SelectionQuery::Point {
                col: 1 - key_col,
                value: key(!str_key, b),
            },
            _ => SelectionQuery::Range {
                col: 1 - key_col,
                lo: Bound::Included(key(!str_key, a.min(b))),
                hi: Bound::Included(key(!str_key, a.max(b))),
            },
        }
    }

    /// Fold leaves into an `And` tree whose shape the `cuts` decide:
    /// left-deep, right-deep and every balanced form in between.
    fn and_tree(
        leaves: &[SelectionQuery],
        cuts: &mut impl Iterator<Item = usize>,
    ) -> SelectionQuery {
        if let [only] = leaves {
            return only.clone();
        }
        let cut = 1 + cuts.next().unwrap_or(0) % (leaves.len() - 1);
        SelectionQuery::and(
            and_tree(&leaves[..cut], cuts),
            and_tree(&leaves[cut..], cuts),
        )
    }

    proptest::proptest! {
        /// The interval equals the mask oracle as a set — and routing by
        /// it never loses an answer — under hash and range partitioning
        /// over 1–9 shards, on `Int` and `Str` keys, for every leaf kind
        /// (values on, next to and far from the split points) in nested
        /// conjunctions of every shape.
        #[test]
        fn interval_routing_equals_the_mask_oracle(
            shard_count in 1usize..10,
            hashed in proptest::prelude::any::<bool>(),
            str_key in proptest::prelude::any::<bool>(),
            leaves in proptest::collection::vec((0u8..8, -3i64..40, -3i64..40), 1..6),
            cuts in proptest::collection::vec(0usize..8, 5)
        ) {
            let key_col = usize::from(str_key);
            let shard_by = if hashed {
                ShardBy::Hash { col: key_col }
            } else {
                // Splits at 4, 8, …: inside the probed domain, so bounds
                // and points land exactly on them.
                let splits = (1..shard_count as i64).map(|i| key(str_key, i * 4)).collect();
                ShardBy::Range { col: key_col, splits }
            };
            let leaves: Vec<SelectionQuery> = leaves
                .iter()
                .map(|&(kind, a, b)| leaf(str_key, kind, a, b))
                .collect();
            let q = and_tree(&leaves, &mut cuts.into_iter());

            let run = relevant_shards_for(&shard_by, shard_count, &q);
            proptest::prop_assert_eq!(
                run.clone().collect::<Vec<_>>(),
                relevant_shards_mask(&shard_by, shard_count, &q),
                "{:?} under {:?}", q, shard_by
            );

            let rows = (-3..40i64).map(|v| vec![Value::Int(v), key(true, v)]).collect();
            let rel = Relation::from_rows(schema(), rows).unwrap();
            let sr = ShardedRelation::build(&rel, shard_by, shard_count, &[0, 1]).unwrap();
            proptest::prop_assert_eq!(sr.answer(&q), rel.eval_scan(&q), "{:?}", q);
            proptest::prop_assert_eq!(sr.matching_ids(&q).len(), rel.count_where(&q), "{:?}", q);
        }
    }

    #[test]
    fn inserts_and_deletes_keep_global_ids_stable() {
        // Updates go through the live layer; the Π(D) it copies out must
        // carry the same global ids, and serving it again must not reuse
        // the ids of deleted rows.
        let sr =
            ShardedRelation::build(&relation(20), ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap();
        let lr = LiveRelation::from_sharded(sr);
        let gid = lr.insert(vec![Value::Int(100), Value::str("new")]).unwrap();
        assert_eq!(gid, 20);
        let removed = lr.delete(5).unwrap().expect("gid 5 live");
        assert_eq!(removed[0], Value::Int(5));
        assert!(lr.delete(5).unwrap().is_none(), "double delete is a no-op");

        let sr = lr.to_sharded();
        assert_eq!(sr.row(gid).unwrap().get(1), Value::str("new"));
        assert!(sr.answer(&SelectionQuery::point(0, 100i64)));
        assert!(!sr.answer(&SelectionQuery::point(0, 5i64)));
        assert_eq!(sr.len(), 20);
        // Other ids are untouched.
        assert_eq!(sr.row(6).unwrap().get(0), Value::Int(6));
        assert!(sr.row(5).is_none());
        assert_eq!(
            sr.matching_ids(&SelectionQuery::range_closed(0, 4i64, 6i64)),
            vec![4, 6]
        );

        // The full check accepts the exported parts unchanged.
        let (schema, shard_by, shards, ids) = sr.into_parts();
        let sr = ShardedRelation::from_parts(schema, shard_by, shards, ids).unwrap();
        assert_eq!(sr.row(gid).unwrap().get(0), Value::Int(100));
        let lr = LiveRelation::from_sharded(sr);
        assert_eq!(
            lr.insert(vec![Value::Int(101), Value::str("next")])
                .unwrap(),
            21,
            "a deleted id is never reused"
        );
    }

    #[test]
    fn matching_ids_are_global_and_sorted() {
        let sr =
            ShardedRelation::build(&relation(30), ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap();
        // Build assigns global ids in row order, so city2 rows are 2,12,22.
        assert_eq!(
            sr.matching_ids(&SelectionQuery::point(1, "city2")),
            vec![2, 12, 22]
        );
        assert_eq!(
            sr.matching_ids(&SelectionQuery::range_closed(0, 4i64, 6i64)),
            vec![4, 5, 6]
        );
    }

    #[test]
    fn single_shard_degenerates_to_indexed_relation() {
        let rel = relation(50);
        let sr = ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 1, &[0]).unwrap();
        assert_eq!(sr.shard_sizes(), vec![50]);
        for q in [
            SelectionQuery::point(0, 25i64),
            SelectionQuery::range_closed(0, 10i64, 12i64),
        ] {
            assert_eq!(sr.answer(&q), rel.eval_scan(&q));
        }
    }

    #[test]
    fn empty_relation_answers_false() {
        let sr =
            ShardedRelation::build(&Relation::new(schema()), ShardBy::Hash { col: 0 }, 4, &[0])
                .unwrap();
        assert!(sr.is_empty());
        assert!(!sr.answer(&SelectionQuery::point(0, 1i64)));
        assert!(sr.matching_ids(&SelectionQuery::point(0, 1i64)).is_empty());
    }
}
