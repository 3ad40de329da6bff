//! The preprocessed relation of Example 1: per-column B⁺-tree secondary
//! indexes.
//!
//! `Π(D)` here is [`IndexedRelation::build`]: for each chosen attribute a
//! B⁺-tree maps column values to posting lists of row ids. After that:
//!
//! * point selections answer in O(log n) (one tree descent — the posting
//!   list's existence *is* the Boolean answer);
//! * range selections answer in O(log n) (descend to the range start and
//!   test non-emptiness);
//! * conjunctions route through one indexed conjunct and verify candidates
//!   (selectivity-dependent, like a real executor — E1 only claims the
//!   polylog bound for the single-column classes the paper defines).
//!
//! The indexes are **maintained incrementally** under inserts and deletes
//! (Section 1's incremental-preprocessing requirement): each update costs
//! O(log n + posting-list edit), not a rebuild.

use crate::query::SelectionQuery;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use pitract_core::cost::Meter;
use pitract_index::bptree::BPlusTree;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;

/// One persisted secondary index: the column it covers plus its
/// ascending `(key, posting list)` entries.
pub type IndexEntries = (usize, Vec<(Value, Vec<usize>)>);

/// Everything that can go wrong building, updating, or reassembling an
/// [`IndexedRelation`].
///
/// `build`, `insert`, and `from_parts` used to return `Result<_, String>`
/// while every layer above (the engine's [`ShardedRelation`] and the
/// store's snapshot loader) had typed errors — so the bottom of the
/// build/insert path forced everything back into prose. Each failure
/// class is now a distinct variant with `From` conversions upward
/// (`EngineError::Indexed`, `StoreError::Indexed`), so callers can match
/// instead of parsing strings.
///
/// [`ShardedRelation`]: https://docs.rs/pitract-engine
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexedError {
    /// An index was requested on a column the schema does not have.
    ColumnOutOfRange {
        /// The offending column index.
        col: usize,
        /// The schema's arity.
        arity: usize,
    },
    /// A row failed schema validation (arity or column-type mismatch).
    RowRejected(String),
    /// `from_parts`: a column appears twice in the supplied indexes.
    DuplicateIndex {
        /// The duplicated column.
        col: usize,
    },
    /// `from_parts`: index keys were not strictly ascending.
    KeysNotAscending {
        /// The index's column.
        col: usize,
    },
    /// `from_parts`: an index key carried an empty posting list (live keys
    /// must post at least one row).
    EmptyPosting {
        /// The index's column.
        col: usize,
        /// Display form of the offending key.
        key: String,
    },
    /// `from_parts`: a posting list's row ids were not strictly ascending.
    PostingNotAscending {
        /// The index's column.
        col: usize,
        /// Display form of the offending key.
        key: String,
    },
    /// `from_parts`: a posting points at a row that is dead, out of range,
    /// or does not hold the posted key.
    DanglingPosting {
        /// The index's column.
        col: usize,
        /// The offending row id.
        id: usize,
    },
    /// `from_parts`: an index does not post exactly the live rows.
    PostingCountMismatch {
        /// The index's column.
        col: usize,
        /// Rows posted by the index.
        posted: usize,
        /// Live rows in the relation.
        live: usize,
    },
}

impl fmt::Display for IndexedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexedError::ColumnOutOfRange { col, arity } => {
                write!(f, "cannot index column {col}: schema has arity {arity}")
            }
            IndexedError::RowRejected(why) => write!(f, "row rejected by schema: {why}"),
            IndexedError::DuplicateIndex { col } => {
                write!(f, "duplicate index on column {col}")
            }
            IndexedError::KeysNotAscending { col } => {
                write!(f, "index on column {col}: keys not strictly ascending")
            }
            IndexedError::EmptyPosting { col, key } => {
                write!(f, "index on column {col}: empty posting for {key}")
            }
            IndexedError::PostingNotAscending { col, key } => {
                write!(
                    f,
                    "index on column {col}: posting ids for {key} not strictly ascending"
                )
            }
            IndexedError::DanglingPosting { col, id } => {
                write!(
                    f,
                    "index on column {col}: posting id {id} does not hold the posted key"
                )
            }
            IndexedError::PostingCountMismatch { col, posted, live } => {
                write!(
                    f,
                    "index on column {col} posts {posted} rows, relation has {live} live"
                )
            }
        }
    }
}

impl std::error::Error for IndexedError {}

/// A relation plus B⁺-tree secondary indexes on selected columns.
#[derive(Debug, Clone)]
pub struct IndexedRelation {
    schema: Schema,
    /// Tombstone row storage: deletes never shift surviving row ids, so
    /// posting lists stay valid.
    rows: Vec<Option<Vec<Value>>>,
    live: usize,
    indexes: HashMap<usize, BPlusTree<Value, Vec<usize>>>,
}

impl IndexedRelation {
    /// Preprocess a relation by building indexes on `cols`. O(n log n) per
    /// indexed column.
    ///
    /// Every entry of `cols` must name a column of the schema; an
    /// out-of-range column is reported as an error instead of panicking
    /// during index maintenance.
    pub fn build(relation: &Relation, cols: &[usize]) -> Result<Self, IndexedError> {
        let arity = relation.schema().arity();
        if let Some(&bad) = cols.iter().find(|&&c| c >= arity) {
            return Err(IndexedError::ColumnOutOfRange { col: bad, arity });
        }
        let mut ir = IndexedRelation {
            schema: relation.schema().clone(),
            rows: Vec::with_capacity(relation.len()),
            live: 0,
            indexes: cols.iter().map(|&c| (c, BPlusTree::new())).collect(),
        };
        for row in relation.rows() {
            ir.insert(row.clone()).expect("source relation is valid");
        }
        Ok(ir)
    }

    /// Schema of the underlying relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Which columns are indexed?
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Insert a tuple, maintaining every index. Returns the row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<usize, IndexedError> {
        self.schema
            .admits(&row)
            .map_err(IndexedError::RowRejected)?;
        let id = self.rows.len();
        for (&col, tree) in &mut self.indexes {
            let key = row[col].clone();
            match tree.get_mut(&key) {
                Some(posting) => posting.push(id),
                None => {
                    tree.insert(key, vec![id]);
                }
            }
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Delete a tuple by row id, maintaining every index. Returns the
    /// removed tuple, or `None` if the id was already deleted/invalid.
    pub fn delete(&mut self, id: usize) -> Option<Vec<Value>> {
        let row = self.rows.get_mut(id)?.take()?;
        for (&col, tree) in &mut self.indexes {
            let key = &row[col];
            let emptied = match tree.get_mut(key) {
                Some(posting) => {
                    posting.retain(|&r| r != id);
                    posting.is_empty()
                }
                None => false,
            };
            if emptied {
                // Prune empty posting lists so "key present in tree" keeps
                // meaning "at least one live tuple has this value".
                tree.remove(key);
            }
        }
        self.live -= 1;
        Some(row)
    }

    /// Live row ids whose `col` equals `value` (empty if none or column
    /// unindexed — callers should check [`IndexedRelation::indexed_columns`]).
    pub fn row_ids_eq(&self, col: usize, value: &Value) -> Vec<usize> {
        self.indexes
            .get(&col)
            .and_then(|t| t.get(value))
            .cloned()
            .unwrap_or_default()
    }

    /// The live tuple stored under `id`, or `None` if `id` was deleted or
    /// never assigned.
    pub fn row(&self, id: usize) -> Option<&[Value]> {
        self.rows.get(id).and_then(|r| r.as_deref())
    }

    /// Live row ids whose `col` falls in `[lo, hi]` (bounds as given),
    /// ascending. Empty if the column is unindexed.
    pub fn row_ids_in_range(&self, col: usize, lo: &Bound<Value>, hi: &Bound<Value>) -> Vec<usize> {
        self.indexes
            .get(&col)
            .map(|tree| ids_in_range(tree, lo, hi))
            .unwrap_or_default()
    }

    /// Enumerate (ascending) the ids of all live rows matching `q`,
    /// routing through the same access paths as [`Self::answer_metered`]:
    /// point probe, range probe, index-nested-loop conjunction, scan.
    ///
    /// This is the enumeration mode of the serving layer: the Boolean
    /// answer is `!ids.is_empty()`, but callers that need the witnesses
    /// (e.g. row-id batch serving in `pitract-engine`) get them directly.
    pub fn matching_ids_metered(&self, q: &SelectionQuery, meter: &Meter) -> Vec<usize> {
        match q {
            SelectionQuery::Point { col, value } => match self.indexes.get(col) {
                Some(tree) => probed(tree, tree.get(value).cloned().unwrap_or_default(), meter),
                None => self.scan_ids_metered(q, meter),
            },
            SelectionQuery::Range { col, lo, hi } => match self.indexes.get(col) {
                Some(tree) => probed(tree, ids_in_range(tree, lo, hi), meter),
                None => self.scan_ids_metered(q, meter),
            },
            SelectionQuery::And(_, _) => match self.driving_conjunct(q) {
                Some(driving) => self
                    .driving_candidates(driving, meter)
                    .iter()
                    .copied()
                    .filter(|&id| {
                        meter.tick();
                        self.rows[id].as_ref().is_some_and(|row| q.matches(row))
                    })
                    .collect(),
                None => self.scan_ids_metered(q, meter),
            },
        }
    }

    /// The conjunct an index-nested-loop drives through
    /// ([`SelectionQuery::driving_conjunct`] over this relation's
    /// indexes): the single routing policy shared by
    /// [`Self::answer_metered`], [`Self::answer_metered_below`] and
    /// [`Self::matching_ids_metered`], and — through the same walk — by
    /// the `pitract-engine` planner.
    fn driving_conjunct<'a>(&self, q: &'a SelectionQuery) -> Option<&'a SelectionQuery> {
        q.driving_conjunct(&|col| self.indexes.contains_key(&col))
    }

    /// Candidate row ids (ascending) produced by probing the driving
    /// conjunct's index, charging one tree descent: a point's posting
    /// list is borrowed as it stands, a range's postings are gathered.
    /// Only called with a point/range conjunct returned by
    /// [`Self::driving_conjunct`].
    fn driving_candidates(&self, driving: &SelectionQuery, meter: &Meter) -> Cow<'_, [usize]> {
        match driving {
            SelectionQuery::Point { col, value } => {
                let tree = &self.indexes[col];
                meter.add(tree_descent_cost(tree));
                Cow::Borrowed(tree.get(value).map_or(&[], Vec::as_slice))
            }
            SelectionQuery::Range { col, lo, hi } => {
                let tree = &self.indexes[col];
                meter.add(tree_descent_cost(tree));
                Cow::Owned(ids_in_range(tree, lo, hi))
            }
            SelectionQuery::And(_, _) => unreachable!("driving conjuncts are leaves"),
        }
    }

    fn scan_ids_metered(&self, q: &SelectionQuery, meter: &Meter) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| {
                // Tombstoned slots are walked too — that is real work the
                // scan performs, so the meter charges it (and the planner
                // estimates scans against slot count, not live count).
                meter.tick();
                let row = slot.as_ref()?;
                q.matches(row).then_some(id)
            })
            .collect()
    }

    /// Answer a Boolean selection query, preferring indexes and falling
    /// back to a scan. The meter prices every comparison / probe.
    pub fn answer_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        match q {
            SelectionQuery::Point { col, value } => match self.indexes.get(col) {
                Some(tree) => tree.get_metered(value, meter).is_some(),
                None => self.scan_metered(q, meter),
            },
            SelectionQuery::Range { col, lo, hi } => match self.indexes.get(col) {
                Some(tree) => {
                    // One descent to the range start; non-emptiness of the
                    // pruned tree range is the answer. Charge the descent.
                    meter.add(tree_descent_cost(tree));
                    tree.any_in_range(as_ref_bound(lo), as_ref_bound(hi))
                }
                None => self.scan_metered(q, meter),
            },
            SelectionQuery::And(_, _) => {
                // Walk the conjunction tree and route through any indexed
                // conjunct — point preferred over range — verifying every
                // candidate against the full predicate. Nested `And` shapes
                // and range-only conjunctions used to degrade to a scan.
                // The point path reads the posting list in place and the
                // range path stays lazy (no candidate collection) so the
                // Boolean answer can exit on the first witness.
                match self.driving_conjunct(q) {
                    Some(point @ SelectionQuery::Point { .. }) => {
                        self.driving_candidates(point, meter).iter().any(|&id| {
                            meter.tick();
                            self.rows[id].as_ref().is_some_and(|row| q.matches(row))
                        })
                    }
                    Some(SelectionQuery::Range { col, lo, hi }) => {
                        let tree = &self.indexes[col];
                        meter.add(tree_descent_cost(tree));
                        for (_, posting) in tree.range(as_ref_bound(lo), as_ref_bound(hi)) {
                            for &id in posting {
                                meter.tick();
                                if self.rows[id].as_ref().is_some_and(|row| q.matches(row)) {
                                    return true;
                                }
                            }
                        }
                        false
                    }
                    _ => self.scan_metered(q, meter),
                }
            }
        }
    }

    /// Unmetered convenience wrapper.
    pub fn answer(&self, q: &SelectionQuery) -> bool {
        self.answer_metered(q, &Meter::new())
    }

    /// [`Self::answer_metered`] restricted to rows with id `< bound` —
    /// the visibility horizon of a snapshot reader: row ids are
    /// assigned in insertion order and never reused, so "the relation
    /// before a run of appends" is exactly the id prefix below the
    /// first appended id. Routes through the same access paths and
    /// short-circuits on the first *visible* witness; posting lists are
    /// ascending, so a point probe checks one id instead of walking the
    /// posting. `usize::MAX` makes every row visible.
    pub fn answer_metered_below(&self, q: &SelectionQuery, meter: &Meter, bound: usize) -> bool {
        match q {
            SelectionQuery::Point { col, value } => match self.indexes.get(col) {
                Some(tree) => tree
                    .get_metered(value, meter)
                    .is_some_and(|posting| posting.first().is_some_and(|&id| id < bound)),
                None => self.scan_metered_below(q, meter, bound),
            },
            SelectionQuery::Range { col, lo, hi } => match self.indexes.get(col) {
                Some(tree) => {
                    meter.add(tree_descent_cost(tree));
                    tree.range(as_ref_bound(lo), as_ref_bound(hi))
                        .any(|(_, posting)| {
                            meter.tick();
                            posting.first().is_some_and(|&id| id < bound)
                        })
                }
                None => self.scan_metered_below(q, meter, bound),
            },
            SelectionQuery::And(_, _) => match self.driving_conjunct(q) {
                Some(driving) => self
                    .driving_candidates(driving, meter)
                    .iter()
                    .copied()
                    .take_while(|&id| id < bound)
                    .any(|id| {
                        meter.tick();
                        self.rows[id].as_ref().is_some_and(|row| q.matches(row))
                    }),
                None => self.scan_metered_below(q, meter, bound),
            },
        }
    }

    fn scan_metered_below(&self, q: &SelectionQuery, meter: &Meter, bound: usize) -> bool {
        for slot in self.rows.iter().take(bound) {
            meter.tick();
            if let Some(row) = slot {
                if q.matches(row) {
                    return true;
                }
            }
        }
        false
    }

    fn scan_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        for slot in &self.rows {
            // Every slot visited costs a step, tombstones included (the
            // scan cannot skip them without an index).
            meter.tick();
            if let Some(row) = slot {
                if q.matches(row) {
                    return true;
                }
            }
        }
        false
    }

    /// Export the live tuples as a plain relation (test/diagnostic aid).
    pub fn to_relation(&self) -> Relation {
        let rows: Vec<Vec<Value>> = self.rows.iter().flatten().cloned().collect();
        Relation::from_rows(self.schema.clone(), rows).expect("rows were validated on insert")
    }

    /// Raw row storage including tombstones (persistence accessor:
    /// serializing the slots verbatim is what keeps row ids stable across
    /// a save/load cycle).
    pub fn slots(&self) -> &[Option<Vec<Value>>] {
        &self.rows
    }

    /// Number of row slots ever assigned (live rows plus tombstones; the
    /// id space upper bound).
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// The `(key, posting list)` entries of one column's index in
    /// ascending key order, or `None` if the column is unindexed
    /// (persistence accessor).
    pub fn index_postings(&self, col: usize) -> Option<Vec<(&Value, &[usize])>> {
        let tree = self.indexes.get(&col)?;
        Some(tree.iter().map(|(k, v)| (k, v.as_slice())).collect())
    }

    /// Reassemble an `IndexedRelation` from previously exported parts —
    /// the warm-start fast path used by `pitract-store`. Each index is
    /// reconstructed with [`BPlusTree::bulk_load`] from its ascending
    /// `(key, posting list)` entries in O(n), instead of the O(n log n)
    /// per-key descents of [`IndexedRelation::build`].
    ///
    /// Validation keeps a structurally corrupt input from producing a
    /// relation that would answer differently (or panic) later: every
    /// live row must admit the schema, index columns must be in range,
    /// keys must be strictly ascending, and every posting must point at a
    /// live row holding that key.
    pub fn from_parts(
        schema: Schema,
        slots: Vec<Option<Vec<Value>>>,
        indexes: Vec<IndexEntries>,
    ) -> Result<Self, IndexedError> {
        for row in slots.iter().flatten() {
            schema.admits(row).map_err(IndexedError::RowRejected)?;
        }
        let live = slots.iter().flatten().count();
        let arity = schema.arity();
        let mut trees = HashMap::with_capacity(indexes.len());
        for (col, entries) in indexes {
            if col >= arity {
                return Err(IndexedError::ColumnOutOfRange { col, arity });
            }
            if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(IndexedError::KeysNotAscending { col });
            }
            let mut posted = 0usize;
            for (key, posting) in &entries {
                if posting.is_empty() {
                    return Err(IndexedError::EmptyPosting {
                        col,
                        key: key.to_string(),
                    });
                }
                if posting.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(IndexedError::PostingNotAscending {
                        col,
                        key: key.to_string(),
                    });
                }
                for &id in posting {
                    let lives = slots
                        .get(id)
                        .and_then(|slot| slot.as_ref())
                        .is_some_and(|row| &row[col] == key);
                    if !lives {
                        return Err(IndexedError::DanglingPosting { col, id });
                    }
                }
                posted += posting.len();
            }
            // Ascending distinct keys + ascending distinct ids per posting
            // + every posting pointing at a live row with its key + the
            // counts matching: the postings are exactly the live rows.
            if posted != live {
                return Err(IndexedError::PostingCountMismatch { col, posted, live });
            }
            if trees.insert(col, BPlusTree::bulk_load(entries)).is_some() {
                return Err(IndexedError::DuplicateIndex { col });
            }
        }
        Ok(IndexedRelation {
            schema,
            rows: slots,
            live,
            indexes: trees,
        })
    }
}

/// Approximate comparison cost of one descent, charged to the meter for
/// operations (like range probes) that use the unmetered tree API.
fn tree_descent_cost(tree: &BPlusTree<Value, Vec<usize>>) -> u64 {
    let n = tree.len().max(2) as f64;
    (n.log2().ceil() as u64).max(1) * 2
}

/// Charge one enumerating probe of `tree` — the descent plus every id
/// it produced — and hand the ids on.
fn probed(tree: &BPlusTree<Value, Vec<usize>>, ids: Vec<usize>, meter: &Meter) -> Vec<usize> {
    meter.add(tree_descent_cost(tree) + ids.len() as u64);
    ids
}

/// Every row id posted under a key in `[lo, hi]`, ascending.
fn ids_in_range(
    tree: &BPlusTree<Value, Vec<usize>>,
    lo: &Bound<Value>,
    hi: &Bound<Value>,
) -> Vec<usize> {
    let mut ids: Vec<usize> = tree
        .range(as_ref_bound(lo), as_ref_bound(hi))
        .flat_map(|(_, posting)| posting.iter().copied())
        .collect();
    ids.sort_unstable();
    ids
}

fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColType;
    use pitract_core::cost::{assert_steps_within, CostClass};

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("city", ColType::Str)])
    }

    fn big_relation(n: i64) -> Relation {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema(), rows).unwrap()
    }

    #[test]
    fn indexed_answers_match_scan_answers() {
        let rel = big_relation(500);
        let ir = IndexedRelation::build(&rel, &[0, 1]).unwrap();
        let queries = vec![
            SelectionQuery::point(0, 250i64),
            SelectionQuery::point(0, 9999i64),
            SelectionQuery::point(1, "city3"),
            SelectionQuery::point(1, "nowhere"),
            SelectionQuery::range_closed(0, 100i64, 110i64),
            SelectionQuery::range_closed(0, 600i64, 700i64),
            SelectionQuery::and(
                SelectionQuery::point(1, "city7"),
                SelectionQuery::range_closed(0, 0i64, 20i64),
            ),
        ];
        for q in queries {
            assert_eq!(ir.answer(&q), rel.eval_scan(&q), "{q:?}");
        }
    }

    #[test]
    fn point_probe_is_logarithmic() {
        let n = 1i64 << 15;
        let ir = IndexedRelation::build(&big_relation(n), &[0]).unwrap();
        let meter = Meter::new();
        for v in [0i64, n / 2, n - 1, n + 5] {
            meter.take();
            ir.answer_metered(&SelectionQuery::point(0, v), &meter);
            assert_steps_within(meter.steps(), CostClass::Log, n as u64, 4.0);
        }
    }

    #[test]
    fn range_probe_is_logarithmic() {
        let n = 1i64 << 15;
        let ir = IndexedRelation::build(&big_relation(n), &[0]).unwrap();
        let meter = Meter::new();
        meter.take();
        ir.answer_metered(&SelectionQuery::range_closed(0, 5i64, 50i64), &meter);
        assert_steps_within(meter.steps(), CostClass::Log, n as u64, 4.0);
    }

    #[test]
    fn unindexed_column_falls_back_to_scan() {
        let rel = big_relation(100);
        let ir = IndexedRelation::build(&rel, &[0]).unwrap();
        let meter = Meter::new();
        ir.answer_metered(&SelectionQuery::point(1, "absent"), &meter);
        assert_eq!(meter.steps(), 100, "miss on unindexed column scans all");
    }

    #[test]
    fn inserts_are_visible_and_indexed() {
        let mut ir = IndexedRelation::build(&big_relation(10), &[0]).unwrap();
        assert!(!ir.answer(&SelectionQuery::point(0, 100i64)));
        ir.insert(vec![Value::Int(100), Value::str("x")]).unwrap();
        assert!(ir.answer(&SelectionQuery::point(0, 100i64)));
        assert_eq!(ir.len(), 11);
    }

    #[test]
    fn deletes_remove_from_queries_and_prune_postings() {
        // 20 rows: each city value appears twice (rows i and i+10).
        let mut ir = IndexedRelation::build(&big_relation(20), &[0, 1]).unwrap();
        // Row ids equal initial positions; delete id 3 (id value 3).
        let removed = ir.delete(3).expect("row 3 exists");
        assert_eq!(removed[0], Value::Int(3));
        assert!(!ir.answer(&SelectionQuery::point(0, 3i64)));
        assert_eq!(ir.len(), 19);
        // Double delete is a no-op.
        assert!(ir.delete(3).is_none());
        // Duplicate-valued column: row 13 still holds "city3".
        assert!(ir.answer(&SelectionQuery::point(1, "city3")));
    }

    #[test]
    fn delete_last_duplicate_removes_key() {
        let rel = Relation::from_rows(
            schema(),
            vec![
                vec![Value::Int(1), Value::str("solo")],
                vec![Value::Int(2), Value::str("pair")],
                vec![Value::Int(3), Value::str("pair")],
            ],
        )
        .unwrap();
        let mut ir = IndexedRelation::build(&rel, &[1]).unwrap();
        ir.delete(0);
        assert!(!ir.answer(&SelectionQuery::point(1, "solo")));
        ir.delete(1);
        assert!(
            ir.answer(&SelectionQuery::point(1, "pair")),
            "row 2 remains"
        );
        ir.delete(2);
        assert!(!ir.answer(&SelectionQuery::point(1, "pair")));
        assert!(ir.is_empty());
    }

    #[test]
    fn conjunction_routes_through_index_and_verifies() {
        let rel = big_relation(1000);
        let ir = IndexedRelation::build(&rel, &[1]).unwrap();
        let meter = Meter::new();
        let q = SelectionQuery::and(
            SelectionQuery::point(1, "city4"),
            SelectionQuery::range_closed(0, 700i64, 710i64),
        );
        let got = ir.answer_metered(&q, &meter);
        assert_eq!(got, rel.eval_scan(&q));
        // 100 candidates share city4; far fewer than a 1000-row scan.
        assert!(
            meter.steps() < 200,
            "conjunction probe cost {} suggests a full scan",
            meter.steps()
        );
    }

    #[test]
    fn build_rejects_out_of_range_index_columns() {
        // Regression: this used to panic with index-out-of-bounds inside
        // insert's index maintenance instead of reporting the bad column —
        // and later reported it as a bare `String` instead of a typed
        // error callers can match on.
        let rel = big_relation(10);
        assert_eq!(
            IndexedRelation::build(&rel, &[2]).unwrap_err(),
            IndexedError::ColumnOutOfRange { col: 2, arity: 2 }
        );
        assert_eq!(
            IndexedRelation::build(&rel, &[0, 99]).unwrap_err(),
            IndexedError::ColumnOutOfRange { col: 99, arity: 2 }
        );
        assert!(
            IndexedRelation::build(&rel, &[]).is_ok(),
            "no indexes is fine"
        );
    }

    #[test]
    fn errors_are_typed_and_std() {
        // Regression (stringly-typed error path): build/insert/from_parts
        // all return `IndexedError` now, a real `std::error::Error` with
        // distinct, specific Display per failure class.
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&IndexedError::KeysNotAscending { col: 1 });

        let mut ir = IndexedRelation::build(&big_relation(5), &[0]).unwrap();
        let err = ir.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, IndexedError::RowRejected(_)), "{err}");

        let cases = [
            IndexedError::ColumnOutOfRange { col: 9, arity: 2 }.to_string(),
            IndexedError::RowRejected("arity".into()).to_string(),
            IndexedError::DuplicateIndex { col: 1 }.to_string(),
            IndexedError::KeysNotAscending { col: 1 }.to_string(),
            IndexedError::EmptyPosting {
                col: 1,
                key: "k".into(),
            }
            .to_string(),
            IndexedError::PostingNotAscending {
                col: 1,
                key: "k".into(),
            }
            .to_string(),
            IndexedError::DanglingPosting { col: 1, id: 7 }.to_string(),
            IndexedError::PostingCountMismatch {
                col: 1,
                posted: 3,
                live: 5,
            }
            .to_string(),
        ];
        let mut distinct = cases.to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), cases.len(), "every variant is distinct");
    }

    #[test]
    fn conjunction_routes_through_range_conjunct() {
        // Regression: with only the *range* side indexed, the conjunction
        // used to degrade to a full scan.
        let rel = big_relation(1000);
        let ir = IndexedRelation::build(&rel, &[0]).unwrap();
        let meter = Meter::new();
        let q = SelectionQuery::and(
            SelectionQuery::point(1, "city4"),
            SelectionQuery::range_closed(0, 700i64, 710i64),
        );
        let got = ir.answer_metered(&q, &meter);
        assert_eq!(got, rel.eval_scan(&q));
        // 11 candidates in [700, 710]; far fewer than a 1000-row scan.
        assert!(
            meter.steps() < 100,
            "range-conjunct probe cost {} suggests a full scan",
            meter.steps()
        );
    }

    #[test]
    fn conjunction_routes_through_nested_and_shapes() {
        // Regression: a nested And(And(p, _), _) hid the indexed point
        // conjunct from the old top-level-only routing.
        let rel = big_relation(1000);
        let ir = IndexedRelation::build(&rel, &[1]).unwrap();
        let meter = Meter::new();
        let nested = SelectionQuery::and(
            SelectionQuery::and(
                SelectionQuery::range_closed(0, 0i64, 999i64),
                SelectionQuery::point(1, "city4"),
            ),
            SelectionQuery::range_closed(0, 700i64, 710i64),
        );
        let got = ir.answer_metered(&nested, &meter);
        assert_eq!(got, rel.eval_scan(&nested));
        assert!(
            meter.steps() < 200,
            "nested-And probe cost {} suggests a full scan",
            meter.steps()
        );
    }

    #[test]
    fn matching_ids_agree_with_scan_on_every_path() {
        let rel = big_relation(200);
        let mut ir = IndexedRelation::build(&rel, &[0, 1]).unwrap();
        ir.delete(42);
        let queries = vec![
            SelectionQuery::point(0, 41i64),
            SelectionQuery::point(0, 42i64), // deleted row
            SelectionQuery::point(1, "city7"),
            SelectionQuery::range_closed(0, 40i64, 45i64),
            SelectionQuery::and(
                SelectionQuery::point(1, "city1"),
                SelectionQuery::range_closed(0, 0i64, 60i64),
            ),
        ];
        let meter = Meter::new();
        for q in queries {
            let got = ir.matching_ids_metered(&q, &meter);
            let expect: Vec<usize> = (0..ir.rows.len())
                .filter(|&id| ir.row(id).is_some_and(|row| q.matches(row)))
                .collect();
            assert_eq!(got, expect, "{q:?}");
            assert_eq!(!got.is_empty(), ir.answer(&q), "bool/ids disagree {q:?}");
        }
    }

    /// The charges the probe paths make, to the step: a descent of the
    /// probed tree, plus one step per id enumerated (row-id mode) or per
    /// candidate verified (conjunctions) — the numbers the end-to-end
    /// benchmark's `steps_per_query` must reproduce across refactors.
    #[test]
    fn metered_steps_are_one_descent_plus_the_ids_touched() {
        let ir = IndexedRelation::build(&big_relation(200), &[0, 1]).unwrap();
        let descent = |col: usize| tree_descent_cost(&ir.indexes[&col]);
        let city = SelectionQuery::point(1, "city3"); // 20 rows: 3, 13, …, 193
        let ids = SelectionQuery::range_closed(0, 10i64, 49i64); // 40 rows
        let both = SelectionQuery::and(ids.clone(), city.clone()); // drives through `city`
        let ranges = SelectionQuery::and(ids.clone(), ids.clone()); // drives through `ids`
        let meter = Meter::new();
        let spent = |run: &dyn Fn()| {
            meter.take();
            run();
            meter.take()
        };
        for (q, rows_mode, bool_mode, below_60) in [
            (&city, descent(1) + 20, None, None),
            (&ids, descent(0) + 40, Some(descent(0)), None),
            // Rows: every candidate verified. Bool: stops at the first
            // witness (13, the 2nd candidate); below id 60: same witness.
            (
                &both,
                descent(1) + 20,
                Some(descent(1) + 2),
                Some(descent(1) + 2),
            ),
            (
                &ranges,
                descent(0) + 40,
                Some(descent(0) + 1),
                Some(descent(0) + 1),
            ),
        ] {
            assert_eq!(
                spent(&|| _ = ir.matching_ids_metered(q, &meter)),
                rows_mode,
                "{q:?}"
            );
            if let Some(expect) = bool_mode {
                assert_eq!(spent(&|| _ = ir.answer_metered(q, &meter)), expect, "{q:?}");
            }
            if let Some(expect) = below_60 {
                assert_eq!(
                    spent(&|| _ = ir.answer_metered_below(q, &meter, 60)),
                    expect,
                    "{q:?}"
                );
            }
        }
        // Below id 10 no candidate of `both` is visible: nothing is verified.
        assert_eq!(
            spent(&|| _ = ir.answer_metered_below(&both, &meter, 10)),
            descent(1) + 1,
            "the first candidate (3) is checked, the second (13) is past the bound"
        );
    }

    #[test]
    fn row_ids_in_range_are_sorted_and_live() {
        let mut ir = IndexedRelation::build(&big_relation(50), &[0]).unwrap();
        ir.delete(10);
        let ids = ir.row_ids_in_range(
            0,
            &Bound::Included(Value::Int(8)),
            &Bound::Excluded(Value::Int(13)),
        );
        assert_eq!(ids, vec![8, 9, 11, 12]);
        assert!(ir
            .row_ids_in_range(1, &Bound::Unbounded, &Bound::Unbounded)
            .is_empty());
    }

    #[test]
    fn to_relation_roundtrips_live_rows() {
        let mut ir = IndexedRelation::build(&big_relation(5), &[0]).unwrap();
        ir.delete(2);
        let rel = ir.to_relation();
        assert_eq!(rel.len(), 4);
        assert!(!rel.eval_scan(&SelectionQuery::point(0, 2i64)));
    }

    fn export_parts(ir: &IndexedRelation) -> (Schema, Vec<Option<Vec<Value>>>, Vec<IndexEntries>) {
        let indexes = ir
            .indexed_columns()
            .into_iter()
            .map(|c| {
                let entries = ir
                    .index_postings(c)
                    .expect("column is indexed")
                    .into_iter()
                    .map(|(k, v)| (k.clone(), v.to_vec()))
                    .collect();
                (c, entries)
            })
            .collect();
        (ir.schema().clone(), ir.slots().to_vec(), indexes)
    }

    #[test]
    fn from_parts_preserves_answers_and_ids() {
        let mut ir = IndexedRelation::build(&big_relation(100), &[0, 1]).unwrap();
        ir.delete(17);
        ir.delete(40);
        ir.insert(vec![Value::Int(777), Value::str("late")])
            .unwrap();
        let (schema, slots, indexes) = export_parts(&ir);
        let rebuilt = IndexedRelation::from_parts(schema, slots, indexes).unwrap();
        assert_eq!(rebuilt.len(), ir.len());
        assert_eq!(rebuilt.slot_count(), ir.slot_count());
        assert_eq!(rebuilt.indexed_columns(), ir.indexed_columns());
        let meter = Meter::new();
        for q in [
            SelectionQuery::point(0, 17i64),
            SelectionQuery::point(0, 777i64),
            SelectionQuery::range_closed(0, 10i64, 45i64),
            SelectionQuery::and(
                SelectionQuery::point(1, "city3"),
                SelectionQuery::range_closed(0, 0i64, 60i64),
            ),
        ] {
            assert_eq!(rebuilt.answer(&q), ir.answer(&q), "{q:?}");
            assert_eq!(
                rebuilt.matching_ids_metered(&q, &meter),
                ir.matching_ids_metered(&q, &meter),
                "{q:?}"
            );
        }
    }

    #[test]
    fn from_parts_rejects_corrupt_structures() {
        let ir = IndexedRelation::build(&big_relation(10), &[0]).unwrap();
        let (schema, slots, indexes) = export_parts(&ir);

        // Index column out of range.
        let bad = vec![(5usize, Vec::new())];
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::ColumnOutOfRange { col: 5, arity: 2 }
        );

        // Posting pointing at a dead/mismatched row.
        let mut bad = indexes.clone();
        bad[0].1[0].1 = vec![9999];
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::DanglingPosting { col: 0, id: 9999 }
        );

        // Keys out of order.
        let mut bad = indexes.clone();
        bad[0].1.swap(0, 1);
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::KeysNotAscending { col: 0 }
        );

        // A posting silently dropped (index incomplete).
        let mut bad = indexes.clone();
        bad[0].1.remove(3);
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::PostingCountMismatch {
                col: 0,
                posted: 9,
                live: 10,
            }
        );

        // The unmodified export still loads.
        assert!(IndexedRelation::from_parts(schema, slots, indexes).is_ok());
    }

    #[test]
    fn index_postings_are_ascending_and_complete() {
        let mut ir = IndexedRelation::build(&big_relation(30), &[1]).unwrap();
        ir.delete(2);
        let postings = ir.index_postings(1).unwrap();
        assert!(postings.windows(2).all(|w| w[0].0 < w[1].0), "keys sorted");
        let total: usize = postings.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, ir.len(), "one posting per live row");
        assert!(ir.index_postings(0).is_none(), "unindexed column");
    }

    #[test]
    fn row_ids_eq_returns_live_ids() {
        let ir = IndexedRelation::build(&big_relation(30), &[1]).unwrap();
        let ids = ir.row_ids_eq(1, &Value::str("city2"));
        assert_eq!(ids, vec![2, 12, 22]);
        assert!(ir.row_ids_eq(0, &Value::Int(1)).is_empty(), "unindexed col");
    }
}
