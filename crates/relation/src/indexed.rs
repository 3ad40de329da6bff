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
//!
//! # Layout
//!
//! * **Rows as typed columns.** The rows live in [`crate::columns`]
//!   storage, one column per schema column: an `Int` column is a
//!   `Vec<i64>`, a `Str` column is one `String` arena holding every cell
//!   end to end plus a `Vec<usize>` of end offsets. A bitmap marks the
//!   live slots. A row id is a slot position; [`IndexedRelation::row`]
//!   and [`IndexedRelation::slots`] hand out [`RowRef`]s — a borrow of
//!   the storage plus the id, whose `get(col)` is a [`ValueRef`] read in
//!   place — and [`SelectionQuery::matches`] reads a `RowRef` exactly as
//!   it reads a `&[Value]`. [`IndexedRelation::delete`] materialises
//!   the row it returns.
//! * **One residual check.** A scan, and an index-nested-loop
//!   conjunction's candidates, are checked against a `Residual`: once
//!   per (query, relation) each conjunct is resolved to a typed check
//!   over its column — an `i64` interval over the `Vec<i64>`, a `&str`
//!   comparison over the arena, mapped for a mistyped value exactly as
//!   the index maps it — and the conjunct whose index produced the
//!   candidates is left out, since its posting or range proves it. A
//!   candidate then costs a few machine comparisons in place, no
//!   [`RowRef`] and no [`Value`] matched per cell; the checks live on
//!   the stack, nothing is allocated per query.
//! * **Tombstone placeholders.** A delete clears the slot's bit and
//!   leaves its cells where they are (the arena cannot close a gap
//!   without moving every later cell); a tombstone a load appends
//!   ([`Columns::push_slot`]) is stored as `0` / `""`. Either way the
//!   bitmap hides the cells: no read path looks at a dead slot's cells,
//!   the index build skips them, and the snapshot writes a tombstone as
//!   a tombstone.
//! * **Build by copying columns, not rows.** A plain [`Relation`] keeps
//!   its rows in the same [`Columns`] store. [`IndexedRelation::build`]
//!   copies it whole; [`IndexedRelation::build_split`] takes each row's
//!   part, routed once by its caller, sizes every part exactly, and
//!   copies the relation column by column —
//!   one typed loop per column, `i64`s into `Vec<i64>`s and `&str`s
//!   into arenas; no row is materialised, staged, or admitted twice.
//! * **One constructor.** [`IndexedRelation::from_columns`] indexes
//!   row storage on a list of columns. A build hands it freshly split
//!   columns; a snapshot load hands it the slots it decoded, so a load
//!   rebuilds the trees by sort and placeholders are never posted. No
//!   index is ever read from outside, so none can disagree with its
//!   rows.
//! * **Typed keys, one slot per column.** The schema says whether a
//!   column holds `Int`s or `Str`s, so its index is a
//!   `BPlusTree<i64, Posting>` or a `BPlusTree<String, Posting>` — a
//!   node is an array of machine integers (or `String`s) compared as
//!   such, not an array of [`Value`] enums whose derived `Ord` looks at
//!   a discriminant before every payload — and the indexes sit in a
//!   `Vec` with one slot per schema column, so finding a column's tree
//!   is an array index. A probe unwraps the query's [`Value`] once, at
//!   the top.
//! * **Inline postings.** A `Posting` holds a single row id inline and
//!   spills to a `Vec<usize>` from the second id on, so a unique key costs
//!   its 8 key bytes plus 24 posting bytes in the leaf and no heap block.
//!   Ids are ascending by construction (row ids only grow), which is what
//!   lets a delete find its id by binary search.
//! * **Build by sort.** [`IndexedRelation::from_columns`] collects one
//!   column's `(key, id)` pairs over the live slots, sorts them, groups
//!   equal keys into postings and hands the ascending run to
//!   [`BPlusTree::bulk_load`] — leaves come out ⅔ full and nothing
//!   descends the tree. Columns are built one after
//!   another, so at most one column's pairs are alive at a time. Building
//!   empty and calling [`IndexedRelation::insert`] per row gives the same
//!   answers, ids and postings in a differently packed tree.
//!
//! **Cross-type probes** keep [`Value`]'s total order, in which every
//! `Int` sorts below every `Str`, so the index always agrees with
//! [`SelectionQuery::matches`]: a mistyped *point* (a `Str` probe on an
//! `Int` column or the reverse) matches nothing and is charged one step;
//! a mistyped *range bound* sits wholly below or wholly above the
//! column's keys, which makes that side of the range unbounded or the
//! range empty, whichever the order dictates.
//!
//! What the layout did **not** change — the metering rule, which stays
//! until the planner and the executor meter one descent the same way: a
//! metered point probe still ticks once per key comparison
//! ([`BPlusTree::get_metered`]), every other path still charges
//! `tree_descent_cost` = 2·⌈log₂ keys⌉ plus the ids it touches (a
//! conjunction: one tick per candidate it examines), and a scan still
//! ticks once per slot, tombstones included. Neither typed keys, typed
//! columns nor the residual moved a metered step, and neither does
//! answering the queries that probe one column together
//! ([`IndexedRelation::answer_many_metered`]): their points and range
//! starts share the walk down the tree ([`BPlusTree::descend_many`]),
//! and each query is charged what it costs alone.
//!
//! [`ValueRef`]: crate::value::ValueRef

use crate::columns::{Column, Columns, RowRef};
use crate::query::SelectionQuery;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use pitract_core::cost::Meter;
use pitract_index::bptree::{BPlusTree, RangeIter};
use residual::{leaf_column, Residual};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Bound, Range};

/// Everything that can go wrong building or updating an
/// [`IndexedRelation`].
///
/// `build` and `insert` used to return `Result<_, String>` while every
/// layer above (the engine's [`ShardedRelation`] and the store's
/// snapshot loader) had typed errors — so the bottom of the build/insert
/// path forced everything back into prose. Each failure class is now a
/// distinct variant with `From` conversions upward
/// (`EngineError::Indexed`, `StoreError::Indexed`), so callers can match
/// instead of parsing strings. A load reaches the same two: a decoded
/// row the schema rejects, or an indexed column the schema lacks.
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
    /// Whole columns handed to
    /// [`Columns::from_live_cells`](crate::columns::Columns::from_live_cells)
    /// do not describe a store: the bitmap, a column's length or a `Str`
    /// column's end offsets are inconsistent (the reason says which).
    BadColumns(String),
}

impl fmt::Display for IndexedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexedError::ColumnOutOfRange { col, arity } => {
                write!(f, "cannot index column {col}: schema has arity {arity}")
            }
            IndexedError::RowRejected(why) => write!(f, "row rejected by schema: {why}"),
            IndexedError::BadColumns(why) => write!(f, "columns rejected: {why}"),
        }
    }
}

impl std::error::Error for IndexedError {}

/// The row ids posted under one key: one id inline, a `Vec` from the
/// second on. Never empty while it sits in a tree, always ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Posting {
    One(usize),
    /// At least two ids.
    Many(Vec<usize>),
}

impl Posting {
    fn as_slice(&self) -> &[usize] {
        match self {
            Posting::One(id) => std::slice::from_ref(id),
            Posting::Many(ids) => ids,
        }
    }

    /// The smallest posted id.
    fn first(&self) -> usize {
        self.as_slice()[0]
    }

    /// Post `id`, which must exceed every id already posted.
    fn push(&mut self, id: usize) {
        match self {
            Posting::One(first) => *self = Posting::Many(vec![*first, id]),
            Posting::Many(ids) => ids.push(id),
        }
    }

    /// Un-post `id` (a no-op if it is not posted). Returns `true` when
    /// that leaves nothing behind — the caller must then drop the key.
    fn remove(&mut self, id: usize) -> bool {
        match self {
            Posting::One(only) => *only == id,
            Posting::Many(ids) => {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                if let [last] = ids[..] {
                    *self = Posting::One(last);
                }
                false
            }
        }
    }
}

/// A column payload type an index can be keyed by: `i64` for
/// [`ColType::Int`] columns, `String` for [`ColType::Str`] ones.
///
/// [`ColType::Int`]: crate::schema::ColType::Int
/// [`ColType::Str`]: crate::schema::ColType::Str
trait IndexKey: Ord + Clone + fmt::Debug + 'static {
    /// The payload of `v`, if `v` has this type.
    fn of(v: &Value) -> Option<&Self>;

    /// A key a mistyped probe descends with, its answer thrown away.
    const PLACEHOLDER: &'static Self;

    /// A range of this key type's tree as [`Postings`].
    fn postings(entries: RangeIter<'_, Self, Posting>) -> Postings<'_>;
}

impl IndexKey for i64 {
    const PLACEHOLDER: &'static i64 = &0;

    fn of(v: &Value) -> Option<&i64> {
        match v {
            Value::Int(i) => Some(i),
            Value::Str(_) => None,
        }
    }

    fn postings(entries: RangeIter<'_, i64, Posting>) -> Postings<'_> {
        Postings::Int(entries)
    }
}

impl IndexKey for String {
    const PLACEHOLDER: &'static String = &String::new();

    fn of(v: &Value) -> Option<&String> {
        match v {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    fn postings(entries: RangeIter<'_, String, Posting>) -> Postings<'_> {
        Postings::Str(entries)
    }
}

/// The postings under the keys of one range, in key order, whatever
/// the column's key type.
enum Postings<'a> {
    Int(RangeIter<'a, i64, Posting>),
    Str(RangeIter<'a, String, Posting>),
    /// A range no key of the column's type lies in.
    Empty,
}

impl<'a> Iterator for Postings<'a> {
    type Item = &'a Posting;

    fn next(&mut self) -> Option<&'a Posting> {
        match self {
            Postings::Int(entries) => entries.next().map(|(_, posting)| posting),
            Postings::Str(entries) => entries.next().map(|(_, posting)| posting),
            Postings::Empty => None,
        }
    }
}

/// One column's secondary index, keyed by the column's own type.
#[derive(Debug, Clone)]
enum ColumnIndex {
    Int(BPlusTree<i64, Posting>),
    Str(BPlusTree<String, Posting>),
}

/// Evaluate `$body` with `$tree` bound to the typed tree inside
/// `$index`: every access path is written once and instantiated for
/// both key types.
macro_rules! with_tree {
    ($index:expr, $tree:ident => $body:expr) => {
        match $index {
            ColumnIndex::Int($tree) => $body,
            ColumnIndex::Str($tree) => $body,
        }
    };
}

impl ColumnIndex {
    /// Index column `col` of `rows` by sorting, not by descent. The
    /// column's own slice is the key source: an `Int` key is copied out
    /// of a `Vec<i64>`, a `Str` key out of the arena.
    fn build(rows: &Columns, col: usize) -> Self {
        match rows.column(col) {
            Column::Int(ints) => ColumnIndex::Int(sorted_tree(rows, ints.iter().copied(), |i| i)),
            Column::Str(strs) => ColumnIndex::Str(sorted_tree(rows, strs.iter(), str::to_owned)),
        }
    }

    /// Number of distinct keys.
    fn len(&self) -> usize {
        with_tree!(self, tree => tree.len())
    }

    /// The ids posted under `value`, ascending; a mistyped value is
    /// under no key.
    fn ids_eq(&self, value: &Value) -> &[usize] {
        with_tree!(self, tree => IndexKey::of(value).and_then(|key| tree.get(key)))
            .map_or(&[], Posting::as_slice)
    }

    /// The posting under `value`, one tick per key comparison. A
    /// mistyped value is settled by the one comparison that tells its
    /// type from the column's.
    fn get_metered(&self, value: &Value, meter: &Meter) -> Option<&Posting> {
        with_tree!(self, tree => match IndexKey::of(value) {
            Some(key) => tree.get_metered(key, meter),
            None => {
                meter.tick();
                None
            }
        })
    }

    /// What the index finds for many points and ranges on its column,
    /// their searches descended together ([`BPlusTree::descend_many`]):
    /// `found(tag, found)` once per `(tag, leaf)`, in probe order, each
    /// what [`Self::get_metered`] (with its comparisons) or
    /// [`Self::postings_in`] finds alone. A mistyped point rides along
    /// under a placeholder key and is answered as a miss, after the one
    /// comparison that tells its type from the column's; a range no key
    /// of the column's type lies in rides along unbounded and is
    /// answered empty.
    fn descend_many<'a, T: Copy>(
        &'a self,
        probes: impl Iterator<Item = (T, &'a SelectionQuery)>,
        found: impl FnMut(T, Found<'a>),
    ) {
        fn typed<'a, K: IndexKey, T: Copy>(
            index: &'a ColumnIndex,
            tree: &'a BPlusTree<K, Posting>,
            probes: impl Iterator<Item = (T, &'a SelectionQuery)>,
            mut found: impl FnMut(T, Found<'a>),
        ) {
            let starts = probes.map(|(tag, leaf)| {
                let start = match leaf {
                    SelectionQuery::Point { value, .. } => {
                        Bound::Included(K::of(value).unwrap_or(K::PLACEHOLDER))
                    }
                    SelectionQuery::Range { lo, hi, .. } => {
                        typed_range::<K>(lo, hi).map_or(Bound::Unbounded, |(lo, _)| lo)
                    }
                    SelectionQuery::And(..) => unreachable!("a probe is a leaf"),
                };
                ((tag, leaf), start)
            });
            tree.descend_many(starts, |(tag, leaf), at| {
                let probed = match leaf {
                    SelectionQuery::Point { value, .. } => match K::of(value) {
                        Some(key) => {
                            let (posting, comparisons) = at.get(key);
                            Found::Point(index, posting, comparisons)
                        }
                        None => Found::Point(index, None, 1),
                    },
                    SelectionQuery::Range { lo, hi, .. } => match typed_range::<K>(lo, hi) {
                        Some((lo, hi)) => Found::Range(index, K::postings(at.range(lo, hi))),
                        None => Found::Range(index, Postings::Empty),
                    },
                    SelectionQuery::And(..) => unreachable!("a probe is a leaf"),
                };
                found(tag, probed);
            });
        }
        with_tree!(self, tree => typed(self, tree, probes, found))
    }

    /// The postings keyed within the bounds, in key order — the one
    /// range walk behind every single-range access path.
    fn postings_in<'a>(&'a self, lo: &'a Bound<Value>, hi: &'a Bound<Value>) -> Postings<'a> {
        with_tree!(self, tree => match typed_range(lo, hi) {
            Some((lo, hi)) => IndexKey::postings(tree.range(lo, hi)),
            None => Postings::Empty,
        })
    }

    /// Append every row id posted under a key within the bounds to
    /// `out`, the appended run ascending.
    fn ids_in_range_into(&self, lo: &Bound<Value>, hi: &Bound<Value>, out: &mut Vec<usize>) {
        gather(self.postings_in(lo, hi), out);
    }

    /// Post row `id` under `value` (a value the schema admitted for this
    /// column): one descent, whether or not the key is new.
    fn post(&mut self, value: &Value, id: usize) {
        with_tree!(self, tree => {
            let key = IndexKey::of(value).cloned().expect("the schema admitted this value");
            tree.upsert(key, Posting::One(id), |posting, _| posting.push(id));
        })
    }

    /// Un-post row `id` from under `value`, dropping the key with its
    /// last id so "key present" keeps meaning "some live row has it":
    /// one descent, whether or not the key survives.
    fn unpost(&mut self, value: &Value, id: usize) {
        with_tree!(self, tree => {
            let key = IndexKey::of(value).expect("the schema admitted this value");
            tree.remove_if(key, |posting| posting.remove(id));
        })
    }
}

/// The bounds of a range selection as bounds on a `K`-keyed tree, or
/// `None` when no `K` can lie within them. A mistyped bound keeps
/// [`Value`]'s order — every `Int` below every `Str` — so it sits wholly
/// below the column's keys (an `Int` against `Str` keys) or wholly above
/// them (a `Str` against `Int` keys): as a lower bound that is "no
/// bound" or "nothing", as an upper bound the reverse.
fn typed_range<'a, K: IndexKey>(
    lo: &'a Bound<Value>,
    hi: &'a Bound<Value>,
) -> Option<(Bound<&'a K>, Bound<&'a K>)> {
    /// `Err` carries a bound of the other type.
    fn typed<K: IndexKey>(bound: &Bound<Value>) -> Result<Bound<&K>, &Value> {
        match bound {
            Bound::Unbounded => Ok(Bound::Unbounded),
            Bound::Included(v) => K::of(v).map(Bound::Included).ok_or(v),
            Bound::Excluded(v) => K::of(v).map(Bound::Excluded).ok_or(v),
        }
    }
    let lo = match typed(lo) {
        Ok(bound) => bound,
        Err(Value::Int(_)) => Bound::Unbounded,
        Err(Value::Str(_)) => return None,
    };
    let hi = match typed(hi) {
        Ok(bound) => bound,
        Err(Value::Str(_)) => Bound::Unbounded,
        Err(Value::Int(_)) => return None,
    };
    Some((lo, hi))
}

/// Build one column's tree by sort: the `(key, id)` pairs of the live
/// slots (`id` = position in `cells`), sorted, equal keys grouped into
/// ascending postings, bulk-loaded. A dead slot's cell — a tombstone's
/// placeholder or a deleted row's leftover — is never posted.
fn sorted_tree<C, K: IndexKey>(
    rows: &Columns,
    cells: impl Iterator<Item = C>,
    key: impl Fn(C) -> K,
) -> BPlusTree<K, Posting> {
    let mut pairs: Vec<(K, usize)> = Vec::with_capacity(rows.live());
    pairs.extend(
        cells
            .enumerate()
            .filter(|&(id, _)| rows.is_live(id))
            .map(|(id, cell)| (key(cell), id)),
    );
    pairs.sort_unstable();
    let same_key = |a: &(K, usize), b: &(K, usize)| a.0 == b.0;
    let mut entries = Vec::with_capacity(pairs.chunk_by(same_key).count());
    for run in pairs.chunk_by(same_key) {
        let posting = match run {
            [(_, id)] => Posting::One(*id),
            _ => Posting::Many(run.iter().map(|(_, id)| *id).collect()),
        };
        entries.push((run[0].0.clone(), posting));
    }
    // The pairs are spent: free them before the tree is allocated.
    drop(pairs);
    BPlusTree::bulk_load(entries)
}

/// A relation plus B⁺-tree secondary indexes on selected columns.
#[derive(Debug, Clone)]
pub struct IndexedRelation {
    /// Row slots under their schema, one typed column per schema column
    /// plus a live-row bitmap: deletes never shift surviving row ids, so
    /// posting lists stay valid.
    rows: Columns,
    /// One slot per schema column; `Some` where the column is indexed.
    indexes: Vec<Option<ColumnIndex>>,
}

impl IndexedRelation {
    /// Preprocess a relation by building indexes on `cols`: one sort per
    /// indexed column, O(n log n). The rows were admitted when the
    /// relation was made; they are copied into columns, not re-checked.
    ///
    /// Every entry of `cols` must name a column of the schema; an
    /// out-of-range column is reported as an error instead of panicking
    /// during index maintenance.
    pub fn build(relation: &Relation, cols: &[usize]) -> Result<Self, IndexedError> {
        Self::from_columns(relation.columns().clone(), cols)
    }

    /// [`Self::build`] into `parts` relations at once: row `i` of
    /// `relation` becomes the next row (ids dense, in arrival order) of
    /// part `part[i]`, which must be `< parts` — the caller routes each
    /// row once, into `part`, which is dropped once the columns are
    /// split. Each part's columns are sized exactly, filled column by
    /// column out of the relation's, and then indexed on `cols` by
    /// [`Self::from_columns`] — the per-shard `Π` of a partitioned
    /// relation, with no staging copy of the rows.
    pub fn build_split(
        relation: &Relation,
        parts: usize,
        part: Vec<u32>,
        cols: &[usize],
    ) -> Result<Vec<Self>, IndexedError> {
        let split = Columns::split(relation.columns(), parts, &part);
        drop(part);
        split
            .into_iter()
            .map(|rows| Self::from_columns(rows, cols))
            .collect()
    }

    /// [`Self::build`] over rows the caller hands over: row `i` gets id
    /// `i`, and each row is admitted by the schema before it is indexed.
    /// The rows are consumed straight into the columns
    /// ([`Columns::from_rows`]); no plain [`Relation`] is staged.
    pub fn build_from_rows(
        schema: Schema,
        rows: Vec<Vec<Value>>,
        cols: &[usize],
    ) -> Result<Self, IndexedError> {
        Self::check_columns(&schema, cols)?;
        let rows = Columns::from_rows(schema, rows).map_err(IndexedError::RowRejected)?;
        Self::from_columns(rows, cols)
    }

    /// Index `cols` of `rows` — the one constructor behind every
    /// `IndexedRelation`. [`Self::build_split`] hands it freshly split
    /// columns; the `pitract-store` loader hands it the slots a snapshot
    /// decoded, tombstones included ([`Columns::push_slot`] admitted
    /// every live row on the way in). Each indexed column is one sort of
    /// its live slots, so a tombstone's placeholder is never posted; a
    /// column named twice is indexed once.
    pub fn from_columns(mut rows: Columns, cols: &[usize]) -> Result<Self, IndexedError> {
        Self::check_columns(rows.schema(), cols)?;
        rows.shrink_to_fit();
        let mut indexes: Vec<Option<ColumnIndex>> = vec![None; rows.schema().arity()];
        for &col in cols {
            if indexes[col].is_none() {
                indexes[col] = Some(ColumnIndex::build(&rows, col));
            }
        }
        Ok(IndexedRelation { rows, indexes })
    }

    /// Does every entry of `cols` name a column of `schema`? The check
    /// [`Self::build`] makes before any work.
    pub fn check_columns(schema: &Schema, cols: &[usize]) -> Result<(), IndexedError> {
        let arity = schema.arity();
        match cols.iter().find(|&&col| col >= arity) {
            Some(&col) => Err(IndexedError::ColumnOutOfRange { col, arity }),
            None => Ok(()),
        }
    }

    /// Schema of the underlying relation.
    pub fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.rows.live()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which columns are indexed? Ascending.
    pub fn indexed_columns(&self) -> Vec<usize> {
        (0..self.indexes.len())
            .filter(|&col| self.is_indexed(col))
            .collect()
    }

    /// Is `col` a column of the schema with an index on it?
    pub fn is_indexed(&self, col: usize) -> bool {
        self.index(col).is_some()
    }

    /// The index on `col`, if the column exists and is indexed.
    fn index(&self, col: usize) -> Option<&ColumnIndex> {
        self.indexes.get(col)?.as_ref()
    }

    /// Insert a tuple, maintaining every index. Returns the row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<usize, IndexedError> {
        self.schema()
            .admits(&row)
            .map_err(IndexedError::RowRejected)?;
        Ok(self.insert_admitted(&row))
    }

    /// [`Self::insert`] for a row the caller has already checked with
    /// [`crate::Schema::admits`] against this relation's schema, so it
    /// cannot fail: a live relation checks each row once, before it logs
    /// the insert, and then must apply what it logged.
    pub fn insert_admitted(&mut self, row: &[Value]) -> usize {
        let id = self.rows.slot_count();
        for (index, value) in self.indexes.iter_mut().zip(row) {
            if let Some(index) = index {
                index.post(value, id);
            }
        }
        self.rows.push_row(row);
        id
    }

    /// Delete a tuple by row id, maintaining every index. Returns the
    /// removed tuple (materialised out of the columns), or `None` if the
    /// id was already deleted/invalid.
    pub fn delete(&mut self, id: usize) -> Option<Vec<Value>> {
        let row = self.rows.row(id)?.to_vec();
        for (index, value) in self.indexes.iter_mut().zip(&row) {
            if let Some(index) = index {
                index.unpost(value, id);
            }
        }
        self.rows.kill(id);
        Some(row)
    }

    /// Live row ids whose `col` equals `value` (empty if none or column
    /// unindexed — callers should check [`IndexedRelation::indexed_columns`]).
    pub fn row_ids_eq(&self, col: usize, value: &Value) -> Vec<usize> {
        self.index(col)
            .map_or_else(Vec::new, |index| index.ids_eq(value).to_vec())
    }

    /// The live tuple stored under `id`, or `None` if `id` was deleted or
    /// never assigned.
    pub fn row(&self, id: usize) -> Option<RowRef<'_>> {
        self.rows.row(id)
    }

    /// Live row ids whose `col` falls in `[lo, hi]` (bounds as given),
    /// ascending. Empty if the column is unindexed.
    pub fn row_ids_in_range(&self, col: usize, lo: &Bound<Value>, hi: &Bound<Value>) -> Vec<usize> {
        let mut ids = Vec::new();
        if let Some(index) = self.index(col) {
            index.ids_in_range_into(lo, hi, &mut ids);
        }
        ids
    }

    /// Enumerate (ascending) the ids of all live rows matching `q`,
    /// routing through the same access paths as [`Self::answer_metered`]:
    /// point probe, range probe, index-nested-loop conjunction, scan.
    ///
    /// This is the enumeration mode of the serving layer: the Boolean
    /// answer is `!ids.is_empty()`, but callers that need the witnesses
    /// get them directly. [`Self::matching_ids_into`] is the same walk
    /// appending to a caller's buffer.
    pub fn matching_ids_metered(&self, q: &SelectionQuery, meter: &Meter) -> Vec<usize> {
        let mut ids = Vec::new();
        self.matching_ids_into(q, meter, &mut ids);
        ids
    }

    /// [`Self::matching_ids_metered`] appending to `out` instead of
    /// allocating: the ids of `q`'s matches land after `out`'s existing
    /// contents, ascending, charged exactly as `matching_ids_metered`
    /// charges them. A row-id shard job gathers all its queries' ids
    /// into one buffer, through this or [`Self::matching_many_into`]
    /// (`pitract-engine`).
    pub fn matching_ids_into(&self, q: &SelectionQuery, meter: &Meter, out: &mut Vec<usize>) {
        match self.probe(q) {
            Some(leaf) => meter.add(self.matching(q, self.probed(leaf), out)),
            // Tombstoned slots are walked too — that is real work the
            // scan performs, so the meter charges it (and the planner
            // estimates scans against slot count, not live count).
            None => {
                let residual = Residual::new(&self.rows, q, None);
                out.extend((0..self.slot_count()).filter(|&id| {
                    meter.tick();
                    self.rows.is_live(id) && residual.holds(id)
                }));
            }
        }
    }

    /// The conjunct an index-nested-loop drives through
    /// ([`SelectionQuery::driving_conjunct`] over this relation's
    /// indexes): the single routing policy shared by
    /// [`Self::answer_metered`], [`Self::answer_metered_below`] and
    /// [`Self::matching_ids_metered`], and — through the same walk — by
    /// the `pitract-engine` planner.
    fn driving_conjunct<'a>(&self, q: &'a SelectionQuery) -> Option<&'a SelectionQuery> {
        q.driving_conjunct(&|col| self.index(col).is_some())
    }

    /// The leaf whose tree `q` descends: `q` itself when it is a point
    /// or range on an indexed column, a conjunction's driving conjunct,
    /// `None` when `q` is answered by a scan.
    fn probe<'q>(&self, q: &'q SelectionQuery) -> Option<&'q SelectionQuery> {
        match q {
            SelectionQuery::And(..) => self.driving_conjunct(q),
            leaf => self.is_indexed(leaf_column(leaf)).then_some(leaf),
        }
    }

    /// The column whose index `q` probes — its own for a point or range,
    /// its driving conjunct's for a conjunction — or `None` when `q` is
    /// answered by a scan. The queries [`Self::answer_many_metered`] and
    /// [`Self::matching_many_into`] take for one column are exactly the
    /// ones this names it for.
    pub fn probed_column(&self, q: &SelectionQuery) -> Option<usize> {
        self.probe(q).map(leaf_column)
    }

    /// The index behind a leaf [`Self::probe`] returned.
    fn driving_index(&self, col: usize) -> &ColumnIndex {
        self.index(col)
            .expect("driving conjuncts are on indexed columns")
    }

    /// What the index finds for the probed `leaf` on its own.
    fn probed<'a>(&'a self, leaf: &'a SelectionQuery) -> Found<'a> {
        let index = self.driving_index(leaf_column(leaf));
        match leaf {
            SelectionQuery::Point { value, .. } => {
                let comparisons = Meter::new();
                let posting = index.get_metered(value, &comparisons);
                Found::Point(index, posting, comparisons.steps())
            }
            SelectionQuery::Range { lo, hi, .. } => Found::Range(index, index.postings_in(lo, hi)),
            SelectionQuery::And(..) => unreachable!("a probe is a leaf"),
        }
    }

    /// What a conjunction must still satisfy once its driving conjunct
    /// produced it as a candidate.
    fn residual<'a>(&'a self, q: &'a SelectionQuery) -> Residual<'a> {
        Residual::new(&self.rows, q, self.driving_conjunct(q))
    }

    /// The Boolean answer to `q` from what its probe found, and its
    /// steps: a point's key comparisons; otherwise one descent, plus one
    /// tick per candidate a conjunction examines, up to the first that
    /// passes its [`Residual`]. A range-driven conjunction examines its
    /// candidates posting by posting, in key order.
    fn exists(&self, q: &SelectionQuery, found: Found<'_>) -> (bool, u64) {
        match (q, found) {
            (SelectionQuery::And(..), Found::Point(index, posting, _)) => {
                let mut steps = tree_descent_cost(index);
                let ids = posting.map_or(&[][..], Posting::as_slice);
                (self.residual(q).any(ids, &mut steps), steps)
            }
            (SelectionQuery::And(..), Found::Range(index, mut postings)) => {
                let mut steps = tree_descent_cost(index);
                let residual = self.residual(q);
                let hit = postings.any(|posting| residual.any(posting.as_slice(), &mut steps));
                (hit, steps)
            }
            (_, Found::Point(_, posting, comparisons)) => (posting.is_some(), comparisons),
            (_, Found::Range(index, mut postings)) => {
                (postings.next().is_some(), tree_descent_cost(index))
            }
        }
    }

    /// Append the ids of `q`'s matches to `out`, ascending, from what
    /// its probe found, and return its steps: one descent plus every id
    /// the probe produced — a conjunction's candidates, each checked
    /// against its [`Residual`].
    fn matching(&self, q: &SelectionQuery, found: Found<'_>, out: &mut Vec<usize>) -> u64 {
        let start = out.len();
        let index = match found {
            Found::Point(index, posting, _) => {
                out.extend_from_slice(posting.map_or(&[][..], Posting::as_slice));
                index
            }
            Found::Range(index, postings) => {
                gather(postings, out);
                index
            }
        };
        let candidates = out.len() - start;
        if let SelectionQuery::And(..) = q {
            // The candidates are filtered where they lie.
            let residual = self.residual(q);
            let mut kept = start;
            for at in start..out.len() {
                let id = out[at];
                if residual.holds(id) {
                    out[kept] = id;
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
        tree_descent_cost(index) + candidates as u64
    }

    /// Answer a Boolean selection query, preferring indexes and falling
    /// back to a scan. The meter prices every comparison / probe.
    pub fn answer_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        let Some(leaf) = self.probe(q) else {
            return self.scan_metered(q, meter);
        };
        let (hit, steps) = self.exists(q, self.probed(leaf));
        meter.add(steps);
        hit
    }

    /// Many Boolean queries that probe the index on `col`
    /// ([`Self::probed_column`]) at once, the batched twin of
    /// [`Self::answer_metered`]: `found(tag, answer, steps)` is called
    /// once per `(tag, query)` with what `answer_metered` returns and
    /// charges for it, in probe order. Every query's probe — a point, a
    /// range start, or a conjunction's driving conjunct — goes down the
    /// tree with the others, in groups ([`BPlusTree::descend_many`]); a
    /// conjunction's candidates are then checked against its residual,
    /// its other conjuncts resolved once to typed checks over the
    /// columns.
    ///
    /// Panics if `col` is not indexed.
    pub fn answer_many_metered<'q, T: Copy>(
        &'q self,
        col: usize,
        queries: impl Iterator<Item = (T, &'q SelectionQuery)>,
        mut found: impl FnMut(T, bool, u64),
    ) {
        let index = self.driving_index(col);
        index.descend_many(self.probes(col, queries), |(tag, q), probed| {
            let (hit, steps) = self.exists(q, probed);
            found(tag, hit, steps);
        });
    }

    /// [`Self::answer_many_metered`] in row-id mode, the batched twin of
    /// [`Self::matching_ids_into`]: each query's ids are appended to
    /// `out`, ascending, and `found(tag, span, steps)` names the span of
    /// `out` they landed in, charged as `matching_ids_into` charges
    /// them, in probe order.
    ///
    /// Panics if `col` is not indexed.
    pub fn matching_many_into<'q, T: Copy>(
        &'q self,
        col: usize,
        queries: impl Iterator<Item = (T, &'q SelectionQuery)>,
        out: &mut Vec<usize>,
        mut found: impl FnMut(T, Range<usize>, u64),
    ) {
        let index = self.driving_index(col);
        index.descend_many(self.probes(col, queries), |(tag, q), probed| {
            let start = out.len();
            let steps = self.matching(q, probed, out);
            found(tag, start..out.len(), steps);
        });
    }

    /// Each `(tag, query)` that probes the index on `col`, with the leaf
    /// it probes.
    fn probes<'q, T: Copy>(
        &'q self,
        col: usize,
        queries: impl Iterator<Item = (T, &'q SelectionQuery)>,
    ) -> impl Iterator<Item = ((T, &'q SelectionQuery), &'q SelectionQuery)> {
        queries.map(move |(tag, q)| {
            let leaf = self.probe(q).expect("the query probes an index");
            debug_assert_eq!(leaf_column(leaf), col, "{q:?} probes another column");
            ((tag, q), leaf)
        })
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
        match (q, self.probe(q)) {
            (_, None) => self.scan_metered_below(q, meter, bound),
            (SelectionQuery::Point { col, value }, Some(_)) => self
                .driving_index(*col)
                .get_metered(value, meter)
                .is_some_and(|posting| posting.first() < bound),
            (SelectionQuery::Range { col, lo, hi }, Some(_)) => {
                let index = self.driving_index(*col);
                meter.add(tree_descent_cost(index));
                index.postings_in(lo, hi).any(|posting| {
                    meter.tick();
                    posting.first() < bound
                })
            }
            (SelectionQuery::And(..), Some(leaf)) => {
                // The candidates in id order: a point's posting as it
                // stands, a range's postings gathered.
                let (index, candidates) = match self.probed(leaf) {
                    Found::Point(index, posting, _) => {
                        let ids = posting.map_or(&[][..], Posting::as_slice);
                        (index, Cow::Borrowed(ids))
                    }
                    Found::Range(index, postings) => {
                        let mut ids = Vec::new();
                        gather(postings, &mut ids);
                        (index, Cow::Owned(ids))
                    }
                };
                let visible = &candidates[..candidates.partition_point(|&id| id < bound)];
                let mut steps = tree_descent_cost(index);
                let hit = Residual::new(&self.rows, q, Some(leaf)).any(visible, &mut steps);
                meter.add(steps);
                hit
            }
        }
    }

    /// Every slot below `bound` in id order, one tick each, tombstones
    /// included, up to the first live row `q` matches.
    fn scan_metered_below(&self, q: &SelectionQuery, meter: &Meter, bound: usize) -> bool {
        let residual = Residual::new(&self.rows, q, None);
        (0..self.slot_count().min(bound)).any(|id| {
            meter.tick();
            self.rows.is_live(id) && residual.holds(id)
        })
    }

    fn scan_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        // Every slot visited costs a step, tombstones included (the scan
        // cannot skip them without an index).
        self.scan_metered_below(q, meter, usize::MAX)
    }

    /// Export the live tuples as a plain relation (test/diagnostic aid),
    /// copied cell by cell out of the columns.
    pub fn to_relation(&self) -> Relation {
        let mut relation = Relation::new(self.schema().clone());
        for row in self.slots().flatten() {
            relation
                .insert_tuple(row)
                .expect("rows were validated on insert");
        }
        relation
    }

    /// Every row slot in id order, tombstones as `None` (persistence
    /// accessor: serializing the slots verbatim is what keeps row ids
    /// stable across a save/load cycle).
    pub fn slots(&self) -> impl ExactSizeIterator<Item = Option<RowRef<'_>>> + '_ {
        (0..self.slot_count()).map(|id| self.row(id))
    }

    /// Number of row slots ever assigned (live rows plus tombstones; the
    /// id space upper bound).
    pub fn slot_count(&self) -> usize {
        self.rows.slot_count()
    }

    /// The row store, tombstones included (persistence accessor: a
    /// columnar snapshot writes its bitmap and live cells as they lie).
    pub fn columns(&self) -> &Columns {
        &self.rows
    }
}

/// Approximate comparison cost of one descent, charged to the meter for
/// operations (like range probes) that use the unmetered tree API.
/// 2·⌈log₂ keys⌉, at least 2 keys.
fn tree_descent_cost(index: &ColumnIndex) -> u64 {
    let keys = index.len().max(2);
    2 * u64::from(usize::BITS - (keys - 1).leading_zeros())
}

/// What an index probe found: a point's posting, with the key
/// comparisons its descent spent, or a range's postings — each with the
/// index it probed.
enum Found<'a> {
    Point(&'a ColumnIndex, Option<&'a Posting>, u64),
    Range(&'a ColumnIndex, Postings<'a>),
}

/// Append the ids of `postings` to `out`, the appended run ascending.
fn gather<'a>(postings: impl Iterator<Item = &'a Posting>, out: &mut Vec<usize>) {
    let start = out.len();
    for posting in postings {
        out.extend_from_slice(posting.as_slice());
    }
    out[start..].sort_unstable();
}

mod residual;

#[cfg(test)]
mod oracle;

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
    fn postings_cross_between_inline_and_spilled_both_ways() {
        assert_eq!(
            std::mem::size_of::<Posting>(),
            3 * std::mem::size_of::<usize>(),
            "an inline posting costs no more than the Vec it avoids"
        );
        let mut ir = IndexedRelation::build(&big_relation(0), &[1]).unwrap();
        let posting = |ir: &IndexedRelation| match &ir.indexes[1] {
            Some(ColumnIndex::Str(tree)) => tree.get(&"x".to_string()).cloned(),
            other => panic!("city is a Str column, got {other:?}"),
        };
        assert_eq!(posting(&ir), None);
        for (id, expect) in [
            Posting::One(0),
            Posting::Many(vec![0, 1]),
            Posting::Many(vec![0, 1, 2]),
        ]
        .into_iter()
        .enumerate()
        {
            ir.insert(vec![Value::Int(id as i64), Value::str("x")])
                .unwrap();
            assert_eq!(posting(&ir), Some(expect));
        }
        ir.delete(1);
        assert_eq!(posting(&ir), Some(Posting::Many(vec![0, 2])));
        ir.delete(0);
        assert_eq!(posting(&ir), Some(Posting::One(2)), "demoted to inline");
        ir.delete(2);
        assert_eq!(posting(&ir), None, "the emptied key left the tree");
        assert_eq!(ir.indexes[1].as_ref().unwrap().len(), 0);
    }

    #[test]
    fn mistyped_probes_keep_the_value_order() {
        let rel = big_relation(100);
        let ir = IndexedRelation::build(&rel, &[0, 1]).unwrap();
        let meter = Meter::new();
        // A point of the wrong type matches nothing, for one charged step.
        for q in [
            SelectionQuery::point(0, "city3"),
            SelectionQuery::point(1, 3i64),
        ] {
            meter.take();
            assert!(!ir.answer_metered(&q, &meter), "{q:?}");
            assert_eq!(meter.steps(), 1, "{q:?}");
            assert!(ir.matching_ids_metered(&q, &meter).is_empty(), "{q:?}");
        }
        // Every Int sorts below every Str: a Str bound is above all of an
        // Int column (no upper bound / empty as a lower one), an Int bound
        // below all of a Str column (the reverse).
        let range = |col, lo, hi| SelectionQuery::Range { col, lo, hi };
        let (int, text) = (Value::Int(90), Value::str("city5"));
        let s = |v: &Value| Bound::Included(v.clone());
        for (q, matches) in [
            (range(0, s(&int), s(&text)), 10),
            (range(0, s(&text), Bound::Unbounded), 0),
            (range(0, Bound::Excluded(text.clone()), s(&int)), 0),
            (range(1, s(&int), s(&text)), 60),
            (range(1, Bound::Unbounded, s(&int)), 0),
            (range(1, s(&text), Bound::Excluded(int.clone())), 0),
        ] {
            assert_eq!(rel.count_where(&q), matches, "the scan's view of {q:?}");
            assert_eq!(ir.matching_ids_metered(&q, &meter).len(), matches, "{q:?}");
            assert_eq!(ir.answer(&q), matches > 0, "{q:?}");
        }
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
        // Regression (stringly-typed error path): build/insert/from_columns
        // all return `IndexedError` now, a real `std::error::Error` with
        // distinct, specific Display per failure class.
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&IndexedError::ColumnOutOfRange { col: 1, arity: 1 });

        let mut ir = IndexedRelation::build(&big_relation(5), &[0]).unwrap();
        let err = ir.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, IndexedError::RowRejected(_)), "{err}");

        let cases = [
            IndexedError::ColumnOutOfRange { col: 9, arity: 2 }.to_string(),
            IndexedError::RowRejected("arity".into()).to_string(),
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
            let expect: Vec<usize> = (0..ir.slot_count())
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
        let descent = |col: usize| tree_descent_cost(ir.indexes[col].as_ref().unwrap());
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

    /// One index's `(key, posting)` entries in key order.
    pub(super) type Entries = Vec<(Value, Vec<usize>)>;

    /// Every indexed column with its entries, read straight out of the
    /// trees.
    pub(super) fn postings(ir: &IndexedRelation) -> Vec<(usize, Entries)> {
        ir.indexed_columns()
            .into_iter()
            .map(|col| {
                let index = ir.index(col).expect("column is indexed");
                let entries = with_tree!(index, tree => tree
                    .iter()
                    .map(|(key, posting)| (Value::from(key.to_owned()), posting.as_slice().to_vec()))
                    .collect());
                (col, entries)
            })
            .collect()
    }

    /// `ir` reassembled the way a snapshot load does it: every slot,
    /// tombstones included, appended through [`Columns::push_slot`], then
    /// indexed on the same columns by [`IndexedRelation::from_columns`].
    pub(super) fn reload(ir: &IndexedRelation) -> IndexedRelation {
        let mut rows = Columns::new(ir.schema().clone());
        for slot in ir.slots() {
            rows.push_slot(slot.map(RowRef::to_vec).as_deref()).unwrap();
        }
        IndexedRelation::from_columns(rows, &ir.indexed_columns()).unwrap()
    }

    #[test]
    fn from_columns_preserves_answers_and_ids() {
        let mut ir = IndexedRelation::build(&big_relation(100), &[0, 1]).unwrap();
        ir.delete(17);
        ir.delete(40);
        ir.insert(vec![Value::Int(777), Value::str("late")])
            .unwrap();
        let rebuilt = reload(&ir);
        assert_eq!(rebuilt.len(), ir.len());
        assert_eq!(rebuilt.slot_count(), ir.slot_count());
        assert_eq!(rebuilt.indexed_columns(), ir.indexed_columns());
        assert_eq!(postings(&rebuilt), postings(&ir));
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
    fn from_columns_rejects_out_of_range_columns() {
        let rows = || big_relation(10).columns().clone();
        assert_eq!(
            IndexedRelation::from_columns(rows(), &[0, 5]).unwrap_err(),
            IndexedError::ColumnOutOfRange { col: 5, arity: 2 }
        );
        let twice = IndexedRelation::from_columns(rows(), &[1, 1]).unwrap();
        assert_eq!(
            twice.indexed_columns(),
            vec![1],
            "a repeated column is one index"
        );
    }

    /// A dead slot's cells — a tombstone's `0` / `""` placeholder, or a
    /// deleted row's leftover — are never posted: a probe for the
    /// placeholder value sees only live rows, before and after a row
    /// holding it arrives.
    #[test]
    fn placeholders_are_never_posted() {
        let mut rows = Columns::new(schema());
        rows.push_slot(None).unwrap();
        rows.push_slot(Some(&[Value::Int(5), Value::str("x")]))
            .unwrap();
        let mut ir = IndexedRelation::from_columns(rows, &[0, 1]).unwrap();
        ir.insert(vec![Value::Int(0), Value::str("")]).unwrap();
        ir.delete(2);
        let zero = SelectionQuery::point(0, 0i64);
        let empty = SelectionQuery::point(1, "");
        let around = SelectionQuery::range_closed(0, -1i64, 1i64);
        let meter = Meter::new();
        for ir in [&ir, &reload(&ir)] {
            for q in [&zero, &empty, &around] {
                assert!(!ir.answer(q), "{q:?}");
                assert!(ir.matching_ids_metered(q, &meter).is_empty(), "{q:?}");
            }
            assert_eq!(postings(ir)[0].1, vec![(Value::Int(5), vec![1])]);
        }
        let id = ir.insert(vec![Value::Int(0), Value::str("")]).unwrap();
        for q in [&zero, &empty, &around] {
            assert_eq!(ir.matching_ids_metered(q, &meter), vec![id], "{q:?}");
        }
    }

    #[test]
    fn row_ids_eq_returns_live_ids() {
        let ir = IndexedRelation::build(&big_relation(30), &[1]).unwrap();
        let ids = ir.row_ids_eq(1, &Value::str("city2"));
        assert_eq!(ids, vec![2, 12, 22]);
        assert!(ir.row_ids_eq(0, &Value::Int(1)).is_empty(), "unindexed col");
    }
}
