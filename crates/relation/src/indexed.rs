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
//!   it reads a `&[Value]`, so a scan or an index-nested-loop
//!   verification compares machine integers and `&str`s, not heap rows.
//!   [`IndexedRelation::delete`] materialises the row it returns.
//! * **Tombstone placeholders.** A delete clears the slot's bit and
//!   leaves its cells where they are (the arena cannot close a gap
//!   without moving every later cell); a tombstone a load appends
//!   ([`Columns::push_slot`], behind [`IndexedRelation::from_columns`]
//!   and [`IndexedRelation::from_parts`]) is stored as `0` / `""`.
//!   Either way the bitmap hides the cells: no read path looks at a dead
//!   slot's cells, and the snapshot writes a tombstone as a tombstone.
//! * **Build by routing, not by staging.** [`IndexedRelation::build`]
//!   and [`IndexedRelation::build_split`] size each part's columns from
//!   one pass over the relation and append every row's cells in a second;
//!   no row is cloned, staged, or admitted twice.
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
//! * **Build by sort.** [`IndexedRelation::build`] collects one column's
//!   `(key, id)` pairs, sorts them, groups equal keys into postings and
//!   hands the ascending run to [`BPlusTree::bulk_load`] — leaves come out
//!   ⅔ full and nothing descends the tree. Columns are built one after
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
//! What the layout did **not** change: a metered point probe still ticks
//! once per key comparison ([`BPlusTree::get_metered`]), every other
//! path still charges `tree_descent_cost` = 2·⌈log₂ keys⌉ plus the ids
//! it touches, and a scan still ticks once per slot, tombstones
//! included. Neither typed keys nor typed columns moved a metered step.
//!
//! [`ValueRef`]: crate::value::ValueRef

use crate::columns::{Column, Columns, RowRef};
use crate::query::SelectionQuery;
use crate::relation::Relation;
use crate::schema::{ColType, Schema};
use crate::value::Value;
use pitract_core::cost::Meter;
use pitract_index::bptree::BPlusTree;
use std::borrow::Cow;
use std::fmt;
use std::ops::Bound;

/// One persisted secondary index in flat form: the column it covers, its
/// ascending keys, and the keys' posting lists laid end to end — key `i`
/// posts the next `lens[i]` entries of `ids`. Three allocations however
/// many keys there are; [`IndexedRelation::from_parts`] validates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntries {
    /// The indexed column.
    pub col: usize,
    /// The distinct keys, ascending.
    pub keys: Vec<Value>,
    /// Posting-list length per key.
    pub lens: Vec<usize>,
    /// Every posting list, concatenated in key order.
    pub ids: Vec<usize>,
}

impl IndexEntries {
    /// No entries yet, for an index on `col`.
    pub fn new(col: usize) -> Self {
        IndexEntries {
            col,
            keys: Vec::new(),
            lens: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Append one key and its posting list.
    pub fn push(&mut self, key: Value, posting: &[usize]) {
        self.keys.push(key);
        self.lens.push(posting.len());
        self.ids.extend_from_slice(posting);
    }
}

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
    /// `from_parts`: an index's flat entries disagree with each other —
    /// the posting lengths do not pair up with the keys, or do not add up
    /// to the ids supplied.
    MalformedEntries {
        /// The index's column.
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
            IndexedError::MalformedEntries { col } => {
                write!(
                    f,
                    "index on column {col}: posting lengths do not match the keys and ids"
                )
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

/// The row ids posted under one key: one id inline, a `Vec` from the
/// second on. Never empty while it sits in a tree, always ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Posting {
    One(usize),
    /// At least two ids.
    Many(Vec<usize>),
}

impl Posting {
    /// A posting holding the (non-empty, ascending) `ids`.
    fn from_ascending(ids: &[usize]) -> Self {
        debug_assert!(!ids.is_empty(), "a key posts at least one row");
        match ids {
            [id] => Posting::One(*id),
            _ => Posting::Many(ids.to_vec()),
        }
    }

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
trait IndexKey: Ord + Clone + fmt::Debug {
    /// The payload of `v`, if `v` has this type.
    fn of(v: &Value) -> Option<&Self>;
    /// [`Self::of`], by value.
    fn from_value(v: Value) -> Option<Self>;
    fn to_value(&self) -> Value;
}

impl IndexKey for i64 {
    fn of(v: &Value) -> Option<&i64> {
        match v {
            Value::Int(i) => Some(i),
            Value::Str(_) => None,
        }
    }

    fn from_value(v: Value) -> Option<i64> {
        v.as_int()
    }

    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}

impl IndexKey for String {
    fn of(v: &Value) -> Option<&String> {
        match v {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    fn from_value(v: Value) -> Option<String> {
        match v {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    fn to_value(&self) -> Value {
        Value::Str(self.clone())
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
    /// Index `column` (no tombstones: ids = positions) by sorting, not
    /// by descent. The column's own slice is the key source: an `Int`
    /// key is copied out of a `Vec<i64>`, a `Str` key out of the arena.
    fn build(column: &Column) -> Self {
        match column {
            Column::Int(ints) => ColumnIndex::Int(sorted_tree(ints.iter().copied())),
            Column::Str(strs) => ColumnIndex::Str(sorted_tree(strs.iter().map(str::to_owned))),
        }
    }

    /// Pack validated flat entries (see [`IndexedRelation::from_parts`]).
    fn from_entries(ty: ColType, keys: Vec<Value>, lens: &[usize], ids: &[usize]) -> Self {
        match ty {
            ColType::Int => ColumnIndex::Int(packed_tree(keys, lens, ids)),
            ColType::Str => ColumnIndex::Str(packed_tree(keys, lens, ids)),
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

    /// Does `hit` accept any posting keyed within the bounds? Walks the
    /// leaf chain in key order and stops at the first acceptance — the
    /// one range body behind every range access path.
    fn any_posting_in(
        &self,
        lo: &Bound<Value>,
        hi: &Bound<Value>,
        mut hit: impl FnMut(&Posting) -> bool,
    ) -> bool {
        with_tree!(self, tree => match typed_range(lo, hi) {
            Some((lo, hi)) => tree.range(lo, hi).any(|(_, posting)| hit(posting)),
            None => false,
        })
    }

    /// Every row id posted under a key within the bounds, ascending.
    fn ids_in_range(&self, lo: &Bound<Value>, hi: &Bound<Value>) -> Vec<usize> {
        let mut ids = Vec::new();
        self.any_posting_in(lo, hi, |posting| {
            ids.extend_from_slice(posting.as_slice());
            false
        });
        ids.sort_unstable();
        ids
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

    fn postings(&self) -> IndexPostings<'_> {
        IndexPostings {
            keys: self.len(),
            entries: with_tree!(self, tree => Box::new(
                tree.iter().map(|(key, posting)| (key.to_value(), posting.as_slice()))
            )),
        }
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

/// Build one column's tree by sort: `(key, id)` pairs (`id` = position
/// in `keys`), sorted, equal keys grouped into ascending postings,
/// bulk-loaded.
fn sorted_tree<K: IndexKey>(keys: impl Iterator<Item = K>) -> BPlusTree<K, Posting> {
    let mut pairs: Vec<(K, usize)> = keys.enumerate().map(|(id, key)| (key, id)).collect();
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

/// Bulk-load flat entries that [`IndexedRelation::from_parts`] has
/// validated: `lens` sums to `ids.len()`, and every key equals the
/// indexed column of a live, schema-admitted row — so it has type `K`.
fn packed_tree<K: IndexKey>(
    keys: Vec<Value>,
    lens: &[usize],
    mut ids: &[usize],
) -> BPlusTree<K, Posting> {
    let entries = keys
        .into_iter()
        .zip(lens)
        .map(|(key, &len)| {
            let (posting, rest) = ids.split_at(len);
            ids = rest;
            let key = K::from_value(key).expect("a validated key has the column's type");
            (key, Posting::from_ascending(posting))
        })
        .collect();
    BPlusTree::bulk_load(entries)
}

/// One index's `(key, posting list)` entries in ascending key order
/// ([`IndexedRelation::index_postings`]).
pub struct IndexPostings<'a> {
    keys: usize,
    entries: Box<dyn Iterator<Item = (Value, &'a [usize])> + 'a>,
}

impl IndexPostings<'_> {
    /// Number of distinct keys in the index (entries this iterator had
    /// when it was created).
    pub fn key_count(&self) -> usize {
        self.keys
    }
}

impl<'a> Iterator for IndexPostings<'a> {
    type Item = (Value, &'a [usize]);

    fn next(&mut self) -> Option<Self::Item> {
        self.entries.next()
    }
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
        let mut parts = Self::build_split(relation, 1, |_| 0, cols)?;
        Ok(parts.pop().expect("one part was asked for"))
    }

    /// [`Self::build`] into `parts` relations at once: row `i` of
    /// `relation` becomes the next row (ids dense, in arrival order) of
    /// part `part_of(i)`, which must be `< parts`. Each part's columns are
    /// sized exactly before any row is copied in, and then indexed on
    /// `cols` — the per-shard `Π` of a partitioned relation, with no
    /// staging copy of the rows.
    pub fn build_split(
        relation: &Relation,
        parts: usize,
        part_of: impl Fn(usize) -> usize,
        cols: &[usize],
    ) -> Result<Vec<Self>, IndexedError> {
        let schema = relation.schema();
        Self::check_columns(schema, cols)?;
        Ok(Columns::split(schema, relation.rows(), parts, part_of)
            .into_iter()
            .map(|rows| Self::indexed(rows, cols))
            .collect())
    }

    /// [`Self::build`] over rows the caller hands over: row `i` gets id
    /// `i`, and each row is admitted by the schema before it is indexed.
    pub fn build_from_rows(
        schema: Schema,
        rows: Vec<Vec<Value>>,
        cols: &[usize],
    ) -> Result<Self, IndexedError> {
        Self::check_columns(&schema, cols)?;
        let relation = Relation::from_rows(schema, rows).map_err(IndexedError::RowRejected)?;
        Self::build(&relation, cols)
    }

    /// Index `cols` (checked) of freshly stored `rows`, which hold no
    /// tombstones.
    fn indexed(rows: Columns, cols: &[usize]) -> Self {
        debug_assert_eq!(
            rows.live(),
            rows.slot_count(),
            "a build stores no tombstones"
        );
        let mut indexes: Vec<Option<ColumnIndex>> = vec![None; rows.schema().arity()];
        for &col in cols {
            if indexes[col].is_none() {
                indexes[col] = Some(ColumnIndex::build(rows.column(col)));
            }
        }
        IndexedRelation { rows, indexes }
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
            .filter(|&col| self.indexes[col].is_some())
            .collect()
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
        let id = self.rows.slot_count();
        for (index, value) in self.indexes.iter_mut().zip(&row) {
            if let Some(index) = index {
                index.post(value, id);
            }
        }
        self.rows.push(Some(&row));
        Ok(id)
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
        self.index(col)
            .map_or_else(Vec::new, |index| index.ids_in_range(lo, hi))
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
            SelectionQuery::Point { col, value } => match self.index(*col) {
                Some(index) => probed(index, index.ids_eq(value).to_vec(), meter),
                None => self.scan_ids_metered(q, meter),
            },
            SelectionQuery::Range { col, lo, hi } => match self.index(*col) {
                Some(index) => probed(index, index.ids_in_range(lo, hi), meter),
                None => self.scan_ids_metered(q, meter),
            },
            SelectionQuery::And(_, _) => match self.driving_conjunct(q) {
                Some(driving) => self
                    .driving_candidates(driving, meter)
                    .iter()
                    .copied()
                    .filter(|&id| {
                        meter.tick();
                        self.row(id).is_some_and(|row| q.matches(row))
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
        q.driving_conjunct(&|col| self.index(col).is_some())
    }

    /// The index behind a conjunct [`Self::driving_conjunct`] returned.
    fn driving_index(&self, col: usize) -> &ColumnIndex {
        self.index(col)
            .expect("driving conjuncts are on indexed columns")
    }

    /// Candidate row ids (ascending) produced by probing the driving
    /// conjunct's index, charging one tree descent: a point's posting
    /// list is borrowed as it stands, a range's postings are gathered.
    /// Only called with a point/range conjunct returned by
    /// [`Self::driving_conjunct`].
    fn driving_candidates(&self, driving: &SelectionQuery, meter: &Meter) -> Cow<'_, [usize]> {
        match driving {
            SelectionQuery::Point { col, value } => {
                let index = self.driving_index(*col);
                meter.add(tree_descent_cost(index));
                Cow::Borrowed(index.ids_eq(value))
            }
            SelectionQuery::Range { col, lo, hi } => {
                let index = self.driving_index(*col);
                meter.add(tree_descent_cost(index));
                Cow::Owned(index.ids_in_range(lo, hi))
            }
            SelectionQuery::And(_, _) => unreachable!("driving conjuncts are leaves"),
        }
    }

    fn scan_ids_metered(&self, q: &SelectionQuery, meter: &Meter) -> Vec<usize> {
        (0..self.slot_count())
            .filter(|&id| {
                // Tombstoned slots are walked too — that is real work the
                // scan performs, so the meter charges it (and the planner
                // estimates scans against slot count, not live count).
                meter.tick();
                self.row(id).is_some_and(|row| q.matches(row))
            })
            .collect()
    }

    /// Answer a Boolean selection query, preferring indexes and falling
    /// back to a scan. The meter prices every comparison / probe.
    pub fn answer_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        match q {
            SelectionQuery::Point { col, value } => match self.index(*col) {
                Some(index) => index.get_metered(value, meter).is_some(),
                None => self.scan_metered(q, meter),
            },
            SelectionQuery::Range { col, lo, hi } => match self.index(*col) {
                Some(index) => {
                    // One descent to the range start; non-emptiness of the
                    // pruned tree range is the answer. Charge the descent.
                    meter.add(tree_descent_cost(index));
                    index.any_posting_in(lo, hi, |_| true)
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
                let verified = |id: usize| {
                    meter.tick();
                    self.row(id).is_some_and(|row| q.matches(row))
                };
                match self.driving_conjunct(q) {
                    Some(point @ SelectionQuery::Point { .. }) => self
                        .driving_candidates(point, meter)
                        .iter()
                        .any(|&id| verified(id)),
                    Some(SelectionQuery::Range { col, lo, hi }) => {
                        let index = self.driving_index(*col);
                        meter.add(tree_descent_cost(index));
                        index.any_posting_in(lo, hi, |posting| {
                            posting.as_slice().iter().any(|&id| verified(id))
                        })
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
            SelectionQuery::Point { col, value } => match self.index(*col) {
                Some(index) => index
                    .get_metered(value, meter)
                    .is_some_and(|posting| posting.first() < bound),
                None => self.scan_metered_below(q, meter, bound),
            },
            SelectionQuery::Range { col, lo, hi } => match self.index(*col) {
                Some(index) => {
                    meter.add(tree_descent_cost(index));
                    index.any_posting_in(lo, hi, |posting| {
                        meter.tick();
                        posting.first() < bound
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
                        self.row(id).is_some_and(|row| q.matches(row))
                    }),
                None => self.scan_metered_below(q, meter, bound),
            },
        }
    }

    fn scan_metered_below(&self, q: &SelectionQuery, meter: &Meter, bound: usize) -> bool {
        (0..self.slot_count().min(bound)).any(|id| {
            meter.tick();
            self.row(id).is_some_and(|row| q.matches(row))
        })
    }

    fn scan_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        // Every slot visited costs a step, tombstones included (the scan
        // cannot skip them without an index).
        self.scan_metered_below(q, meter, usize::MAX)
    }

    /// Export the live tuples as a plain relation (test/diagnostic aid).
    pub fn to_relation(&self) -> Relation {
        let rows: Vec<Vec<Value>> = self.slots().flatten().map(RowRef::to_vec).collect();
        Relation::from_rows(self.schema().clone(), rows).expect("rows were validated on insert")
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

    /// The `(key, posting list)` entries of one column's index in
    /// ascending key order, or `None` if the column is unindexed
    /// (persistence accessor).
    pub fn index_postings(&self, col: usize) -> Option<IndexPostings<'_>> {
        self.index(col).map(ColumnIndex::postings)
    }

    /// Reassemble an `IndexedRelation` from previously exported parts:
    /// the slots, tombstones as `None`, are appended to fresh storage one
    /// by one (each live row admitted by the schema), then handed to
    /// [`Self::from_columns`].
    pub fn from_parts(
        schema: Schema,
        slots: Vec<Option<Vec<Value>>>,
        indexes: Vec<IndexEntries>,
    ) -> Result<Self, IndexedError> {
        let mut rows = Columns::new(schema);
        for slot in slots {
            rows.push_slot(slot.as_deref())?;
        }
        Self::from_columns(rows, indexes)
    }

    /// Reassemble an `IndexedRelation` from loaded row storage and its
    /// exported indexes — the warm-start path used by `pitract-store`,
    /// which decodes the slots straight into `rows`. Each index is
    /// reconstructed with [`BPlusTree::bulk_load`] from its ascending
    /// entries in O(n): no sort, no descents.
    ///
    /// Validation keeps a structurally corrupt input from producing a
    /// relation that would answer differently (or panic) later: every
    /// live row was admitted by the schema on its way into `rows`, index
    /// columns must be in range and distinct, keys must be strictly
    /// ascending, and every posting must point at a live row holding
    /// that key.
    pub fn from_columns(
        mut rows: Columns,
        indexes: Vec<IndexEntries>,
    ) -> Result<Self, IndexedError> {
        rows.shrink_to_fit();
        let live = rows.live();
        let arity = rows.schema().arity();
        let mut trees: Vec<Option<ColumnIndex>> = vec![None; arity];
        for IndexEntries {
            col,
            keys,
            lens,
            ids,
        } in indexes
        {
            if col >= arity {
                return Err(IndexedError::ColumnOutOfRange { col, arity });
            }
            if trees[col].is_some() {
                return Err(IndexedError::DuplicateIndex { col });
            }
            let posted = lens
                .iter()
                .try_fold(0usize, |sum, &len| sum.checked_add(len));
            if lens.len() != keys.len() || posted != Some(ids.len()) {
                return Err(IndexedError::MalformedEntries { col });
            }
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Err(IndexedError::KeysNotAscending { col });
            }
            let mut rest = ids.as_slice();
            for (key, &len) in keys.iter().zip(&lens) {
                let (posting, tail) = rest.split_at(len);
                rest = tail;
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
                    let lives = rows.row(id).is_some_and(|row| row.get(col) == *key);
                    if !lives {
                        return Err(IndexedError::DanglingPosting { col, id });
                    }
                }
            }
            // Ascending distinct keys + ascending distinct ids per posting
            // + every posting pointing at a live row with its key + the
            // counts matching: the postings are exactly the live rows.
            if ids.len() != live {
                return Err(IndexedError::PostingCountMismatch {
                    col,
                    posted: ids.len(),
                    live,
                });
            }
            trees[col] = Some(ColumnIndex::from_entries(
                rows.schema().col_type(col),
                keys,
                &lens,
                &ids,
            ));
        }
        Ok(IndexedRelation {
            rows,
            indexes: trees,
        })
    }
}

/// Approximate comparison cost of one descent, charged to the meter for
/// operations (like range probes) that use the unmetered tree API.
fn tree_descent_cost(index: &ColumnIndex) -> u64 {
    let n = index.len().max(2) as f64;
    (n.log2().ceil() as u64).max(1) * 2
}

/// Charge one enumerating probe of `index` — the descent plus every id
/// it produced — and hand the ids on.
fn probed(index: &ColumnIndex, ids: Vec<usize>, meter: &Meter) -> Vec<usize> {
    meter.add(tree_descent_cost(index) + ids.len() as u64);
    ids
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
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
            IndexedError::MalformedEntries { col: 1 }.to_string(),
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

    pub(super) fn export_parts(
        ir: &IndexedRelation,
    ) -> (Schema, Vec<Option<Vec<Value>>>, Vec<IndexEntries>) {
        let indexes = ir
            .indexed_columns()
            .into_iter()
            .map(|col| {
                let mut entries = IndexEntries::new(col);
                for (key, posting) in ir.index_postings(col).expect("column is indexed") {
                    entries.push(key, posting);
                }
                entries
            })
            .collect();
        let slots = ir.slots().map(|slot| slot.map(RowRef::to_vec)).collect();
        (ir.schema().clone(), slots, indexes)
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
        let bad = vec![IndexEntries::new(5)];
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::ColumnOutOfRange { col: 5, arity: 2 }
        );

        // Posting pointing at a dead/mismatched row.
        let mut bad = indexes.clone();
        bad[0].ids[0] = 9999;
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::DanglingPosting { col: 0, id: 9999 }
        );

        // Keys out of order.
        let mut bad = indexes.clone();
        bad[0].keys.swap(0, 1);
        bad[0].ids.swap(0, 1);
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::KeysNotAscending { col: 0 }
        );

        // A posting silently dropped (index incomplete).
        let mut bad = indexes.clone();
        bad[0].keys.remove(3);
        bad[0].lens.remove(3);
        bad[0].ids.remove(3);
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::PostingCountMismatch {
                col: 0,
                posted: 9,
                live: 10,
            }
        );

        // An emptied posting; and one whose ids run backwards (two rows
        // share "city3" once the relation is indexed on `city`).
        let mut bad = indexes.clone();
        bad[0].lens[4] = 0;
        bad[0].ids.remove(4);
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::EmptyPosting {
                col: 0,
                key: "4".into(),
            }
        );
        let by_city = IndexedRelation::build(&big_relation(20), &[1]).unwrap();
        let (city_schema, city_slots, mut bad) = export_parts(&by_city);
        bad[0].ids.swap(6, 7); // "city3" posts [3, 13]
        assert_eq!(
            IndexedRelation::from_parts(city_schema, city_slots, bad).unwrap_err(),
            IndexedError::PostingNotAscending {
                col: 1,
                key: "\"city3\"".into(),
            }
        );

        // The same column twice: refused before the second copy is loaded.
        let mut bad = indexes.clone();
        bad.push(indexes[0].clone());
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::DuplicateIndex { col: 0 }
        );

        // Flat entries that do not fit together: a length too many, and
        // lengths that overrun the ids.
        let mut bad = indexes.clone();
        bad[0].lens.push(1);
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::MalformedEntries { col: 0 }
        );
        let mut bad = indexes.clone();
        bad[0].lens[0] = usize::MAX;
        assert_eq!(
            IndexedRelation::from_parts(schema.clone(), slots.clone(), bad).unwrap_err(),
            IndexedError::MalformedEntries { col: 0 }
        );

        // The unmodified export still loads.
        assert!(IndexedRelation::from_parts(schema, slots, indexes).is_ok());
    }

    #[test]
    fn index_postings_are_ascending_and_complete() {
        let mut ir = IndexedRelation::build(&big_relation(30), &[1]).unwrap();
        ir.delete(2);
        let postings: Vec<(Value, &[usize])> = ir.index_postings(1).unwrap().collect();
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
