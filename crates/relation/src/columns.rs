//! Typed column storage for a relation's rows, and the borrowed views
//! that read it.
//!
//! [`Columns`] keeps one column per schema column: an `Int` column is a
//! `Vec<i64>`, a `Str` column one `String` arena holding every cell end
//! to end plus a `Vec<usize>` of end offsets (cell `i` is
//! `arena[ends[i - 1]..ends[i]]`, starting at 0 for `i = 0`). A bitmap
//! says which slots hold a live row. A row is read through a
//! [`RowRef`] — a shared borrow of the storage plus a row id — whose
//! cells come out as [`ValueRef`]s, so reading a row allocates nothing.
//!
//! `Columns` is the one row store: a plain
//! [`Relation`](crate::relation::Relation) keeps its rows in one (every
//! slot live), and so does each
//! [`IndexedRelation`](crate::indexed::IndexedRelation) (tombstones
//! behind the bitmap). It is filled three ways, none of which holds a
//! row longer than its own append: [`Columns::from_rows`] consumes a
//! vector of owned rows into exactly-sized columns; a sharded build
//! copies a store into its parts column by column
//! ([`IndexedRelation::build_split`](crate::indexed::IndexedRelation::build_split));
//! and a loader appends slot by slot ([`Columns::push_slot`]).
//!
//! [`Tuple`] is what a selection predicate reads: a row of owned
//! [`Value`]s and a [`RowRef`] both implement it, so
//! [`SelectionQuery::matches`](crate::query::SelectionQuery::matches)
//! and [`Schema::admits`] have one body for both.

use crate::indexed::IndexedError;
use crate::schema::{ColType, Schema};
use crate::value::{Value, ValueRef};
use std::fmt;

/// A row a selection predicate can read, cell by cell.
pub trait Tuple: Copy {
    /// Number of cells.
    fn arity(&self) -> usize;
    /// Cell `col` (panics when `col` is out of range, like indexing).
    fn cell(&self, col: usize) -> ValueRef<'_>;
}

/// Any borrowed slice of values: `&[Value]`, `&Vec<Value>`, `&[Value; N]`.
impl<T: AsRef<[Value]> + ?Sized> Tuple for &T {
    fn arity(&self) -> usize {
        AsRef::<[Value]>::as_ref(*self).len()
    }

    fn cell(&self, col: usize) -> ValueRef<'_> {
        AsRef::<[Value]>::as_ref(*self)[col].as_ref()
    }
}

/// One `Str` column: every cell end to end in one arena, and where each
/// ends.
#[derive(Debug, Clone)]
pub(crate) struct StrColumn {
    arena: String,
    ends: Vec<usize>,
}

impl StrColumn {
    fn with_capacity(cells: usize, bytes: usize) -> Self {
        StrColumn {
            arena: String::with_capacity(bytes),
            ends: Vec::with_capacity(cells),
        }
    }

    fn push(&mut self, s: &str) {
        self.arena.push_str(s);
        self.ends.push(self.arena.len());
    }

    fn get(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.arena[start..self.ends[id]]
    }

    /// Every cell, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let cell = &self.arena[start..end];
            start = end;
            cell
        })
    }
}

/// One schema column's cells, typed by the schema.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Int(Vec<i64>),
    Str(StrColumn),
}

impl Column {
    fn get(&self, id: usize) -> ValueRef<'_> {
        match self {
            Column::Int(ints) => ValueRef::Int(ints[id]),
            Column::Str(strs) => ValueRef::Str(strs.get(id)),
        }
    }

    /// Append `value`, which the schema admitted for this column.
    fn push(&mut self, value: ValueRef<'_>) {
        match (self, value) {
            (Column::Int(ints), ValueRef::Int(i)) => ints.push(i),
            (Column::Str(strs), ValueRef::Str(s)) => strs.push(s),
            (_, value) => unreachable!("the schema admitted {value} for this column"),
        }
    }

    /// Append the tombstone placeholder, `0` or `""`.
    fn push_placeholder(&mut self) {
        match self {
            Column::Int(ints) => ints.push(0),
            Column::Str(strs) => strs.push(""),
        }
    }

    /// Copy the cells into `counts.len()` columns of this type, each
    /// sized exactly: cell `i` goes to column `part[i]`, which receives
    /// `counts[part[i]]` cells in all.
    fn split(&self, part: &[u32], counts: &[usize]) -> Vec<Column> {
        match self {
            Column::Int(src) => {
                let mut dst: Vec<Vec<i64>> =
                    counts.iter().map(|&n| Vec::with_capacity(n)).collect();
                for (&cell, &p) in src.iter().zip(part) {
                    dst[p as usize].push(cell);
                }
                dst.into_iter().map(Column::Int).collect()
            }
            Column::Str(src) => {
                let mut bytes = vec![0usize; counts.len()];
                for (cell, &p) in src.iter().zip(part) {
                    bytes[p as usize] += cell.len();
                }
                let mut dst: Vec<StrColumn> = counts
                    .iter()
                    .zip(bytes)
                    .map(|(&n, bytes)| StrColumn::with_capacity(n, bytes))
                    .collect();
                for (cell, &p) in src.iter().zip(part) {
                    dst[p as usize].push(cell);
                }
                dst.into_iter().map(Column::Str).collect()
            }
        }
    }
}

/// A bitmap of `n` set bits, exactly sized.
fn all_live(n: usize) -> Vec<u64> {
    let mut bits = Vec::with_capacity(n.div_ceil(64));
    bits.resize(n / 64, u64::MAX);
    if !n.is_multiple_of(64) {
        bits.push((1 << (n % 64)) - 1);
    }
    bits
}

/// A relation's row slots, stored column by column under their schema,
/// with a bitmap of the live ones. Ids are slot positions: a delete
/// clears a bit and leaves the cells where they are, so no other id
/// moves.
#[derive(Debug, Clone)]
pub struct Columns {
    schema: Schema,
    cols: Vec<Column>,
    /// Bit `id % 64` of word `id / 64` is set iff slot `id` is live.
    live_bits: Vec<u64>,
    slots: usize,
    live: usize,
}

impl Columns {
    /// Empty storage for `schema`. A loader does not reserve room for a
    /// slot count it has read but not yet seen backed by cells: the
    /// columns grow as slots arrive, and
    /// [`IndexedRelation::from_columns`](crate::indexed::IndexedRelation::from_columns)
    /// gives back what they overshot.
    pub fn new(schema: Schema) -> Self {
        let no_bytes = vec![0; schema.arity()];
        Columns::with_capacity(schema, 0, &no_bytes)
    }

    /// Empty storage for `schema`, with room for `slots` rows whose `Str`
    /// column `c` holds `str_bytes[c]` bytes in all.
    fn with_capacity(schema: Schema, slots: usize, str_bytes: &[usize]) -> Self {
        let cols = (0..schema.arity())
            .map(|col| match schema.col_type(col) {
                ColType::Int => Column::Int(Vec::with_capacity(slots)),
                ColType::Str => Column::Str(StrColumn::with_capacity(slots, str_bytes[col])),
            })
            .collect();
        Columns {
            schema,
            cols,
            live_bits: Vec::with_capacity(slots.div_ceil(64)),
            slots: 0,
            live: 0,
        }
    }

    /// Store `rows` under `schema`, row `i` in slot `i`, consuming the
    /// vector. Two passes: the first admits every row and adds up each
    /// `Str` column's bytes, so the first row the schema rejects is the
    /// error and nothing is allocated before it is found; the second
    /// appends each row's cells to columns sized exactly by the first,
    /// and frees the row as soon as they are in.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, String> {
        let mut str_bytes = vec![0; schema.arity()];
        for row in &rows {
            schema.admits(row)?;
            for (total, value) in str_bytes.iter_mut().zip(row) {
                if let Value::Str(s) = value {
                    *total += s.len();
                }
            }
        }
        let mut store = Columns::with_capacity(schema, rows.len(), &str_bytes);
        for row in rows {
            store.push_row(&row);
        }
        Ok(store)
    }

    /// Split `source`, which holds no tombstone, into `parts`
    /// exactly-sized stores: row `i` becomes the next row of part
    /// `part_of(i)`. Each row's part is computed once; then every column
    /// is copied on its own, typed (`i64`s into `Vec<i64>`s, `&str`s
    /// into arenas), and each part's bitmap is filled a word at a time.
    pub(crate) fn split(
        source: &Columns,
        parts: usize,
        part_of: impl Fn(usize) -> usize,
    ) -> Vec<Columns> {
        assert_eq!(
            source.live, source.slots,
            "a split source holds no tombstone"
        );
        let part: Vec<u32> = (0..source.slots)
            .map(|id| u32::try_from(part_of(id)).expect("fewer than 2³² parts"))
            .collect();
        let mut counts = vec![0usize; parts];
        for &p in &part {
            counts[p as usize] += 1;
        }
        let mut cols: Vec<Vec<Column>> = (0..parts)
            .map(|_| Vec::with_capacity(source.cols.len()))
            .collect();
        for column in &source.cols {
            for (mine, split) in cols.iter_mut().zip(column.split(&part, &counts)) {
                mine.push(split);
            }
        }
        cols.into_iter()
            .zip(counts)
            .map(|(cols, n)| Columns {
                schema: source.schema.clone(),
                cols,
                live_bits: all_live(n),
                slots: n,
                live: n,
            })
            .collect()
    }

    /// Append a slot — a live row, which the schema must admit, or with
    /// `None` a tombstone, stored as placeholder cells (`0`, `""`)
    /// behind a clear bit. Returns its id.
    pub fn push_slot(&mut self, slot: Option<&[Value]>) -> Result<usize, IndexedError> {
        match slot {
            Some(row) => {
                self.schema.admits(row).map_err(IndexedError::RowRejected)?;
                Ok(self.push_row(row))
            }
            None => Ok(self.push_tombstone()),
        }
    }

    /// The schema the cells were admitted by.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append `row`'s cells, which the schema admitted, as a live slot.
    /// Returns its id.
    pub(crate) fn push_row(&mut self, row: impl Tuple) -> usize {
        for (col, column) in self.cols.iter_mut().enumerate() {
            column.push(row.cell(col));
        }
        self.assign(true)
    }

    /// Append a tombstone: placeholder cells behind a clear bit.
    fn push_tombstone(&mut self) -> usize {
        self.cols.iter_mut().for_each(Column::push_placeholder);
        self.assign(false)
    }

    /// Take the next slot id, whose cells were just appended.
    fn assign(&mut self, live: bool) -> usize {
        let id = self.slots;
        if id.is_multiple_of(64) {
            self.live_bits.push(0);
        }
        if live {
            self.live_bits[id / 64] |= 1 << (id % 64);
            self.live += 1;
        }
        self.slots += 1;
        id
    }

    /// Tombstone slot `id`. Returns whether it was live.
    pub(crate) fn kill(&mut self, id: usize) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.live_bits[id / 64] &= !(1 << (id % 64));
        self.live -= 1;
        true
    }

    pub(crate) fn is_live(&self, id: usize) -> bool {
        id < self.slots && self.live_bits[id / 64] >> (id % 64) & 1 == 1
    }

    /// The live row in slot `id`.
    pub(crate) fn row(&self, id: usize) -> Option<RowRef<'_>> {
        self.is_live(id).then_some(RowRef { store: self, id })
    }

    /// Column `col`, tombstone placeholders included.
    pub(crate) fn column(&self, col: usize) -> &Column {
        &self.cols[col]
    }

    /// Slots ever assigned (live rows plus tombstones).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots
    }

    /// Live rows.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Give back capacity no slot uses (a loader cannot size a `Str`
    /// arena before it has read every cell).
    pub(crate) fn shrink_to_fit(&mut self) {
        for column in &mut self.cols {
            match column {
                Column::Int(ints) => ints.shrink_to_fit(),
                Column::Str(strs) => {
                    strs.arena.shrink_to_fit();
                    strs.ends.shrink_to_fit();
                }
            }
        }
        self.live_bits.shrink_to_fit();
    }

    /// Does every column, arena, offset list and the bitmap hold exactly
    /// its contents, with no spare capacity?
    #[cfg(test)]
    pub(crate) fn is_exactly_sized(&self) -> bool {
        let words = self.slots.div_ceil(64);
        (self.live_bits.len(), self.live_bits.capacity()) == (words, words)
            && self.cols.iter().all(|column| match column {
                Column::Int(ints) => ints.len() == ints.capacity(),
                Column::Str(strs) => {
                    strs.arena.len() == strs.arena.capacity()
                        && strs.ends.len() == strs.ends.capacity()
                }
            })
    }
}

/// A borrowed live row of column storage: `get(col)` reads one cell in
/// place. `Copy`, two words; [`RowRef::to_vec`] materialises the row.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    store: &'a Columns,
    id: usize,
}

impl<'a> RowRef<'a> {
    /// Cell `col` (panics when `col` is out of range, like indexing).
    pub fn get(self, col: usize) -> ValueRef<'a> {
        self.store.cols[col].get(self.id)
    }

    /// Number of cells (the schema's arity).
    pub fn arity(self) -> usize {
        self.store.cols.len()
    }

    /// The cells, in column order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = ValueRef<'a>> {
        self.store
            .cols
            .iter()
            .map(move |column| column.get(self.id))
    }

    /// An owned copy of the row.
    pub fn to_vec(self) -> Vec<Value> {
        self.iter().map(ValueRef::to_value).collect()
    }
}

impl Tuple for RowRef<'_> {
    fn arity(&self) -> usize {
        RowRef::arity(*self)
    }

    fn cell(&self, col: usize) -> ValueRef<'_> {
        self.get(col)
    }
}

/// Two rows are equal when their cells are, wherever they are stored.
impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SelectionQuery;
    use std::ops::Bound;

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("name", ColType::Str)])
    }

    fn rows() -> Vec<Vec<Value>> {
        [
            (-3, "alpha"),
            (0, ""),
            (7, "héllo"),
            (7, "alpha"),
            (i64::MAX, "日本語"),
        ]
        .into_iter()
        .map(|(id, name)| vec![Value::Int(id), Value::str(name)])
        .collect()
    }

    fn store() -> Columns {
        Columns::from_rows(schema(), rows()).unwrap()
    }

    /// A view answers every query shape — points, each bound kind on
    /// each side, nested conjunctions, mistyped values and bounds — as
    /// the row it materialises does.
    #[test]
    fn a_view_matches_like_the_row_it_copies() {
        let store = store();
        let probes = [
            Value::Int(-4),
            Value::Int(0),
            Value::Int(7),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("alpha"),
            Value::str("héllo"),
            Value::str("日本語"),
            Value::str("zz"),
        ];
        let bounds: Vec<Bound<Value>> = probes
            .iter()
            .flat_map(|v| [Bound::Included(v.clone()), Bound::Excluded(v.clone())])
            .chain([Bound::Unbounded])
            .collect();
        let mut leaves = Vec::new();
        for col in 0..2 {
            for v in &probes {
                leaves.push(SelectionQuery::point(col, v.clone()));
            }
            for lo in &bounds {
                for hi in &bounds {
                    let (lo, hi) = (lo.clone(), hi.clone());
                    leaves.push(SelectionQuery::Range { col, lo, hi });
                }
            }
        }
        let mut queries = leaves.clone();
        for w in leaves.windows(3).step_by(7) {
            let (a, b, c) = (w[0].clone(), w[1].clone(), w[2].clone());
            queries.push(SelectionQuery::and(
                SelectionQuery::and(a.clone(), b.clone()),
                c.clone(),
            ));
            queries.push(SelectionQuery::and(a, SelectionQuery::and(b, c)));
        }
        let mut hits = 0;
        for (id, row) in rows().iter().enumerate() {
            let view = store.row(id).expect("live");
            assert_eq!(view.to_vec(), *row);
            for q in &queries {
                assert_eq!(q.matches(view), q.matches(row), "{q:?} on {row:?}");
                hits += usize::from(q.matches(view));
            }
        }
        assert!(
            hits > 0 && hits < queries.len() * rows().len(),
            "both outcomes occur"
        );
    }

    /// A tombstone is the placeholder cells (`0`, `""`) behind a clear
    /// bit: never a row, and its neighbours' cells are untouched.
    #[test]
    fn tombstones_are_placeholders_behind_the_bitmap() {
        let slots = vec![
            None,
            Some(vec![Value::Int(5), Value::str("é")]),
            None,
            Some(vec![Value::Int(-1), Value::str("")]),
        ];
        let mut store = Columns::new(schema());
        for slot in &slots {
            store.push_slot(slot.as_deref()).unwrap();
        }
        assert_eq!((store.slot_count(), store.live()), (4, 2));
        for (id, slot) in slots.iter().enumerate() {
            assert_eq!(store.row(id).map(RowRef::to_vec), *slot, "slot {id}");
        }
        assert!(store.row(4).is_none());
        assert_eq!(store.column(0).get(0), ValueRef::Int(0));
        assert_eq!(store.column(1).get(2), ValueRef::Str(""));
        assert_eq!(store.column(1).get(1), ValueRef::Str("é"));
        assert_eq!(
            store.push_slot(Some(&[Value::str("x"), Value::str("y")])),
            Err(IndexedError::RowRejected(
                "type mismatch in column \"id\": value \"x\"".into()
            ))
        );
        assert_eq!(store.slot_count(), 4, "a rejected row takes no slot");
    }

    /// The build sizes each part before filling it: no column, arena or
    /// bitmap grows past what its rows need, and every bitmap — whole
    /// words and a partial last one — marks exactly its rows live.
    #[test]
    fn split_parts_are_exactly_sized() {
        let rows: Vec<Vec<Value>> = rows().into_iter().cycle().take(200).collect();
        let source = Columns::from_rows(schema(), rows.clone()).unwrap();
        let parts = Columns::split(&source, 3, |i| i % 3);
        for (p, part) in parts.iter().enumerate() {
            let mine: Vec<&Vec<Value>> = rows.iter().skip(p).step_by(3).collect();
            assert_eq!(part.slot_count(), mine.len());
            assert_eq!(part.live(), mine.len());
            for (local, row) in mine.iter().enumerate() {
                assert_eq!(part.row(local).expect("live").to_vec(), **row);
            }
            assert!(part.row(mine.len()).is_none());
            assert!(part.is_exactly_sized(), "part {p}");
        }
        assert!(source.is_exactly_sized(), "from_rows sizes its columns too");
    }

    #[test]
    fn the_bitmap_crosses_word_boundaries() {
        let row = [Value::Int(1), Value::str("x")];
        let mut store = Columns::new(schema());
        for _ in 0..130 {
            store.push_row(&row);
        }
        for id in [0, 63, 64, 127, 129] {
            assert!(store.kill(id), "{id} was live");
            assert!(!store.kill(id), "{id} is already dead");
        }
        assert!(!store.kill(130), "never assigned");
        assert_eq!(store.live(), 125);
        let dead: Vec<usize> = (0..131).filter(|&id| store.row(id).is_none()).collect();
        assert_eq!(dead, vec![0, 63, 64, 127, 129, 130]);
    }
}
