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
//! A loader fills the storage slot by slot ([`Columns::push_slot`]),
//! so a decoded row never has to outlive its own append.
//!
//! [`Tuple`] is what a selection predicate reads: a row of owned
//! [`Value`]s and a [`RowRef`] both implement it, so
//! [`SelectionQuery::matches`](crate::query::SelectionQuery::matches)
//! has one body for both.

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

    /// Append `value`, which the schema admitted for this column; `None`
    /// appends the tombstone placeholder (`0` or `""`).
    fn push(&mut self, value: Option<&Value>) {
        match (self, value) {
            (Column::Int(ints), Some(Value::Int(i))) => ints.push(*i),
            (Column::Int(ints), None) => ints.push(0),
            (Column::Str(strs), Some(Value::Str(s))) => strs.push(s),
            (Column::Str(strs), None) => strs.push(""),
            (_, Some(value)) => unreachable!("the schema admitted {value} for this column"),
        }
    }
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

    /// Split `rows` (every one admitted by `schema`) into `parts`
    /// exactly-sized stores: row `i` becomes the next row of part
    /// `part_of(i)`. Two passes over `rows` — one to size, one to fill —
    /// and no row is copied whole.
    pub(crate) fn split(
        schema: &Schema,
        rows: &[Vec<Value>],
        parts: usize,
        part_of: impl Fn(usize) -> usize,
    ) -> Vec<Columns> {
        let mut sizes = vec![(0usize, vec![0usize; schema.arity()]); parts];
        for (i, row) in rows.iter().enumerate() {
            let (count, bytes) = &mut sizes[part_of(i)];
            *count += 1;
            for (total, value) in bytes.iter_mut().zip(row) {
                if let Value::Str(s) = value {
                    *total += s.len();
                }
            }
        }
        let mut stores: Vec<Columns> = sizes
            .iter()
            .map(|(count, bytes)| Columns::with_capacity(schema.clone(), *count, bytes))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            stores[part_of(i)].push(Some(row));
        }
        stores
    }

    /// Append a slot — a live row, which the schema must admit, or with
    /// `None` a tombstone, stored as placeholder cells (`0`, `""`)
    /// behind a clear bit. Returns its id.
    pub fn push_slot(&mut self, slot: Option<&[Value]>) -> Result<usize, IndexedError> {
        if let Some(row) = slot {
            self.schema.admits(row).map_err(IndexedError::RowRejected)?;
        }
        Ok(self.push(slot))
    }

    /// The schema the cells were admitted by.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a slot: `row`'s cells (admitted by the schema) as a live
    /// row, or with `None` a tombstone. Returns its id.
    pub(crate) fn push(&mut self, row: Option<&[Value]>) -> usize {
        match row {
            Some(row) => {
                for (column, value) in self.cols.iter_mut().zip(row) {
                    column.push(Some(value));
                }
            }
            None => self.cols.iter_mut().for_each(|column| column.push(None)),
        }
        let id = self.slots;
        if id.is_multiple_of(64) {
            self.live_bits.push(0);
        }
        if row.is_some() {
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
        Columns::split(&schema(), &rows(), 1, |_| 0).remove(0)
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
    /// bitmap grows past what its rows need.
    #[test]
    fn split_parts_are_exactly_sized() {
        let rows = rows();
        let parts = Columns::split(&schema(), &rows, 3, |i| i % 3);
        for (p, part) in parts.iter().enumerate() {
            let mine: Vec<&Vec<Value>> = rows.iter().skip(p).step_by(3).collect();
            assert_eq!(part.slot_count(), mine.len());
            for (local, row) in mine.iter().enumerate() {
                assert_eq!(part.row(local).expect("live").to_vec(), **row);
            }
            let Column::Int(ints) = part.column(0) else {
                panic!("id is Int")
            };
            assert_eq!(ints.capacity(), ints.len());
            let Column::Str(strs) = part.column(1) else {
                panic!("name is Str")
            };
            assert_eq!(strs.ends.capacity(), strs.ends.len());
            assert_eq!(strs.arena.capacity(), strs.arena.len());
            assert_eq!(strs.iter().collect::<Vec<_>>().len(), mine.len());
            assert_eq!(part.live_bits.capacity(), part.slot_count().div_ceil(64));
        }
    }

    #[test]
    fn the_bitmap_crosses_word_boundaries() {
        let row = [Value::Int(1), Value::str("x")];
        let mut store = Columns::new(schema());
        for _ in 0..130 {
            store.push(Some(&row));
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
