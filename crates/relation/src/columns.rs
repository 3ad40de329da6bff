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
//! behind the bitmap). It is filled four ways, none of which holds a
//! row longer than its own append: [`Columns::from_rows`] consumes a
//! vector of owned rows into exactly-sized columns; a sharded build
//! copies a store into its parts column by column
//! ([`IndexedRelation::build_split`](crate::indexed::IndexedRelation::build_split));
//! a row-wise loader appends slot by slot ([`Columns::push_slot`]); and
//! a columnar loader hands over whole columns of live cells and the
//! bitmap ([`Columns::from_live_cells`]), the inverse of what a
//! [`ColumnsView`] lends a writer: the bitmap and each column's live
//! cells, run by run.
//!
//! [`Tuple`] is what a selection predicate reads: a row of owned
//! [`Value`]s and a [`RowRef`] both implement it, so
//! [`SelectionQuery::matches`](crate::query::SelectionQuery::matches)
//! and [`Schema::admits`] have one body for both.

use crate::indexed::IndexedError;
use crate::schema::{ColType, Schema};
use crate::value::{Value, ValueRef};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

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

    pub(crate) fn get(&self, id: usize) -> &str {
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

/// One column's live cells in slot order, a dead slot's cell left out:
/// what a columnar loader hands [`Columns::from_live_cells`], borrowed
/// from the file it read where it can be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveCells<'a> {
    /// An `Int` column's cells.
    Int(Cow<'a, [i64]>),
    /// A `Str` column's cells end to end in `arena`; cell `i` ends at
    /// byte `ends[i]` and starts where cell `i - 1` ends (at 0 for the
    /// first).
    Str {
        /// Every live cell's bytes, end to end.
        arena: Cow<'a, str>,
        /// Where each live cell ends in `arena`.
        ends: Cow<'a, [usize]>,
    },
}

impl LiveCells<'_> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            LiveCells::Int(ints) => ints.len(),
            LiveCells::Str { ends, .. } => ends.len(),
        }
    }

    /// Does the column hold no cell?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why `ends` cannot be the end offsets of cells in `arena`: one that
/// decreases, overruns the arena or splits a character, or an arena with
/// bytes past the last cell.
fn check_ends(arena: &str, ends: &[usize]) -> Result<(), String> {
    let mut prev = 0;
    for &end in ends {
        if end < prev {
            return Err(format!("end offset {end} is below its predecessor {prev}"));
        }
        if end > arena.len() {
            return Err(format!(
                "end offset {end} overruns an arena of {} bytes",
                arena.len()
            ));
        }
        if !arena.is_char_boundary(end) {
            return Err(format!("end offset {end} splits a character"));
        }
        prev = end;
    }
    if prev != arena.len() {
        return Err(format!(
            "the arena holds {} bytes past its last cell",
            arena.len() - prev
        ));
    }
    Ok(())
}

/// Why `bits` cannot be the live bitmap of `slots` slots: the wrong
/// word count, or a bit set past the last slot. Otherwise the number of
/// live slots.
fn check_bits(bits: &[u64], slots: usize) -> Result<usize, String> {
    if bits.len() != slots.div_ceil(64) {
        return Err(format!(
            "a bitmap of {} words for {slots} slots",
            bits.len()
        ));
    }
    if let Some(&last) = bits.last().filter(|_| !slots.is_multiple_of(64)) {
        if last >> (slots % 64) != 0 {
            return Err(format!("a live bit past slot count {slots}"));
        }
    }
    Ok(bits.iter().map(|w| w.count_ones() as usize).sum())
}

/// The ids of the set bits of `bits`, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                64 * w + bit
            })
        })
    })
}

/// The maximal runs of consecutive set bits of `bits`, as id ranges,
/// ascending.
fn set_runs(bits: &[u64]) -> impl Iterator<Item = Range<usize>> + '_ {
    // The first id at or after `from` whose bit is `set`, if any.
    let seek = move |from: usize, set: bool| {
        let flip = if set { 0 } else { u64::MAX };
        let mut w = from / 64;
        let mut word = (*bits.get(w)? ^ flip) & (u64::MAX << (from % 64));
        while word == 0 {
            w += 1;
            word = *bits.get(w)? ^ flip;
        }
        Some(64 * w + word.trailing_zeros() as usize)
    };
    let mut from = 0;
    std::iter::from_fn(move || {
        let start = seek(from, true)?;
        let end = seek(start, false).unwrap_or(64 * bits.len());
        from = end;
        Some(start..end)
    })
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

    /// Store `slots` slots from their live cells, column by column: the
    /// columnar loader's one constructor, and the inverse of a
    /// [`ColumnsView`]'s bitmap plus its cell runs. `live_bits` is the
    /// bitmap (bit `id % 64` of word `id / 64` set iff slot `id` is
    /// live), and `cells[c]` holds column `c`'s live cells in slot order.
    /// Each dead slot gets the placeholder cell (`0`, `""`) that
    /// [`Self::push_slot`] gives a tombstone. No [`Value`] is built.
    ///
    /// Refused with [`IndexedError::BadColumns`], before anything is
    /// allocated: a bitmap whose word count is not `⌈slots / 64⌉` or
    /// with a bit set past the last slot; a column list that is not one
    /// per schema column, each of the schema's type; a column whose
    /// length is not the bitmap's popcount; and `Str` end offsets that
    /// decrease, overrun their arena or split a character, or an arena
    /// with bytes past its last cell.
    pub fn from_live_cells(
        schema: Schema,
        slots: usize,
        live_bits: Vec<u64>,
        cells: Vec<LiveCells<'_>>,
    ) -> Result<Self, IndexedError> {
        let bad = IndexedError::BadColumns;
        let live = check_bits(&live_bits, slots).map_err(bad)?;
        if cells.len() != schema.arity() {
            return Err(bad(format!(
                "{} columns for a schema of arity {}",
                cells.len(),
                schema.arity()
            )));
        }
        for (col, column) in cells.iter().enumerate() {
            let name = schema.name(col);
            match (schema.col_type(col), column) {
                (ColType::Int, LiveCells::Int(_)) => {}
                (ColType::Str, LiveCells::Str { arena, ends }) => {
                    check_ends(arena, ends)
                        .map_err(|why| bad(format!("column {name:?}: {why}")))?;
                }
                (ty, _) => return Err(bad(format!("column {name:?} holds no {ty:?} cells"))),
            }
            if column.len() != live {
                return Err(bad(format!(
                    "column {name:?} holds {} cells for {live} live slots",
                    column.len()
                )));
            }
        }
        let all = live == slots;
        let cols = cells
            .into_iter()
            .map(|column| match column {
                LiveCells::Int(ints) if all => Column::Int(ints.into_owned()),
                LiveCells::Int(ints) => {
                    let mut slot_ints = vec![0; slots];
                    for (id, &cell) in set_bits(&live_bits).zip(ints.iter()) {
                        slot_ints[id] = cell;
                    }
                    Column::Int(slot_ints)
                }
                LiveCells::Str { arena, ends } => {
                    let ends = if all {
                        ends.into_owned()
                    } else {
                        // A dead slot's cell is empty: it ends where the
                        // cell before it does.
                        let mut slot_ends = Vec::with_capacity(slots);
                        let mut prev = 0;
                        let mut live_ends = ends.iter();
                        for id in 0..slots {
                            if live_bits[id / 64] >> (id % 64) & 1 == 1 {
                                prev = live_ends.next().copied().unwrap_or(prev);
                            }
                            slot_ends.push(prev);
                        }
                        slot_ends
                    };
                    Column::Str(StrColumn {
                        arena: arena.into_owned(),
                        ends,
                    })
                }
            })
            .collect();
        Ok(Columns {
            schema,
            cols,
            live_bits,
            slots,
            live,
        })
    }

    /// The live bitmap, exactly `⌈slots / 64⌉` words: bit `id % 64` of
    /// word `id / 64` is set iff slot `id` is live, and no bit past the
    /// last slot is set.
    pub fn live_bits(&self) -> &[u64] {
        &self.live_bits
    }

    /// The store as it is: every slot, live where its bitmap says.
    pub fn view(&self) -> ColumnsView<'_> {
        ColumnsView {
            store: self,
            slots: self.slots,
            live_bits: Cow::Borrowed(&self.live_bits),
            live: self.live,
        }
    }

    /// The store as it stood before slot `slots` was appended and before
    /// the slots in `revived` were deleted: its first `slots` slots, with
    /// each revived slot live again. A delete leaves a slot's cells in
    /// place, so reviving one only sets its bit; a revived id at or past
    /// `slots` is ignored. Borrowed, bitmap included, when the cut and
    /// the revivals change nothing.
    pub fn view_at(&self, slots: usize, revived: &[usize]) -> ColumnsView<'_> {
        let slots = slots.min(self.slots);
        if slots == self.slots && revived.is_empty() {
            return self.view();
        }
        let mut bits = self.live_bits[..slots.div_ceil(64)].to_vec();
        if let Some(last) = bits.last_mut().filter(|_| !slots.is_multiple_of(64)) {
            *last &= (1 << (slots % 64)) - 1;
        }
        for &id in revived.iter().filter(|&&id| id < slots) {
            bits[id / 64] |= 1 << (id % 64);
        }
        let live = bits.iter().map(|w| w.count_ones() as usize).sum();
        ColumnsView {
            store: self,
            slots,
            live_bits: Cow::Owned(bits),
            live,
        }
    }

    /// Split `source`, which holds no tombstone, into `parts`
    /// exactly-sized stores: row `i` becomes the next row of part
    /// `part[i]`, which must be below `parts`. Every column is copied on
    /// its own, typed (`i64`s into `Vec<i64>`s, `&str`s into arenas), and
    /// each part's bitmap is filled a word at a time.
    pub(crate) fn split(source: &Columns, parts: usize, part: &[u32]) -> Vec<Columns> {
        assert_eq!(
            source.live, source.slots,
            "a split source holds no tombstone"
        );
        assert_eq!(part.len(), source.slots, "one part per row");
        let mut counts = vec![0usize; parts];
        for &p in part {
            counts[p as usize] += 1;
        }
        let mut cols: Vec<Vec<Column>> = (0..parts)
            .map(|_| Vec::with_capacity(source.cols.len()))
            .collect();
        for column in &source.cols {
            for (mine, split) in cols.iter_mut().zip(column.split(part, &counts)) {
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
    pub fn slot_count(&self) -> usize {
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

/// Column storage as it stands now or stood at an earlier point
/// ([`Columns::view`], [`Columns::view_at`]): a prefix of the slots and
/// the bitmap of the ones live then. Nothing but the bitmap is copied,
/// and that only when it differs from the store's. A snapshot writer
/// reads a relation body through it; [`Columns::from_live_cells`] is
/// its inverse.
#[derive(Debug, Clone)]
pub struct ColumnsView<'a> {
    store: &'a Columns,
    slots: usize,
    live_bits: Cow<'a, [u64]>,
    live: usize,
}

/// One run of consecutive live slots in one column, its cells lent as
/// they lie ([`ColumnsView::cell_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellRun<'a> {
    /// An `Int` column's cells.
    Int(&'a [i64]),
    /// A `Str` column's cells end to end in `arena`; `ends` are their end
    /// offsets in the store's whole arena, where the run starts at byte
    /// `start`.
    Str {
        /// The run's cells' bytes, end to end.
        arena: &'a str,
        /// Where each cell ends in the store's arena.
        ends: &'a [usize],
        /// Where the run's first cell starts in the store's arena.
        start: usize,
    },
}

impl<'a> ColumnsView<'a> {
    /// The schema the cells were admitted by.
    pub fn schema(&self) -> &'a Schema {
        &self.store.schema
    }

    /// Slots in the view (live rows plus tombstones).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Live rows in the view.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The view's live bitmap, exactly `⌈slots / 64⌉` words, no bit set
    /// past the last slot.
    pub fn live_bits(&self) -> &[u64] {
        &self.live_bits
    }

    /// Column `col`'s live cells in slot order, one maximal run of
    /// consecutive live slots at a time: with no dead slot, the whole
    /// column in one run. Panics when `col` is out of range, like
    /// indexing.
    pub fn cell_runs(&self, col: usize) -> impl Iterator<Item = CellRun<'a>> + '_ {
        let column = &self.store.cols[col];
        set_runs(&self.live_bits).map(move |run| match column {
            Column::Int(ints) => CellRun::Int(&ints[run]),
            Column::Str(strs) => {
                let start = run.start.checked_sub(1).map_or(0, |prev| strs.ends[prev]);
                let end = strs.ends[run.end - 1];
                CellRun::Str {
                    arena: &strs.arena[start..end],
                    ends: &strs.ends[run],
                    start,
                }
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
        let part: Vec<u32> = (0..200).map(|i| i % 3).collect();
        let parts = Columns::split(&source, 3, &part);
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

    /// Column `col` of `view` as one column of owned live cells: its
    /// runs end to end, `Str` end offsets rebased onto the joined arena.
    fn joined(view: &ColumnsView<'_>, col: usize) -> LiveCells<'static> {
        let mut ints = Vec::new();
        let (mut arena, mut ends) = (String::new(), Vec::new());
        for run in view.cell_runs(col) {
            match run {
                CellRun::Int(cells) => ints.extend_from_slice(cells),
                CellRun::Str {
                    arena: bytes,
                    ends: run_ends,
                    start,
                } => {
                    let base = arena.len();
                    ends.extend(run_ends.iter().map(|end| end - start + base));
                    arena.push_str(bytes);
                }
            }
        }
        match view.schema().col_type(col) {
            ColType::Int => LiveCells::Int(Cow::Owned(ints)),
            ColType::Str => LiveCells::Str {
                arena: Cow::Owned(arena),
                ends: Cow::Owned(ends),
            },
        }
    }

    /// A store with dead slots in the first word, across a word
    /// boundary and at the end goes out as its live cells and bitmap and
    /// comes back slot for slot: the same rows, the same dead slots,
    /// placeholder cells behind them, and a store that lends the same
    /// live cells again.
    #[test]
    fn live_cells_roundtrip_with_placeholders_at_dead_slots() {
        let rows: Vec<Vec<Value>> = rows().into_iter().cycle().take(130).collect();
        let mut holey = Columns::from_rows(schema(), rows).unwrap();
        let dead = [0, 2, 63, 64, 100, 129];
        for id in dead {
            assert!(holey.kill(id));
        }
        let view = holey.view();
        let cells: Vec<LiveCells<'_>> = (0..2).map(|col| joined(&view, col)).collect();
        assert!(cells.iter().all(|c| c.len() == 124));
        let back = Columns::from_live_cells(
            schema(),
            holey.slot_count(),
            holey.live_bits().to_vec(),
            cells.clone(),
        )
        .unwrap();
        assert_eq!((back.slot_count(), back.live()), (130, 124));
        for id in 0..131 {
            assert_eq!(back.row(id), holey.row(id), "slot {id}");
        }
        for id in dead {
            assert_eq!(back.column(0).get(id), ValueRef::Int(0));
            assert_eq!(back.column(1).get(id), ValueRef::Str(""));
        }
        assert_eq!(back.live_bits(), holey.live_bits());
        let again: Vec<LiveCells<'_>> = (0..2).map(|col| joined(&back.view(), col)).collect();
        assert_eq!(again, cells);
        assert!(back.is_exactly_sized());

        // With no dead slot each column is one run, lent as it lies.
        let whole = store();
        let view = whole.view();
        assert!(matches!(view.live_bits, Cow::Borrowed(_)));
        assert_eq!(view.cell_runs(0).count(), 1);
        assert!(matches!(
            view.cell_runs(1).next(),
            Some(CellRun::Str { start: 0, .. })
        ));
    }

    /// A view at an earlier point cuts the slots appended since and
    /// revives the ones deleted since, and its runs are the maximal runs
    /// of its bitmap: the store as it stood, read back cell for cell.
    #[test]
    fn a_view_at_an_earlier_point_is_the_store_as_it_stood() {
        let rows: Vec<Vec<Value>> = rows().into_iter().cycle().take(200).collect();
        let then = Columns::from_rows(schema(), rows[..150].to_vec()).unwrap();
        let mut store = Columns::from_rows(schema(), rows).unwrap();
        // Dead before the point, in both.
        let mut then = then;
        for id in [5, 64, 65, 149] {
            assert!(then.kill(id) && store.kill(id));
        }
        // Deleted since, and appended-then-deleted since.
        let revived = [0, 63, 100, 170];
        for id in revived {
            assert!(store.kill(id));
        }
        let view = store.view_at(150, &revived);
        assert_eq!(
            (view.slot_count(), view.live(), view.live_bits()),
            (150, then.live(), then.live_bits())
        );
        for col in 0..2 {
            assert_eq!(
                joined(&view, col),
                joined(&then.view(), col),
                "column {col}"
            );
        }
        let runs: Vec<Range<usize>> = set_runs(view.live_bits()).collect();
        assert_eq!(runs, vec![0..5, 6..64, 66..149]);
        // A point that changes nothing lends the store itself.
        assert!(matches!(
            store.view_at(200, &[]).live_bits,
            Cow::Borrowed(_)
        ));
        assert_eq!(set_runs(&[u64::MAX, 1]).collect::<Vec<_>>(), vec![0..65]);
        assert_eq!(set_runs(&[0, 0]).count(), 0);
    }

    /// Every inconsistency is a typed refusal naming what is wrong.
    #[test]
    fn from_live_cells_refuses_inconsistent_columns() {
        let ints = |v: &[i64]| LiveCells::Int(Cow::Owned(v.to_vec()));
        let strs = |arena: &str, ends: &[usize]| LiveCells::Str {
            arena: Cow::Owned(arena.to_owned()),
            ends: Cow::Owned(ends.to_vec()),
        };
        let refuse = |slots: usize, bits: Vec<u64>, cells: Vec<LiveCells<'_>>, why: &str| {
            match Columns::from_live_cells(schema(), slots, bits, cells) {
                Err(IndexedError::BadColumns(got)) => assert!(got.contains(why), "{got}"),
                other => panic!("expected BadColumns({why}), got {other:?}"),
            }
        };
        // Slots 0 and 2 of 3 live; "é" is two bytes.
        let good = || vec![ints(&[1, 2]), strs("aé", &[1, 3])];
        assert!(Columns::from_live_cells(schema(), 3, vec![0b101], good()).is_ok());

        refuse(3, vec![], good(), "0 words for 3 slots");
        refuse(3, vec![0b101, 0], good(), "2 words for 3 slots");
        refuse(3, vec![0b1101], good(), "past slot count 3");
        refuse(3, vec![0b111], good(), "holds 2 cells for 3 live slots");
        refuse(3, vec![0b1], good(), "holds 2 cells for 1 live slots");
        refuse(3, vec![0b101], vec![ints(&[1, 2])], "1 columns");
        refuse(
            3,
            vec![0b101],
            vec![ints(&[1, 2]), ints(&[1, 2])],
            "holds no Str",
        );
        refuse(
            3,
            vec![0b101],
            vec![ints(&[1, 2]), strs("aé", &[3, 1])],
            "below",
        );
        refuse(
            3,
            vec![0b101],
            vec![ints(&[1, 2]), strs("aé", &[1, 4])],
            "overruns",
        );
        refuse(
            3,
            vec![0b101],
            vec![ints(&[1, 2]), strs("aé", &[1, 2])],
            "splits",
        );
        refuse(
            3,
            vec![0b101],
            vec![ints(&[1, 2]), strs("aé", &[1, 1])],
            "past its last",
        );
        // A whole word of slots, and none: the last word is full or absent.
        let full = Columns::from_live_cells(
            schema(),
            64,
            vec![u64::MAX],
            vec![ints(&[7; 64]), strs("", &[0; 64])],
        )
        .unwrap();
        assert_eq!(full.live(), 64);
        let empty = Columns::from_live_cells(schema(), 0, vec![], vec![ints(&[]), strs("", &[])]);
        assert_eq!(empty.unwrap().slot_count(), 0);
    }
}
