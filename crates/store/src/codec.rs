//! The hand-rolled binary codec: little-endian, length-prefixed, and
//! total on the read side.
//!
//! No serde: snapshot producers run offline and the format is small
//! enough that an explicit writer/reader pair is simpler than a derive —
//! and it keeps the crate zero-dependency. Conventions:
//!
//! * scalars are fixed-width little-endian (`u8`/`u16`/`u32`/`u64`/`i64`);
//!   `usize` is always written as `u64` so files are portable across
//!   pointer widths;
//! * strings are a `u64` byte length followed by UTF-8 bytes (validated
//!   on read);
//! * sequences are a `u64` element count followed by the elements;
//! * a *run* is `n` consecutive 8-byte words (`u64`, `i64`, or `usize`
//!   as `u64`) with no framing of its own: the caller writes and checks
//!   `n`. Runs are written and read a word at a time over one buffer, so
//!   a column of `i64`s costs one bounds check, not one per cell;
//! * sum types carry a one-byte tag ([`Value`]: 0 = `Int`, 1 = `Str`;
//!   [`ColType`]: same; `Option`: 0 = `None`, 1 = `Some`).
//!
//! A [`Writer`] keeps its bytes in memory, or only counts them, or
//! streams them to a file through one [`CHUNK`]: a snapshot save sizes
//! every section with the count before it writes the first payload, and
//! never holds more of its file than that chunk.
//!
//! The [`Reader`] is **total**: every read bounds-checks against the
//! remaining input and every declared count is sanity-checked against the
//! bytes that could possibly back it, so feeding arbitrary or truncated
//! bytes returns a [`StoreError`] — never a panic and never an
//! attacker-sized allocation. (A fuzz-style test in `tests/proptests.rs`
//! drives random and truncated inputs through the whole load path.)

use crate::error::StoreError;
use crate::storage::FileHandle;
use pitract_core::hash::{xxh64, Xxh64};
use pitract_engine::UpdateEntry;
use pitract_relation::{ColType, Schema, Tuple, Value, ValueRef};
use std::io;

/// An append-only little-endian byte writer over one of three sinks:
/// memory ([`Writer::new`]), a count that keeps no byte, or a file
/// reached through one fixed-size chunk. The encoders cannot tell them
/// apart, so one encoder sizes a payload, writes it to a file, and
/// writes it to memory, the same bytes each time.
#[derive(Debug, Default)]
pub struct Writer {
    sink: Sink,
}

/// Where a [`Writer`]'s bytes go.
#[derive(Debug)]
enum Sink {
    /// Kept, in one buffer that grows.
    Memory(Vec<u8>),
    /// Counted and dropped: how long a payload is, before it is written.
    /// A run costs one add.
    Count(usize),
    /// Streamed to a file.
    File(Box<Chunked>),
}

impl Default for Sink {
    fn default() -> Self {
        Sink::Memory(Vec::new())
    }
}

/// The bytes a save holds at once: one chunk, whatever the file's size.
pub const CHUNK: usize = 1 << 20;

/// A file written through one chunk: bytes are staged in it and, each
/// time it fills, absorbed by a running XXH64 and appended to the file.
/// The first failed append is kept and every later one skipped, so an
/// encoder never sees an error; [`Writer::seal`] returns it.
#[derive(Debug)]
struct Chunked {
    chunk: Vec<u8>,
    size: usize,
    file: FileHandle,
    hash: Xxh64,
    /// Bytes appended (or skipped after a failure) so far.
    drained: usize,
    failed: Option<io::Error>,
}

impl Chunked {
    /// Stage `bytes`, draining the chunk each time it fills.
    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (self.size - self.chunk.len()).min(bytes.len());
            self.chunk.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.drain_if_full();
        }
    }

    /// Stage `run` word by word, as many words as the chunk has room
    /// for at a time; a word the chunk's end cuts goes in two pieces.
    fn words<T>(&mut self, mut run: impl ExactSizeIterator<Item = T>, le: impl Fn(T) -> [u8; 8]) {
        while run.len() > 0 {
            let start = self.chunk.len();
            let fit = ((self.size - start) / 8).min(run.len());
            if fit == 0 {
                if let Some(v) = run.next() {
                    self.put(&le(v));
                }
                continue;
            }
            self.chunk.resize(start + 8 * fit, 0);
            for (dst, v) in self.chunk[start..].chunks_exact_mut(8).zip(run.by_ref()) {
                dst.copy_from_slice(&le(v));
            }
            self.drain_if_full();
        }
    }

    fn drain_if_full(&mut self) {
        if self.chunk.len() == self.size {
            self.hash.write(&self.chunk);
            self.append();
        }
    }

    /// Append the chunk to the file, unless an append already failed,
    /// and empty it.
    fn append(&mut self) {
        if self.failed.is_none() {
            if let Err(e) = self.file.append(&self.chunk) {
                self.failed = Some(e);
            }
        }
        self.drained += self.chunk.len();
        self.chunk.clear();
    }
}

impl Writer {
    /// A fresh, empty writer that keeps its bytes in memory.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that keeps no byte and counts them.
    pub(crate) fn counting() -> Self {
        Writer {
            sink: Sink::Count(0),
        }
    }

    /// A writer that appends to `file` through one [`CHUNK`].
    pub(crate) fn to_file(file: FileHandle) -> Self {
        Writer::to_file_in_chunks(file, CHUNK)
    }

    /// [`Self::to_file`] through a chunk of `size` bytes (at least one).
    pub(crate) fn to_file_in_chunks(file: FileHandle, size: usize) -> Self {
        let size = size.max(1);
        Writer {
            sink: Sink::File(Box::new(Chunked {
                chunk: Vec::with_capacity(size),
                size,
                file,
                hash: Xxh64::new(0),
                drained: 0,
                failed: None,
            })),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Memory(buf) => buf.len(),
            Sink::Count(n) => *n,
            Sink::File(f) => f.drained + f.chunk.len(),
        }
    }

    /// Has anything been written?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish and take the bytes of an in-memory writer. A counting or
    /// file writer keeps none, and returns none.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Memory(buf) => buf,
            Sink::Count(_) | Sink::File(_) => Vec::new(),
        }
    }

    /// End the bytes with their XXH64 under seed 0 — a file writer's
    /// from the hash its chunks ran through as they drained — and
    /// append a file writer's last chunk. Returns the first failed
    /// append.
    pub(crate) fn seal(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Memory(buf) => {
                let sum = xxh64(buf, 0);
                buf.extend_from_slice(&sum.to_le_bytes());
            }
            Sink::Count(n) => *n += 8,
            Sink::File(f) => {
                f.hash.write(&f.chunk);
                let sum = f.hash.finish();
                f.chunk.extend_from_slice(&sum.to_le_bytes());
                f.append();
                if let Some(e) = f.failed.take() {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Write `bytes` as they are.
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Memory(buf) => buf.extend_from_slice(bytes),
            Sink::Count(n) => *n += bytes.len(),
            Sink::File(f) => f.put(bytes),
        }
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Write a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (portable across pointer widths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write raw bytes with no framing (caller-framed payloads).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.put(bytes);
    }

    /// Write `run` as consecutive little-endian `u64`s (no count).
    pub fn u64_run(&mut self, run: &[u64]) {
        self.words(run.iter().copied(), u64::to_le_bytes);
    }

    /// Write `run` as consecutive little-endian `i64`s (no count).
    pub fn i64_run(&mut self, run: &[i64]) {
        self.words(run.iter().copied(), i64::to_le_bytes);
    }

    /// Write `run` as consecutive `u64`s (no count).
    pub fn usize_run(&mut self, run: &[usize]) {
        self.usize_iter(run.iter().copied());
    }

    /// Write `values` as consecutive `u64`s (no count).
    pub fn usize_iter(&mut self, values: impl ExactSizeIterator<Item = usize>) {
        self.words(values, |v| (v as u64).to_le_bytes());
    }

    /// Write a run word by word: in memory, grow the buffer once by the
    /// whole run and fill it; counting, add its length; to a file, fill
    /// the chunk as it drains.
    fn words<T>(&mut self, run: impl ExactSizeIterator<Item = T>, le: impl Fn(T) -> [u8; 8]) {
        match &mut self.sink {
            Sink::Memory(buf) => {
                let start = buf.len();
                buf.resize(start + 8 * run.len(), 0);
                for (dst, v) in buf[start..].chunks_exact_mut(8).zip(run) {
                    dst.copy_from_slice(&le(v));
                }
            }
            Sink::Count(n) => *n += 8 * run.len(),
            Sink::File(f) => f.words(run, le),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.put(s.as_bytes());
    }

    /// Write a tagged [`Value`].
    pub fn value(&mut self, v: &Value) {
        self.value_ref(v.as_ref());
    }

    /// Write a tagged borrowed value — the same bytes as [`Self::value`]
    /// on the `Value` it borrows from.
    pub fn value_ref(&mut self, v: ValueRef<'_>) {
        match v {
            ValueRef::Int(i) => {
                self.u8(0);
                self.i64(i);
            }
            ValueRef::Str(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Write a row — a `&[Value]` or a [`RowRef`] view of column
    /// storage: element count, then tagged values.
    ///
    /// [`RowRef`]: pitract_relation::RowRef
    pub fn row(&mut self, row: impl Tuple) {
        self.usize(row.arity());
        for col in 0..row.arity() {
            self.value_ref(row.cell(col));
        }
    }

    /// Write an optional row (0 = tombstone, 1 = live).
    pub fn opt_row(&mut self, slot: Option<impl Tuple>) {
        match slot {
            None => self.u8(0),
            Some(row) => {
                self.u8(1);
                self.row(row);
            }
        }
    }

    /// Write a [`Schema`]: column count, then `(name, type tag)` pairs.
    pub fn schema(&mut self, schema: &Schema) {
        self.usize(schema.arity());
        for col in 0..schema.arity() {
            self.str(schema.name(col));
            self.u8(match schema.col_type(col) {
                ColType::Int => 0,
                ColType::Str => 1,
            });
        }
    }

    /// Write a sequence of `u64`-encoded `usize`s: the count, then the
    /// run.
    pub fn usize_seq(&mut self, seq: &[usize]) {
        self.usize(seq.len());
        self.usize_run(seq);
    }

    /// Write one tagged [`UpdateEntry`] (0 = insert with gid + row,
    /// 1 = delete with gid) — the encoding of the `pitract-wal` segment
    /// payloads.
    pub fn update_entry(&mut self, entry: &UpdateEntry) {
        match entry {
            UpdateEntry::Insert { gid, row } => {
                self.u8(0);
                self.usize(*gid);
                self.row(row);
            }
            UpdateEntry::Delete { gid } => {
                self.u8(1);
                self.usize(*gid);
            }
        }
    }
}

/// A bounds-checked little-endian byte reader over a borrowed slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if n > self.remaining() {
            return Err(StoreError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take exactly `N` bytes as an array — the fixed-width cousin of
    /// [`Self::take`], with the same typed [`StoreError::Truncated`] on
    /// underrun instead of a panicking slice conversion.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `i64`, little-endian.
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.u64()?).map_err(|_| StoreError::Corrupt("usize overflow".into()))
    }

    /// Read a declared element count, rejecting counts that could not
    /// possibly be backed by the remaining bytes (each element occupies
    /// at least `min_elem_bytes`). This bounds allocations by the input
    /// size, so a corrupted count cannot trigger a huge `Vec` reserve.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(StoreError::Truncated);
        }
        Ok(n)
    }

    /// Read a run of `n` little-endian `u64`s; fewer than `8 n` bytes
    /// left is [`StoreError::Truncated`].
    pub fn u64_run(&mut self, n: usize) -> Result<Vec<u64>, StoreError> {
        Ok(self.words(n)?.map(u64::from_le_bytes).collect())
    }

    /// Read a run of `n` little-endian `i64`s, like [`Self::u64_run`].
    pub fn i64_run(&mut self, n: usize) -> Result<Vec<i64>, StoreError> {
        Ok(self.words(n)?.map(i64::from_le_bytes).collect())
    }

    /// Read a run of `n` `u64`s as `usize`s, like [`Self::u64_run`]; a
    /// word this platform's `usize` cannot hold is corrupt.
    pub fn usize_run(&mut self, n: usize) -> Result<Vec<usize>, StoreError> {
        let mut out = Vec::with_capacity(n);
        for word in self.words(n)? {
            let v = usize::try_from(u64::from_le_bytes(word))
                .map_err(|_| StoreError::Corrupt("usize overflow".into()))?;
            out.push(v);
        }
        Ok(out)
    }

    /// Take `n` 8-byte words, each as an array.
    fn words(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; 8]> + 'a, StoreError> {
        let bytes = n.checked_mul(8).ok_or(StoreError::Truncated)?;
        Ok(self.take(bytes)?.chunks_exact(8).map(|word| {
            let mut out = [0; 8];
            out.copy_from_slice(word);
            out
        }))
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    pub fn str_ref(&mut self) -> Result<&'a str, StoreError> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StoreError::Corrupt("string is not UTF-8".into()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        self.str_ref().map(str::to_owned)
    }

    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value, StoreError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Str(self.str()?)),
            tag => Err(StoreError::Corrupt(format!("bad value tag {tag}"))),
        }
    }

    /// Read a row (count + tagged values).
    pub fn row(&mut self) -> Result<Vec<Value>, StoreError> {
        let mut row = Vec::new();
        self.row_into(&mut row)?;
        Ok(row)
    }

    /// [`Self::row`] into `row`, which is cleared first — a loader reuses
    /// one vector for every row it decodes.
    pub fn row_into(&mut self, row: &mut Vec<Value>) -> Result<(), StoreError> {
        let n = self.count(1)?;
        row.clear();
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(())
    }

    /// Read an optional row ([`Writer::opt_row`]) into `row`: `true`
    /// when a live row was read into it, `false` for a tombstone.
    pub fn opt_row_into(&mut self, row: &mut Vec<Value>) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => self.row_into(row).map(|()| true),
            tag => Err(StoreError::Corrupt(format!("bad option tag {tag}"))),
        }
    }

    /// Read a [`Schema`].
    pub fn schema(&mut self) -> Result<Schema, StoreError> {
        let arity = self.count(1)?;
        let mut cols: Vec<(String, ColType)> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let name = self.str()?;
            let ty = match self.u8()? {
                0 => ColType::Int,
                1 => ColType::Str,
                tag => return Err(StoreError::Corrupt(format!("bad column type tag {tag}"))),
            };
            if name.is_empty() {
                return Err(StoreError::Corrupt("empty column name".into()));
            }
            if cols.iter().any(|(n, _)| n == &name) {
                return Err(StoreError::Corrupt(format!("duplicate column {name:?}")));
            }
            cols.push((name, ty));
        }
        let borrowed: Vec<(&str, ColType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Ok(Schema::new(&borrowed))
    }

    /// Read a sequence of `usize`s: the count, then the run.
    pub fn usize_seq(&mut self) -> Result<Vec<usize>, StoreError> {
        let n = self.count(8)?;
        self.usize_run(n)
    }

    /// Read one tagged [`UpdateEntry`] (the inverse of
    /// [`Writer::update_entry`]).
    pub fn update_entry(&mut self) -> Result<UpdateEntry, StoreError> {
        match self.u8()? {
            0 => Ok(UpdateEntry::Insert {
                gid: self.usize()?,
                row: self.row()?,
            }),
            1 => Ok(UpdateEntry::Delete { gid: self.usize()? }),
            tag => Err(StoreError::Corrupt(format!("bad log entry tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65535);
        w.u32(123_456);
        w.u64(u64::MAX);
        w.i64(i64::MIN);
        w.usize(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn values_and_rows_roundtrip() {
        let rows: Vec<Option<Vec<Value>>> = vec![
            Some(vec![Value::Int(i64::MIN), Value::str("")]),
            None,
            Some(vec![Value::Int(i64::MAX), Value::str("héllo Σ* 日本語")]),
            Some(vec![]), // zero-arity edge
        ];
        let mut w = Writer::new();
        for slot in &rows {
            w.opt_row(slot.as_ref());
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut row = Vec::new();
        for slot in &rows {
            let live = r.opt_row_into(&mut row).unwrap();
            assert_eq!(&live.then(|| row.clone()), slot);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn schema_roundtrips() {
        let schema = Schema::new(&[("id", ColType::Int), ("täg", ColType::Str)]);
        let mut w = Writer::new();
        w.schema(&schema);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).schema().unwrap(), schema);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.value(&Value::str("a longer string payload"));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.value().is_err(), "prefix of {cut} bytes must fail");
        }
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocation() {
        // A count claiming 2^60 strings backed by 8 bytes of input.
        let mut w = Writer::new();
        w.u64(1 << 60);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).usize_seq(),
            Err(StoreError::Truncated)
        ));
        assert!(matches!(
            Reader::new(&bytes).row(),
            Err(StoreError::Truncated)
        ));
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let bytes = [9u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Reader::new(&bytes).value(),
            Err(StoreError::Corrupt(_))
        ));
        let mut w = Writer::new();
        w.usize(1);
        w.str("c");
        w.u8(7); // bad ColType tag
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).schema(),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn runs_roundtrip_and_a_short_run_is_truncated() {
        let mut w = Writer::new();
        w.u64_run(&[0, u64::MAX]);
        w.i64_run(&[i64::MIN, -1, i64::MAX]);
        w.usize_run(&[7]);
        w.i64_run(&[]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 6 * 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64_run(2).unwrap(), vec![0, u64::MAX]);
        assert_eq!(r.i64_run(3).unwrap(), vec![i64::MIN, -1, i64::MAX]);
        assert_eq!(r.usize_run(1).unwrap(), vec![7]);
        assert_eq!(r.i64_run(0).unwrap(), Vec::<i64>::new());
        assert!(r.is_exhausted());
        for cut in [0, 7, 15] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(r.i64_run(2), Err(StoreError::Truncated)), "{cut}");
        }
        assert!(matches!(
            Reader::new(&bytes).u64_run(usize::MAX),
            Err(StoreError::Truncated)
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = Writer::new();
        w.usize(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).str(),
            Err(StoreError::Corrupt(_))
        ));
    }
}
