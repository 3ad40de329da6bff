//! Plain relations — rows in typed columns, no index — with scan-based
//! query evaluation.
//!
//! A [`Relation`] keeps its rows in the crate's one row store,
//! [`Columns`]: an `Int` column is a `Vec<i64>`, a `Str` column one
//! arena plus end offsets, and every slot is live (a delete compacts).
//! [`Relation::from_rows`] consumes the caller's rows into columns sized
//! exactly for them, so the input of Π(D) costs its cells and no
//! per-row heap block. Rows come out as borrowed [`RowRef`]s.
//!
//! [`Relation::eval_scan_metered`] is the paper's "naive evaluation of Q₁
//! would require a linear scan of D" — the baseline curve of E1, metered
//! per tuple comparison so tests and benches can certify the O(n) shape.

use crate::columns::{Columns, RowRef, Tuple};
use crate::query::SelectionQuery;
use crate::schema::Schema;
use crate::value::Value;
use pitract_core::cost::Meter;
use std::fmt;

/// A typed, row-ordered relation instance.
#[derive(Clone)]
pub struct Relation {
    /// Every slot live: row `i` is slot `i`.
    rows: Columns,
}

impl Relation {
    /// Empty relation over a schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            rows: Columns::new(schema),
        }
    }

    /// Build from rows, validating each against the schema; the first
    /// row the schema rejects is the error, found before anything is
    /// built. The vector is consumed into exactly-sized columns, each
    /// row freed as soon as its cells are in ([`Columns::from_rows`]).
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, String> {
        Columns::from_rows(schema, rows).map(|rows| Relation { rows })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.live()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row by position (panics when `i` is out of range, like indexing).
    pub fn row(&self, i: usize) -> RowRef<'_> {
        self.rows.row(i).expect("row index out of range")
    }

    /// All rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The row store, for builds that copy it column by column.
    pub(crate) fn columns(&self) -> &Columns {
        &self.rows
    }

    /// Insert a validated tuple; returns its row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<usize, String> {
        self.insert_tuple(&row)
    }

    /// Insert a validated borrowed tuple — a [`RowRef`] out of another
    /// store, or a slice of values — cell by cell; returns its row id.
    pub fn insert_tuple(&mut self, row: impl Tuple) -> Result<usize, String> {
        self.schema().admits(row)?;
        Ok(self.rows.push_row(row))
    }

    /// Delete all tuples matching a predicate; returns how many were
    /// removed. The survivors keep their order and are compacted into
    /// fresh exactly-sized columns, so row ids after the first removal
    /// shift.
    pub fn delete_where(&mut self, pred: impl Fn(RowRef<'_>) -> bool) -> usize {
        let doomed: Vec<u32> = self.rows().map(|row| u32::from(pred(row))).collect();
        let removed = doomed.iter().filter(|&&d| d == 1).count();
        if removed > 0 {
            let mut parts = Columns::split(&self.rows, 2, &doomed);
            self.rows = parts.swap_remove(0);
        }
        removed
    }

    /// Boolean query evaluation by full scan — the no-preprocessing
    /// baseline. O(n) per query.
    pub fn eval_scan(&self, q: &SelectionQuery) -> bool {
        self.rows().any(|r| q.matches(r))
    }

    /// Metered scan: one tick per tuple inspected (early exit on the first
    /// witness, like a real executor).
    pub fn eval_scan_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        for r in self.rows() {
            meter.tick();
            if q.matches(r) {
                return true;
            }
        }
        false
    }

    /// Count matching tuples (used by workload statistics).
    pub fn count_where(&self, q: &SelectionQuery) -> usize {
        self.rows().filter(|&r| q.matches(r)).count()
    }
}

/// Equal schemas and equal rows in the same order.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema() == other.schema() && self.rows().eq(other.rows())
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", self.schema())
            .field("rows", &self.rows().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColType;

    fn sample() -> Relation {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::str("oslo")],
                vec![Value::Int(2), Value::str("rome")],
                vec![Value::Int(3), Value::str("rome")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_validates() {
        let mut r = sample();
        assert!(r.insert(vec![Value::Int(4), Value::str("kyiv")]).is_ok());
        assert!(r
            .insert(vec![Value::str("bad"), Value::str("kyiv")])
            .is_err());
        assert!(r.insert(vec![Value::Int(5)]).is_err());
        assert_eq!(r.len(), 4);
        let copy = r.row(3);
        let mut other = Relation::new(r.schema().clone());
        assert_eq!(other.insert_tuple(copy), Ok(0));
        assert_eq!(other.row(0), copy);
    }

    /// The rejected row is reported as before, and the rows that pass
    /// land in columns holding exactly their cells: every column, arena
    /// and bitmap has capacity equal to its length.
    #[test]
    fn from_rows_reports_the_first_rejected_row_and_sizes_the_columns_exactly() {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::str("oslo")],
            vec![Value::str("bad"), Value::str("rome")],
            vec![Value::Int(3)],
        ];
        assert_eq!(
            Relation::from_rows(schema.clone(), rows).unwrap_err(),
            "type mismatch in column \"id\": value \"bad\""
        );
        let rows = vec![vec![Value::Int(1), Value::str("oslo")], vec![Value::Int(3)]];
        assert_eq!(
            Relation::from_rows(schema.clone(), rows).unwrap_err(),
            "arity mismatch: tuple has 1 values, schema has 2 columns"
        );
        // 130 rows: two whole bitmap words and a partial third; cells of
        // 0, 2 and 4 bytes.
        let mut rows = Vec::with_capacity(200);
        rows.extend((0..130).map(|i| vec![Value::Int(i), Value::str("é".repeat(i as usize % 3))]));
        let relation = Relation::from_rows(schema, rows.clone()).unwrap();
        assert!(relation.rows().map(RowRef::to_vec).eq(rows));
        assert!(relation.rows.is_exactly_sized());
    }

    #[test]
    fn scan_answers_point_queries() {
        let r = sample();
        assert!(r.eval_scan(&SelectionQuery::point(0, 2i64)));
        assert!(!r.eval_scan(&SelectionQuery::point(0, 9i64)));
        assert!(r.eval_scan(&SelectionQuery::point(1, "rome")));
    }

    #[test]
    fn scan_answers_range_and_conjunction() {
        let r = sample();
        assert!(r.eval_scan(&SelectionQuery::range_closed(0, 2i64, 5i64)));
        assert!(!r.eval_scan(&SelectionQuery::range_closed(0, 10i64, 20i64)));
        let q = SelectionQuery::and(
            SelectionQuery::point(1, "rome"),
            SelectionQuery::range_closed(0, 3i64, 3i64),
        );
        assert!(r.eval_scan(&q));
        let q2 = SelectionQuery::and(
            SelectionQuery::point(1, "oslo"),
            SelectionQuery::point(0, 2i64),
        );
        assert!(!r.eval_scan(&q2), "no single tuple witnesses both");
    }

    #[test]
    fn metered_scan_counts_tuples_until_witness() {
        let r = sample();
        let meter = Meter::new();
        r.eval_scan_metered(&SelectionQuery::point(0, 1i64), &meter);
        assert_eq!(meter.take(), 1, "first row already matches");
        r.eval_scan_metered(&SelectionQuery::point(0, 999i64), &meter);
        assert_eq!(meter.take(), 3, "miss scans everything");
    }

    #[test]
    fn delete_where_compacts() {
        let mut r = sample();
        let removed = r.delete_where(|row| row.get(1) == Value::str("rome"));
        assert_eq!(removed, 2);
        assert_eq!(r.len(), 1);
        assert!(!r.eval_scan(&SelectionQuery::point(1, "rome")));
    }

    #[test]
    fn count_where_counts_all_matches() {
        let r = sample();
        assert_eq!(r.count_where(&SelectionQuery::point(1, "rome")), 2);
        assert_eq!(
            r.count_where(&SelectionQuery::range_closed(0, 1i64, 3i64)),
            3
        );
    }
}
