//! Row-store relations with scan-based query evaluation.
//!
//! [`Relation::eval_scan_metered`] is the paper's "naive evaluation of Q₁
//! would require a linear scan of D" — the baseline curve of E1, metered
//! per tuple comparison so tests and benches can certify the O(n) shape.

use crate::query::SelectionQuery;
use crate::schema::Schema;
use crate::value::Value;
use pitract_core::cost::Meter;

/// A typed, row-ordered relation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Empty relation over a schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build from rows, validating each against the schema; the first
    /// row the schema rejects is the error. The caller's vector becomes
    /// the relation's storage as it is.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, String> {
        for row in &rows {
            schema.admits(row)?;
        }
        Ok(Relation { schema, rows })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row by position.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Insert a validated tuple; returns its row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<usize, String> {
        self.schema.admits(&row)?;
        self.rows.push(row);
        Ok(self.rows.len() - 1)
    }

    /// Delete all tuples matching a predicate; returns how many were
    /// removed. Row ids after the first removal shift (row stores compact).
    pub fn delete_where(&mut self, pred: impl Fn(&[Value]) -> bool) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| !pred(r));
        before - self.rows.len()
    }

    /// Boolean query evaluation by full scan — the no-preprocessing
    /// baseline. O(n) per query.
    pub fn eval_scan(&self, q: &SelectionQuery) -> bool {
        self.rows.iter().any(|r| q.matches(r))
    }

    /// Metered scan: one tick per tuple inspected (early exit on the first
    /// witness, like a real executor).
    pub fn eval_scan_metered(&self, q: &SelectionQuery, meter: &Meter) -> bool {
        for r in &self.rows {
            meter.tick();
            if q.matches(r) {
                return true;
            }
        }
        false
    }

    /// Count matching tuples (used by workload statistics).
    pub fn count_where(&self, q: &SelectionQuery) -> usize {
        self.rows.iter().filter(|r| q.matches(r)).count()
    }
}

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
    }

    #[test]
    fn from_rows_reports_the_first_rejected_row_and_keeps_the_vector() {
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
        let mut rows = Vec::with_capacity(8);
        rows.push(vec![Value::Int(1), Value::str("oslo")]);
        let block = rows.as_ptr();
        let relation = Relation::from_rows(schema, rows).unwrap();
        assert_eq!(relation.rows().as_ptr(), block, "the rows were not moved");
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
        let removed = r.delete_where(|row| row[1] == Value::str("rome"));
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
