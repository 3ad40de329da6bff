//! Oracle tests for the columnar [`Relation`] against the row store it
//! replaced, a `Vec<Vec<Value>>`: over random schemas and rows — `""`,
//! multibyte strings and `i64::MIN`/`MAX` included — `from_rows`, the
//! scans, `count_where`, `delete_where` and the joins give exactly the
//! rows, error texts, answers and meter counts the vector gives.

use super::*;
use crate::join::{hash_join, join_exists, join_exists_nested_loop};
use crate::schema::ColType;
use proptest::prelude::*;
use std::ops::Bound;

/// The cells a generated value is drawn from: the ends of `i64`, and
/// strings of no, one-byte and multibyte characters.
const INTS: [i64; 6] = [i64::MIN, -7, 0, 1, 42, i64::MAX];
const STRS: [&str; 6] = ["", "a", "ab", "é", "日本語", "zz"];

/// Column `c` is `Str` when bit 0 of `kinds[c]` is set.
fn schema_of(kinds: &[u8]) -> Schema {
    let names: Vec<String> = (0..kinds.len()).map(|c| format!("c{c}")).collect();
    let cols: Vec<(&str, ColType)> = names
        .iter()
        .zip(kinds)
        .map(|(name, kind)| {
            let col_type = if kind & 1 == 1 {
                ColType::Str
            } else {
                ColType::Int
            };
            (name.as_str(), col_type)
        })
        .collect();
    Schema::new(&cols)
}

fn value(is_str: bool, raw: u8) -> Value {
    let at = usize::from(raw) % INTS.len();
    if is_str {
        Value::str(STRS[at])
    } else {
        Value::Int(INTS[at])
    }
}

/// A row of the schema `kinds` describes, out of the first raw bytes.
fn row_of(kinds: &[u8], raws: [u8; 4]) -> Vec<Value> {
    kinds
        .iter()
        .zip(raws)
        .map(|(kind, raw)| value(kind & 1 == 1, raw))
        .collect()
}

/// The text the row store reported for the first row the schema
/// rejected, written out independently of [`Schema::admits`].
fn first_rejection(schema: &Schema, rows: &[Vec<Value>]) -> Option<String> {
    rows.iter().find_map(|row| {
        if row.len() != schema.arity() {
            return Some(format!(
                "arity mismatch: tuple has {} values, schema has {} columns",
                row.len(),
                schema.arity()
            ));
        }
        row.iter().enumerate().find_map(|(col, v)| {
            let fits = matches!(
                (schema.col_type(col), v),
                (ColType::Int, Value::Int(_)) | (ColType::Str, Value::Str(_))
            );
            (!fits).then(|| format!("type mismatch in column {:?}: value {v}", schema.name(col)))
        })
    })
}

/// One leaf query: a point, or a range with each bound included,
/// excluded or absent; bit 3 of `shape` gives its value the other type.
fn leaf(kinds: &[u8], (shape, col, a, b): (u8, u8, u8, u8)) -> SelectionQuery {
    let col = usize::from(col) % kinds.len();
    let is_str = (kinds[col] & 1 == 1) != (shape & 8 == 8);
    let bound = |kind: u8, raw: u8| match kind % 3 {
        0 => Bound::Included(value(is_str, raw)),
        1 => Bound::Excluded(value(is_str, raw)),
        _ => Bound::Unbounded,
    };
    match shape & 7 {
        0 => SelectionQuery::point(col, value(is_str, a)),
        s => SelectionQuery::Range {
            col,
            lo: bound(s, a),
            hi: bound(s / 3, b),
        },
    }
}

/// The leaves and the conjunction of each neighbouring pair.
fn queries(kinds: &[u8], raw: &[(u8, u8, u8, u8)]) -> Vec<SelectionQuery> {
    let leaves: Vec<SelectionQuery> = raw.iter().map(|&r| leaf(kinds, r)).collect();
    let pairs = leaves
        .windows(2)
        .map(|w| SelectionQuery::and(w[0].clone(), w[1].clone()));
    leaves.iter().cloned().chain(pairs).collect()
}

/// Rows, length, scans (answer and ticks) and counts of `relation` are
/// those of the row vector.
fn check_against_rows(
    relation: &Relation,
    rows: &[Vec<Value>],
    queries: &[SelectionQuery],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(relation.len(), rows.len());
    prop_assert!(relation.rows().map(RowRef::to_vec).eq(rows.iter().cloned()));
    for (i, row) in rows.iter().enumerate() {
        prop_assert_eq!(&relation.row(i).to_vec(), row, "row {}", i);
    }
    let meter = Meter::new();
    for q in queries {
        let first = rows.iter().position(|row| q.matches(row));
        prop_assert_eq!(relation.eval_scan(q), first.is_some(), "{:?}", q);
        meter.take();
        prop_assert_eq!(relation.eval_scan_metered(q, &meter), first.is_some());
        let ticks = first.map_or(rows.len(), |at| at + 1) as u64;
        prop_assert_eq!(meter.take(), ticks, "ticks of {:?}", q);
        let count = rows.iter().filter(|row| q.matches(*row)).count();
        prop_assert_eq!(relation.count_where(q), count, "count of {:?}", q);
    }
    Ok(())
}

proptest! {
    /// `from_rows` keeps the rows in order; scans and counts answer and
    /// meter as over the vector; `delete_where` removes what `retain`
    /// drops and keeps the rest in order; inserts land after them.
    #[test]
    fn relation_agrees_with_a_row_vector(
        kinds in prop::collection::vec(0u8..2, 1..5),
        raw_rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..6), 0..90),
        raw_queries in prop::collection::vec((0u8..16, 0u8..4, 0u8..6, 0u8..6), 1..6),
        extra in (0u8..6, 0u8..6, 0u8..6, 0u8..6),
    ) {
        let schema = schema_of(&kinds);
        let mut rows: Vec<Vec<Value>> = raw_rows
            .into_iter()
            .map(|(a, b, c, d)| row_of(&kinds, [a, b, c, d]))
            .collect();
        let queries = queries(&kinds, &raw_queries);
        let mut relation = Relation::from_rows(schema.clone(), rows.clone()).unwrap();
        prop_assert!(relation.rows.is_exactly_sized());
        check_against_rows(&relation, &rows, &queries)?;

        let doomed = &queries[0];
        let before = rows.len();
        rows.retain(|row| !doomed.matches(row));
        prop_assert_eq!(relation.delete_where(|row| doomed.matches(row)), before - rows.len());
        check_against_rows(&relation, &rows, &queries)?;

        let (a, b, c, d) = extra;
        let row = row_of(&kinds, [a, b, c, d]);
        prop_assert_eq!(relation.insert(row.clone()), Ok(rows.len()));
        rows.push(row);
        check_against_rows(&relation, &rows, &queries)?;
        prop_assert_eq!(relation, Relation::from_rows(schema, rows).unwrap());
    }

    /// Among valid rows, one to three bad ones — a missing or extra
    /// cell, or a cell of the wrong type — anywhere: the error is the
    /// row store's text for the first.
    #[test]
    fn the_first_rejected_row_is_reported_as_before(
        kinds in prop::collection::vec(0u8..2, 1..5),
        raw_rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..6), 0..20),
        bad in prop::collection::vec((0u8..3, 0usize..32, 0usize..4), 1..4),
    ) {
        let schema = schema_of(&kinds);
        let mut rows: Vec<Vec<Value>> = raw_rows
            .into_iter()
            .map(|(a, b, c, d)| row_of(&kinds, [a, b, c, d]))
            .collect();
        for (how, at, col) in bad {
            let mut row = row_of(&kinds, [1, 2, 3, 4]);
            match how {
                0 => _ = row.pop(),
                1 => row.push(Value::Int(0)),
                _ => {
                    let col = col % row.len();
                    row[col] = value(matches!(row[col], Value::Int(_)), 5);
                }
            }
            rows.insert(at % (rows.len() + 1), row);
        }
        let expect = first_rejection(&schema, &rows).expect("a bad row was planted");
        prop_assert_eq!(Relation::from_rows(schema, rows).unwrap_err(), expect);
    }

    /// The hash join produces exactly the nested-loop pairs, and both
    /// Boolean join forms answer — and meter — as loops over the vectors.
    #[test]
    fn joins_agree_with_nested_loops_over_row_vectors(
        left_kinds in prop::collection::vec(0u8..2, 1..4),
        right_kinds in prop::collection::vec(0u8..2, 1..4),
        left_raw in prop::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..6), 0..30),
        right_raw in prop::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..6), 0..30),
        cols in (0usize..3, 0usize..3),
    ) {
        let side = |kinds: &[u8], raw: Vec<(u8, u8, u8, u8)>| -> Vec<Vec<Value>> {
            raw.into_iter().map(|(a, b, c, d)| row_of(kinds, [a, b, c, d])).collect()
        };
        let (l_rows, r_rows) = (side(&left_kinds, left_raw), side(&right_kinds, right_raw));
        let left = Relation::from_rows(schema_of(&left_kinds), l_rows.clone()).unwrap();
        let right = Relation::from_rows(schema_of(&right_kinds), r_rows.clone()).unwrap();
        let (lcol, rcol) = (cols.0 % left_kinds.len(), cols.1 % right_kinds.len());

        let mut pairs: Vec<Vec<Value>> = Vec::new();
        let mut first: Option<(usize, usize)> = None;
        for (li, l) in l_rows.iter().enumerate() {
            for (ri, r) in r_rows.iter().enumerate() {
                if l[lcol] == r[rcol] {
                    first.get_or_insert((li, ri));
                    pairs.push(l.iter().chain(r).cloned().collect());
                }
            }
        }
        let joined = hash_join(&left, lcol, &right, rcol);
        prop_assert_eq!(joined.schema().arity(), left_kinds.len() + right_kinds.len());
        let mut got: Vec<Vec<Value>> = joined.rows().map(RowRef::to_vec).collect();
        got.sort();
        pairs.sort();
        prop_assert_eq!(got, pairs);

        let meter = Meter::new();
        prop_assert_eq!(join_exists_nested_loop(&left, lcol, &right, rcol, &meter), first.is_some());
        let loop_ticks = first.map_or(l_rows.len() * r_rows.len(), |(li, ri)| li * r_rows.len() + ri + 1);
        prop_assert_eq!(meter.take(), loop_ticks as u64);

        prop_assert_eq!(join_exists(&left, lcol, &right, rcol, &meter), first.is_some());
        let probed = r_rows.iter().position(|r| l_rows.iter().any(|l| l[lcol] == r[rcol]));
        let hash_ticks = l_rows.len() + probed.map_or(r_rows.len(), |at| at + 1);
        prop_assert_eq!(meter.take(), hash_ticks as u64);
    }
}
