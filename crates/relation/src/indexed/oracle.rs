//! Oracle tests for the typed index: whatever the schema, the churn and
//! the query — mistyped values and bounds included — the index answers
//! what a scan with [`SelectionQuery::matches`] answers, and the
//! build-by-sort and insert-by-insert constructions agree.

use super::tests::export_parts;
use super::*;
use proptest::prelude::*;

/// Per column: `(is_str, domain)`. A domain of 4 makes a duplicate-heavy
/// column, one of 10 000 a (nearly) unique one.
type Columns = Vec<(bool, u64)>;

fn columns(kinds: &[u8]) -> Columns {
    kinds
        .iter()
        .map(|kind| (kind & 1 == 1, if kind & 2 == 2 { 4 } else { 10_000 }))
        .collect()
}

fn schema_of(columns: &Columns) -> Schema {
    let names: Vec<String> = (0..columns.len()).map(|c| format!("c{c}")).collect();
    let cols: Vec<(&str, ColType)> = names
        .iter()
        .zip(columns)
        .map(|(name, (is_str, _))| {
            (
                name.as_str(),
                if *is_str { ColType::Str } else { ColType::Int },
            )
        })
        .collect();
    Schema::new(&cols)
}

/// A value of the given type out of `raw` (negative ints and the empty
/// string included).
fn value(is_str: bool, raw: u64) -> Value {
    if is_str {
        Value::Str("k".repeat((raw % 3) as usize) + &(raw / 3).to_string())
    } else {
        Value::Int(raw as i64 - 2)
    }
}

fn row_of(columns: &Columns, raws: [u64; 3]) -> Vec<Value> {
    columns
        .iter()
        .zip(raws)
        .map(|(&(is_str, domain), raw)| value(is_str, raw % domain))
        .collect()
}

/// Decode one leaf query on some column. `shape` picks point or range
/// and the kind of each bound; `mistype` bits flip the type of the point
/// value, the lower bound and the upper bound.
fn leaf(columns: &Columns, (shape, mistype, col, a, b): (u8, u8, u64, u64, u64)) -> SelectionQuery {
    let col = (col % columns.len() as u64) as usize;
    let (is_str, domain) = columns[col];
    // Probe a little past the domain so misses and empty ranges occur.
    let typed = |raw: u64, flip: bool| value(is_str != flip, raw % (domain + 2));
    let bound = |kind: u8, raw: u64, flip: bool| match kind % 3 {
        0 => Bound::Included(typed(raw, flip)),
        1 => Bound::Excluded(typed(raw, flip)),
        _ => Bound::Unbounded,
    };
    if shape % 4 == 0 {
        SelectionQuery::Point {
            col,
            value: typed(a, mistype & 1 == 1),
        }
    } else {
        SelectionQuery::Range {
            col,
            lo: bound(shape / 4, a, mistype & 2 == 2),
            hi: bound(shape / 12, b, mistype & 4 == 4),
        }
    }
}

/// Leaves, pairs and both nestings of triples over the decoded leaves.
fn queries(columns: &Columns, raw: &[(u8, u8, u64, u64, u64)]) -> Vec<SelectionQuery> {
    let leaves: Vec<SelectionQuery> = raw.iter().map(|&r| leaf(columns, r)).collect();
    let mut out = leaves.clone();
    for w in leaves.windows(2) {
        out.push(SelectionQuery::and(w[0].clone(), w[1].clone()));
    }
    for w in leaves.windows(3) {
        let (a, b, c) = (w[0].clone(), w[1].clone(), w[2].clone());
        out.push(SelectionQuery::and(
            SelectionQuery::and(a.clone(), b.clone()),
            c.clone(),
        ));
        out.push(SelectionQuery::and(a, SelectionQuery::and(b, c)));
    }
    out
}

/// Structural audit: every tree passes its own invariant check, and
/// every posting is non-empty, ascending, inline exactly when single,
/// and posts live rows holding its key — each live row once.
fn audit(ir: &IndexedRelation) -> Result<(), String> {
    for (col, index) in ir.indexes.iter().enumerate() {
        let Some(index) = index else { continue };
        with_tree!(index, tree => {
            tree.check_invariants()?;
            let mut posted = 0;
            for (key, posting) in tree.iter() {
                let ids = posting.as_slice();
                if matches!(posting, Posting::Many(_)) != (ids.len() > 1) {
                    return Err(format!("column {col}: {posting:?} is in the wrong form"));
                }
                if !ids.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("column {col}: {posting:?} not ascending"));
                }
                let key = key.to_value();
                if !ids.iter().all(|&id| ir.row(id).is_some_and(|row| row[col] == key)) {
                    return Err(format!("column {col}: {posting:?} posts a row without {key}"));
                }
                posted += ids.len();
            }
            if posted != ir.len() {
                return Err(format!("column {col} posts {posted} of {} live rows", ir.len()));
            }
        });
    }
    Ok(())
}

/// Everything the three answer modes say about `q` equals the scan.
fn check_against_scan(ir: &IndexedRelation, q: &SelectionQuery) -> Result<(), TestCaseError> {
    let meter = Meter::new();
    let expect: Vec<usize> = (0..ir.slot_count())
        .filter(|&id| ir.row(id).is_some_and(|row| q.matches(row)))
        .collect();
    prop_assert_eq!(
        &ir.matching_ids_metered(q, &meter),
        &expect,
        "ids of {:?}",
        q
    );
    prop_assert_eq!(ir.answer(q), !expect.is_empty(), "answer to {:?}", q);
    for bound in [0, 1, ir.slot_count() / 2, ir.slot_count(), usize::MAX] {
        prop_assert_eq!(
            ir.answer_metered_below(q, &meter, bound),
            expect.iter().any(|&id| id < bound),
            "answer below {} to {:?}",
            bound,
            q
        );
    }
    Ok(())
}

/// The indexed columns named by the low bits of `mask`.
fn indexed(columns: &Columns, mask: u8) -> Vec<usize> {
    (0..columns.len()).filter(|c| mask >> c & 1 == 1).collect()
}

proptest! {
    /// (a) + (d): after a random interleaving of inserts and deletes the
    /// index answers like a scan on every query shape, stays structurally
    /// sound, and survives an export / `from_parts` round trip.
    #[test]
    fn churned_index_answers_like_a_scan(
        kinds in prop::collection::vec(0u8..4, 1..4),
        mask in 0u8..8,
        ops in prop::collection::vec((0u8..4, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40), 0..150),
        raw_queries in prop::collection::vec((0u8..36, 0u8..8, 0u64..8, 0u64..1 << 40, 0u64..1 << 40), 3..12),
    ) {
        let columns = columns(&kinds);
        let cols = indexed(&columns, mask);
        let mut ir = IndexedRelation::build(&Relation::new(schema_of(&columns)), &cols).unwrap();
        for (op, a, b, c) in ops {
            if op == 0 {
                ir.delete((a % (ir.slot_count() as u64 + 1)) as usize);
            } else {
                ir.insert(row_of(&columns, [a, b, c])).unwrap();
            }
        }
        audit(&ir).map_err(TestCaseError::fail)?;
        let (schema, slots, entries) = export_parts(&ir);
        let reloaded = IndexedRelation::from_parts(schema, slots, entries.clone()).unwrap();
        audit(&reloaded).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&export_parts(&reloaded).2, &entries);
        for q in queries(&columns, &raw_queries) {
            check_against_scan(&ir, &q)?;
            check_against_scan(&reloaded, &q)?;
        }
    }

    /// (b): sorting and bulk-loading gives what inserting row by row
    /// into an empty relation gives — same postings, same answers and
    /// ids — in two trees that both pass their invariant check.
    #[test]
    fn build_by_sort_agrees_with_insert_by_insert(
        kinds in prop::collection::vec(0u8..4, 1..4),
        mask in 1u8..8,
        raw_rows in prop::collection::vec((0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40), 0..200),
        raw_queries in prop::collection::vec((0u8..36, 0u8..8, 0u64..8, 0u64..1 << 40, 0u64..1 << 40), 3..8),
    ) {
        let columns = columns(&kinds);
        let cols = indexed(&columns, mask);
        let rows: Vec<Vec<Value>> = raw_rows
            .into_iter()
            .map(|(a, b, c)| row_of(&columns, [a, b, c]))
            .collect();
        let relation = Relation::from_rows(schema_of(&columns), rows.clone()).unwrap();
        let sorted = IndexedRelation::build(&relation, &cols).unwrap();
        let mut inserted = IndexedRelation::build(&Relation::new(schema_of(&columns)), &cols).unwrap();
        for row in rows {
            inserted.insert(row).unwrap();
        }
        audit(&sorted).map_err(TestCaseError::fail)?;
        audit(&inserted).map_err(TestCaseError::fail)?;
        prop_assert_eq!(export_parts(&sorted), export_parts(&inserted));
        let meter = Meter::new();
        for q in queries(&columns, &raw_queries) {
            check_against_scan(&sorted, &q)?;
            prop_assert_eq!(
                sorted.matching_ids_metered(&q, &meter),
                inserted.matching_ids_metered(&q, &meter)
            );
        }
    }
}
