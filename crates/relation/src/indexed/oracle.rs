//! Oracle tests for the typed index and the column storage under it:
//! whatever the schema, the churn and the query — mistyped values and
//! bounds included — the index answers what a scan with
//! [`SelectionQuery::matches`] answers, the build-by-sort and
//! insert-by-insert constructions agree, and the columns hold, answer
//! and meter exactly what a `Vec<Option<Vec<Value>>>` of slots would.

use super::tests::{postings, reload};
use super::*;
use crate::schema::ColType;
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

/// A value of the given type out of `raw`, one-to-one: negative ints,
/// the empty string and multi-byte UTF-8 included.
fn value(is_str: bool, raw: u64) -> Value {
    const STEMS: [&str; 4] = ["", "k", "é", "日本"];
    if is_str {
        let stem = STEMS[(raw % 4) as usize];
        Value::Str(match raw / 4 {
            0 => stem.to_owned(),
            n => format!("{stem}{n}"),
        })
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
                let key = Value::from(key.to_owned());
                if !ids.iter().all(|&id| ir.row(id).is_some_and(|row| row.get(col) == key)) {
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
    /// sound, and survives the load path — slots through
    /// `Columns::push_slot`, trees rebuilt by `from_columns` — with the
    /// same `(key, posting)` entries.
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
        let reloaded = reload(&ir);
        audit(&reloaded).map_err(TestCaseError::fail)?;
        prop_assert_eq!(reloaded.slot_count(), ir.slot_count());
        prop_assert_eq!(postings(&reloaded), postings(&ir));
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
        prop_assert_eq!(sorted.to_relation(), inserted.to_relation());
        prop_assert_eq!(postings(&sorted), postings(&inserted));
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

/// The old row layout, kept as the oracle the columns are checked
/// against: one `Option<Vec<Value>>` per slot, tombstones as `None`.
struct SlotOracle {
    slots: Vec<Option<Vec<Value>>>,
    columns: Columns,
    /// Indexed columns.
    indexed: Vec<usize>,
}

impl SlotOracle {
    /// `(id, row)` of every live slot, ascending.
    fn live(&self) -> impl Iterator<Item = (usize, &Vec<Value>)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }

    /// Live ids matching `q`, ascending.
    fn ids(&self, q: &SelectionQuery) -> Vec<usize> {
        self.live()
            .filter(|(_, row)| q.matches(*row))
            .map(|(id, _)| id)
            .collect()
    }

    /// The charge of one descent of `col`'s tree: 2·⌈log₂ keys⌉ over
    /// the distinct live keys (at least 2 keys, at least one level).
    fn descent(&self, col: usize) -> u64 {
        let mut keys: Vec<&Value> = self.live().map(|(_, row)| &row[col]).collect();
        keys.sort();
        keys.dedup();
        let keys = keys.len().max(2);
        let levels = usize::BITS - (keys - 1).leading_zeros();
        2 * u64::from(levels.max(1))
    }

    fn is_indexed(&self, col: usize) -> bool {
        self.indexed.contains(&col)
    }

    /// Live ids matching `leaf` in the order its index yields them: by
    /// key, then by id.
    fn in_key_order(&self, leaf: &SelectionQuery, col: usize) -> Vec<usize> {
        let mut ids = self.ids(leaf);
        ids.sort_by(|&a, &b| self.cell(a, col).cmp(self.cell(b, col)).then(a.cmp(&b)));
        ids
    }

    fn cell(&self, id: usize, col: usize) -> &Value {
        &self.slots[id].as_ref().expect("a live id")[col]
    }

    /// Steps of a scan that stops at the first witness below `bound`:
    /// every slot up to it, tombstones included.
    fn scan_steps(&self, q: &SelectionQuery, bound: usize) -> u64 {
        let walked = self.slots.len().min(bound);
        let hit = self.ids(q).into_iter().find(|&id| id < bound);
        hit.map_or(walked, |id| id + 1) as u64
    }

    /// Steps of `matching_ids_metered`: a descent plus every id an
    /// indexed leaf (or the driving conjunct) yields; otherwise a scan.
    fn ids_steps(&self, q: &SelectionQuery) -> u64 {
        let driving = match q {
            SelectionQuery::And(..) => q.driving_conjunct(&|col| self.is_indexed(col)),
            leaf => Some(leaf).filter(|leaf| self.is_indexed(leaf_col(leaf))),
        };
        match driving {
            Some(leaf) => self.descent(leaf_col(leaf)) + self.ids(leaf).len() as u64,
            None => self.slots.len() as u64,
        }
    }

    /// Steps of `answer_metered_below(q, bound)` (`usize::MAX`: of
    /// `answer_metered`), or `None` for an indexed point probe, whose
    /// key comparisons belong to the tree, not the rows.
    fn below_steps(&self, q: &SelectionQuery, bound: usize) -> Option<u64> {
        let all = bound == usize::MAX;
        match q {
            SelectionQuery::Point { col, value } if self.is_indexed(*col) => {
                // A mistyped point is settled by one comparison.
                let mistyped = matches!(value, Value::Str(_)) != self.columns[*col].0;
                mistyped.then_some(1)
            }
            SelectionQuery::Range { col, .. } if self.is_indexed(*col) => {
                // Without a bound the first posting answers; with one,
                // postings are visited in key order until one's first
                // id is visible.
                let descent = self.descent(*col);
                if all {
                    return Some(descent);
                }
                let mut firsts: Vec<(&Value, usize)> = Vec::new();
                for id in self.in_key_order(q, *col) {
                    if firsts
                        .last()
                        .is_none_or(|(key, _)| *key != self.cell(id, *col))
                    {
                        firsts.push((self.cell(id, *col), id));
                    }
                }
                let hit = firsts.iter().position(|&(_, first)| first < bound);
                Some(descent + hit.map_or(firsts.len(), |at| at + 1) as u64)
            }
            SelectionQuery::And(..) => match q.driving_conjunct(&|col| self.is_indexed(col)) {
                Some(leaf) => {
                    let col = leaf_col(leaf);
                    // A Boolean answer driven by a range walks candidates in key
                    // order; every other path in id order, up to the bound.
                    let candidates = match leaf {
                        SelectionQuery::Range { .. } if all => self.in_key_order(leaf, col),
                        _ => self
                            .ids(leaf)
                            .into_iter()
                            .take_while(|&id| id < bound)
                            .collect(),
                    };
                    let row = |id: usize| self.slots[id].as_ref().expect("a live id");
                    let hit = candidates.iter().position(|&id| q.matches(row(id)));
                    Some(self.descent(col) + hit.map_or(candidates.len(), |at| at + 1) as u64)
                }
                None => Some(self.scan_steps(q, bound)),
            },
            _ => Some(self.scan_steps(q, bound)),
        }
    }
}

fn leaf_col(leaf: &SelectionQuery) -> usize {
    match leaf {
        SelectionQuery::Point { col, .. } | SelectionQuery::Range { col, .. } => *col,
        SelectionQuery::And(..) => unreachable!("a leaf"),
    }
}

/// Rows, counts, the plain-relation export, answers, ids and metered
/// steps of `ir` are the oracle's.
fn check_against_slots(
    ir: &IndexedRelation,
    oracle: &SlotOracle,
    queries: &[SelectionQuery],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ir.slot_count(), oracle.slots.len());
    prop_assert_eq!(ir.len(), oracle.live().count());
    for id in 0..oracle.slots.len() + 2 {
        prop_assert_eq!(
            ir.row(id).map(RowRef::to_vec),
            oracle.slots.get(id).cloned().flatten(),
            "row {}",
            id
        );
    }
    let live_rows = oracle.live().map(|(_, row)| row.clone()).collect();
    prop_assert_eq!(
        ir.to_relation(),
        Relation::from_rows(ir.schema().clone(), live_rows).unwrap()
    );
    let meter = Meter::new();
    for q in queries {
        for (id, row) in oracle.live() {
            let view = ir.row(id).expect("live in both");
            prop_assert_eq!(
                q.matches(view),
                q.matches(&view.to_vec()),
                "{:?} on {}",
                q,
                id
            );
            prop_assert_eq!(q.matches(view), q.matches(row), "{:?} on {}", q, id);
        }
        let expect = oracle.ids(q);
        meter.take();
        prop_assert_eq!(
            &ir.matching_ids_metered(q, &meter),
            &expect,
            "ids of {:?}",
            q
        );
        prop_assert_eq!(meter.take(), oracle.ids_steps(q), "steps of ids of {:?}", q);
        for bound in [usize::MAX, 0, 1, oracle.slots.len() / 2, oracle.slots.len()] {
            let answer = if bound == usize::MAX {
                ir.answer_metered(q, &meter)
            } else {
                ir.answer_metered_below(q, &meter, bound)
            };
            let steps = meter.take();
            prop_assert_eq!(
                answer,
                expect.iter().any(|&id| id < bound),
                "answer below {} to {:?}",
                bound,
                q
            );
            if let Some(expect_steps) = oracle.below_steps(q, bound) {
                prop_assert_eq!(steps, expect_steps, "steps below {} of {:?}", bound, q);
            }
        }
    }
    Ok(())
}

proptest! {
    /// (c): under a random interleaving of inserts and deletes, the
    /// column storage agrees with a slot-vector oracle on every row, on
    /// `len`, `slot_count` and `to_relation`, and on the answers, ids
    /// and metered steps of every access path — scans over tombstones
    /// included; a clone agrees too, and stays independent of the
    /// original.
    #[test]
    fn column_storage_agrees_with_a_slot_vector_oracle(
        kinds in prop::collection::vec(0u8..4, 1..4),
        mask in 0u8..8,
        base in prop::collection::vec((0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40), 0..70),
        ops in prop::collection::vec((0u8..3, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40), 0..150),
        raw_queries in prop::collection::vec((0u8..36, 0u8..8, 0u64..8, 0u64..1 << 40, 0u64..1 << 40), 3..10),
    ) {
        let columns = columns(&kinds);
        let indexed = indexed(&columns, mask);
        let rows: Vec<Vec<Value>> = base.iter().map(|&(a, b, c)| row_of(&columns, [a, b, c])).collect();
        let relation = Relation::from_rows(schema_of(&columns), rows.clone()).unwrap();
        let mut ir = IndexedRelation::build(&relation, &indexed).unwrap();
        let mut oracle = SlotOracle {
            slots: rows.into_iter().map(Some).collect(),
            columns: columns.clone(),
            indexed,
        };
        for (op, a, b, c) in ops {
            if op == 0 {
                let id = (a % (oracle.slots.len() as u64 + 2)) as usize;
                let expect = oracle.slots.get_mut(id).and_then(Option::take);
                prop_assert_eq!(ir.delete(id), expect, "delete {}", id);
            } else {
                let row = row_of(&columns, [a, b, c]);
                prop_assert_eq!(ir.insert(row.clone()).unwrap(), oracle.slots.len());
                oracle.slots.push(Some(row));
            }
        }
        let queries = queries(&columns, &raw_queries);
        check_against_slots(&ir, &oracle, &queries)?;

        let mut twin = ir.clone();
        check_against_slots(&twin, &oracle, &queries)?;
        if let Some(id) = oracle.live().map(|(id, _)| id).next() {
            twin.delete(id);
            prop_assert!(ir.row(id).is_some(), "a delete on the clone left the original alone");
        }
        twin.insert(row_of(&columns, [1, 2, 3])).unwrap();
        check_against_slots(&ir, &oracle, &queries)?;
    }
}

/// Ints at both ends of `i64` and around zero, and short strings: the
/// values where a residual's interval arithmetic could go wrong.
fn edge_value(is_str: bool, raw: u64) -> Value {
    const INTS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    if is_str {
        value(true, raw % 12)
    } else {
        Value::Int(INTS[(raw % INTS.len() as u64) as usize])
    }
}

/// [`leaf`] over edge values: every bound kind at `i64::MIN` and
/// `i64::MAX` included, `mistype` bits flipping a value's type.
fn edge_leaf(
    strs: &[bool],
    (shape, mistype, col, a, b): (u8, u8, u64, u64, u64),
) -> SelectionQuery {
    let col = (col % strs.len() as u64) as usize;
    let typed = |raw: u64, flip: bool| edge_value(strs[col] != flip, raw);
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

/// Every leaf, and conjunctions of two to six consecutive leaves, left-
/// and right-deep: wider than a residual resolves up front.
fn wide_queries(leaves: &[SelectionQuery]) -> Vec<SelectionQuery> {
    let mut out = leaves.to_vec();
    for width in 2..=6 {
        for w in leaves.windows(width) {
            let left = w[1..]
                .iter()
                .fold(w[0].clone(), |q, leaf| SelectionQuery::and(q, leaf.clone()));
            let right = w[..w.len() - 1]
                .iter()
                .rev()
                .fold(w[w.len() - 1].clone(), |q, leaf| {
                    SelectionQuery::and(leaf.clone(), q)
                });
            out.extend([left, right]);
        }
    }
    out
}

proptest! {
    /// The residual — the conjuncts resolved once to typed checks over
    /// the columns — holds exactly where `row(id)` and
    /// `SelectionQuery::matches` do: over `Int` and `Str` columns,
    /// tombstoned slots, mistyped values and every bound kind at the
    /// ends of `i64`, through `matching_ids_into`, `answer_metered` and
    /// `answer_metered_below`, answers and metered steps alike, and for
    /// conjunctions too wide to resolve up front.
    #[test]
    fn residual_checks_agree_with_matches(
        strs in prop::collection::vec(any::<bool>(), 1..7),
        mask in 0u8..64,
        rows in prop::collection::vec(prop::collection::vec(0u64..1 << 20, 6), 0..60),
        deletes in prop::collection::vec(0usize..64, 0..20),
        raw_leaves in prop::collection::vec((0u8..36, 0u8..8, 0u64..8, 0u64..1 << 20, 0u64..1 << 20), 2..9),
    ) {
        let kinds: Columns = strs.iter().map(|&is_str| (is_str, 0)).collect();
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|raws| strs.iter().zip(raws).map(|(&is_str, &raw)| edge_value(is_str, raw)).collect())
            .collect();
        let indexed = indexed(&kinds, mask);
        let relation = Relation::from_rows(schema_of(&kinds), rows.clone()).unwrap();
        let mut ir = IndexedRelation::build(&relation, &indexed).unwrap();
        let mut oracle = SlotOracle {
            slots: rows.into_iter().map(Some).collect(),
            columns: kinds,
            indexed,
        };
        for id in deletes {
            let expect = oracle.slots.get_mut(id).and_then(Option::take);
            prop_assert_eq!(ir.delete(id), expect, "delete {}", id);
        }
        let leaves: Vec<SelectionQuery> = raw_leaves.into_iter().map(|raw| edge_leaf(&strs, raw)).collect();
        check_against_slots(&ir, &oracle, &wide_queries(&leaves))?;
    }
}
