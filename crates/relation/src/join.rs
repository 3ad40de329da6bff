//! Equi-joins and Boolean join queries.
//!
//! The paper's related-work section contrasts its preprocessing model with
//! the MapReduce/MPC literature on *join* evaluation [Afrati–Ullman,
//! Koutris–Suciu]. To let the workspace express those workloads too, this
//! module adds equi-joins over the typed relations:
//!
//! * [`hash_join`] — classic build/probe hash join producing the combined
//!   relation;
//! * [`join_exists`] — the Boolean form ("is the join non-empty?"), which
//!   fits the paper's Boolean-query convention and gets both a
//!   nested-loop baseline and the hash fast path, metered for comparison.

use crate::relation::Relation;
use crate::schema::{ColType, Schema};
use crate::value::ValueRef;
use pitract_core::cost::Meter;
use std::collections::{HashMap, HashSet};

/// Schema of `left ⋈ right`: all left columns then all right columns,
/// right names prefixed on clash.
fn joined_schema(left: &Schema, right: &Schema) -> Schema {
    let mut cols: Vec<(String, ColType)> = Vec::with_capacity(left.arity() + right.arity());
    for i in 0..left.arity() {
        cols.push((left.name(i).to_string(), left.col_type(i)));
    }
    for i in 0..right.arity() {
        let mut name = right.name(i).to_string();
        if cols.iter().any(|(n, _)| *n == name) {
            name = format!("right.{name}");
        }
        cols.push((name, right.col_type(i)));
    }
    let refs: Vec<(&str, ColType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::new(&refs)
}

/// Hash equi-join `left ⋈_{left.lcol = right.rcol} right`: build a hash
/// table on the smaller side, probe with the larger. O(|L| + |R| + |out|)
/// expected.
pub fn hash_join(left: &Relation, lcol: usize, right: &Relation, rcol: usize) -> Relation {
    assert!(lcol < left.schema().arity(), "left column out of range");
    assert!(rcol < right.schema().arity(), "right column out of range");
    let schema = joined_schema(left.schema(), right.schema());

    // Build on the smaller input.
    let swap = right.len() < left.len();
    let (build_rel, build_col, probe_rel, probe_col) = if swap {
        (right, rcol, left, lcol)
    } else {
        (left, lcol, right, rcol)
    };

    let mut table: HashMap<ValueRef<'_>, Vec<usize>> = HashMap::new();
    for (id, row) in build_rel.rows().enumerate() {
        table.entry(row.get(build_col)).or_default().push(id);
    }

    let mut out = Vec::new();
    for probe_row in probe_rel.rows() {
        if let Some(matches) = table.get(&probe_row.get(probe_col)) {
            for &bid in matches {
                let build_row = build_rel.row(bid);
                let (lrow, rrow) = if swap {
                    (probe_row, build_row)
                } else {
                    (build_row, probe_row)
                };
                out.push(
                    lrow.iter()
                        .chain(rrow.iter())
                        .map(ValueRef::to_value)
                        .collect(),
                );
            }
        }
    }
    Relation::from_rows(schema, out).expect("joined rows match joined schema")
}

/// Boolean join query: does any pair of tuples match? Hash path: expected
/// O(|L| + |R|), metered per build insert and probe.
pub fn join_exists(
    left: &Relation,
    lcol: usize,
    right: &Relation,
    rcol: usize,
    meter: &Meter,
) -> bool {
    let mut keys: HashSet<ValueRef<'_>> = HashSet::new();
    for row in left.rows() {
        meter.tick();
        keys.insert(row.get(lcol));
    }
    for row in right.rows() {
        meter.tick();
        if keys.contains(&row.get(rcol)) {
            return true;
        }
    }
    false
}

/// The nested-loop baseline for [`join_exists`]: O(|L| · |R|), metered per
/// comparison — the "PTIME but quadratic" curve joins contribute to the
/// preprocessing story.
pub fn join_exists_nested_loop(
    left: &Relation,
    lcol: usize,
    right: &Relation,
    rcol: usize,
    meter: &Meter,
) -> bool {
    for lrow in left.rows() {
        for rrow in right.rows() {
            meter.tick();
            if lrow.get(lcol) == rrow.get(rcol) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn users() -> Relation {
        let schema = Schema::new(&[("uid", ColType::Int), ("name", ColType::Str)]);
        Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::str("ada")],
                vec![Value::Int(2), Value::str("bob")],
                vec![Value::Int(3), Value::str("cleo")],
            ],
        )
        .unwrap()
    }

    fn orders() -> Relation {
        let schema = Schema::new(&[("oid", ColType::Int), ("uid", ColType::Int)]);
        Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(10), Value::Int(2)],
                vec![Value::Int(11), Value::Int(2)],
                vec![Value::Int(12), Value::Int(9)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn hash_join_produces_matching_pairs() {
        let j = hash_join(&users(), 0, &orders(), 1);
        assert_eq!(j.len(), 2, "bob has two orders, uid 9 matches nobody");
        assert_eq!(j.schema().arity(), 4);
        for row in j.rows() {
            assert_eq!(row.get(0), row.get(3), "join key columns must agree");
            assert_eq!(row.get(1), Value::str("bob"));
        }
    }

    #[test]
    fn joined_schema_disambiguates_clashing_names() {
        let j = hash_join(&users(), 0, &orders(), 1);
        assert_eq!(j.schema().name(0), "uid");
        assert_eq!(j.schema().name(2), "oid");
        assert_eq!(j.schema().name(3), "right.uid");
    }

    #[test]
    fn hash_join_equals_nested_loop_semantics() {
        // Cross-validate join row multiset against the naive definition.
        let l = users();
        let r = orders();
        let j = hash_join(&l, 0, &r, 1);
        let mut expect = 0;
        for lr in l.rows() {
            for rr in r.rows() {
                if lr.get(0) == rr.get(1) {
                    expect += 1;
                }
            }
        }
        assert_eq!(j.len(), expect);
    }

    #[test]
    fn join_exists_agrees_with_baseline() {
        let meter = Meter::new();
        let l = users();
        let r = orders();
        assert_eq!(
            join_exists(&l, 0, &r, 1, &meter),
            join_exists_nested_loop(&l, 0, &r, 1, &meter)
        );
        // Disjoint key spaces: both say no.
        let schema = Schema::new(&[("k", ColType::Int)]);
        let a = Relation::from_rows(schema.clone(), vec![vec![Value::Int(1)]]).unwrap();
        let b = Relation::from_rows(schema, vec![vec![Value::Int(2)]]).unwrap();
        assert!(!join_exists(&a, 0, &b, 0, &meter));
        assert!(!join_exists_nested_loop(&a, 0, &b, 0, &meter));
    }

    #[test]
    fn hash_path_beats_nested_loop_on_misses() {
        let meter = Meter::new();
        let n = 300i64;
        let schema = Schema::new(&[("k", ColType::Int)]);
        let a = Relation::from_rows(
            schema.clone(),
            (0..n).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let b = Relation::from_rows(
            schema,
            (0..n).map(|i| vec![Value::Int(i + 10_000)]).collect(),
        )
        .unwrap();
        join_exists(&a, 0, &b, 0, &meter);
        let hash_cost = meter.take();
        join_exists_nested_loop(&a, 0, &b, 0, &meter);
        let nl_cost = meter.take();
        assert_eq!(hash_cost, 2 * n as u64);
        assert_eq!(nl_cost, (n * n) as u64);
    }

    #[test]
    fn join_with_empty_side_is_empty() {
        let schema = Schema::new(&[("k", ColType::Int)]);
        let empty = Relation::new(schema);
        let j = hash_join(&users(), 0, &empty, 0);
        assert!(j.is_empty());
        let meter = Meter::new();
        assert!(!join_exists(&users(), 0, &empty, 0, &meter));
    }

    #[test]
    fn string_keyed_joins() {
        let s1 = Schema::new(&[("name", ColType::Str)]);
        let s2 = Schema::new(&[("who", ColType::Str), ("x", ColType::Int)]);
        let a = Relation::from_rows(s1, vec![vec![Value::str("ada")], vec![Value::str("zoe")]])
            .unwrap();
        let b = Relation::from_rows(s2, vec![vec![Value::str("zoe"), Value::Int(7)]]).unwrap();
        let j = hash_join(&a, 0, &b, 0);
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0).get(2), Value::Int(7));
    }
}
