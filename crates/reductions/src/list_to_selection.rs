//! ListSearch `≤NC_F` PointSelection.
//!
//! Example 4 of the paper factors the problem L_s (is there a tuple with
//! `t[A] = c`?) into the query class Q₁; the list-membership problem L₁ of
//! Section 4(2) is the same class wearing a different data type. The
//! F-reduction makes that identification formal: `α` wraps the list into a
//! single-column relation, `β` wraps the element into a point-selection
//! query — each side computable independently (no re-factorization), which
//! is what `≤NC_F` demands.

use pitract_core::cost::CostClass;
use pitract_core::lang::FnPairLanguage;
use pitract_core::reduce::FReduction;
use pitract_core::scheme::Scheme;
use pitract_relation::indexed::IndexedRelation;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};

/// The source language: list membership (Section 4(2)'s L₁ as pairs).
pub fn list_search_language() -> FnPairLanguage<Vec<i64>, i64> {
    FnPairLanguage::new("list-search", |d: &Vec<i64>, q: &i64| d.contains(q))
}

/// The target language: Boolean point selection over single-column
/// relations (the paper's Q₁).
pub fn point_selection_language() -> FnPairLanguage<Relation, SelectionQuery> {
    FnPairLanguage::new("point-selection", |d: &Relation, q: &SelectionQuery| {
        d.eval_scan(q)
    })
}

/// Schema of the wrapped relation: one Int column "v".
pub fn wrapped_schema() -> Schema {
    Schema::new(&[("v", ColType::Int)])
}

/// The F-reduction `(α, β)`.
pub fn reduction() -> FReduction<Vec<i64>, i64, Relation, SelectionQuery> {
    FReduction::new(
        "list→relation",
        |d: &Vec<i64>| {
            let rows = d.iter().map(|&v| vec![Value::Int(v)]).collect();
            Relation::from_rows(wrapped_schema(), rows).expect("ints fit the schema")
        },
        |q: &i64| SelectionQuery::point(0, *q),
    )
}

/// The Π-tractability scheme for the *target* class: B⁺-tree indexing
/// (Example 1). Transfer through [`reduction`] yields a scheme for
/// list search — Lemma 8's compatibility, executed.
pub fn indexed_selection_scheme() -> Scheme<Relation, IndexedRelation, SelectionQuery> {
    Scheme::new(
        "B+tree point selection",
        CostClass::NLogN,
        CostClass::Log,
        |d: &Relation| IndexedRelation::build(d, &[0]).expect("column 0 exists"),
        |p: &IndexedRelation, q: &SelectionQuery| p.answer(q),
    )
}

/// The transferred scheme for list search (the deliverable of Lemma 8).
pub fn transferred_list_scheme() -> Scheme<Vec<i64>, IndexedRelation, i64> {
    reduction().transfer(
        &indexed_selection_scheme(),
        CostClass::Linear,   // α cost: one wrapping pass
        CostClass::Constant, // β cost: constant-size query rewrite
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes() -> Vec<(Vec<i64>, i64)> {
        vec![
            (vec![3, 1, 4, 1, 5], 4),
            (vec![3, 1, 4, 1, 5], 9),
            (vec![], 0),
            (vec![-7], -7),
            (vec![i64::MAX, i64::MIN], i64::MIN),
        ]
    }

    #[test]
    fn reduction_preserves_membership() {
        let r = reduction();
        assert_eq!(
            r.verify(
                &list_search_language(),
                &point_selection_language(),
                &probes()
            ),
            Ok(())
        );
    }

    #[test]
    fn transferred_scheme_answers_list_search() {
        let scheme = transferred_list_scheme();
        assert!(
            scheme.claims_pi_tractable(),
            "Log answering, NLogN preprocessing"
        );
        let lang = list_search_language();
        let instances: Vec<(Vec<i64>, Vec<i64>)> = vec![
            (vec![10, 20, 30], vec![10, 15, 30, -1]),
            (vec![], vec![0, 1]),
            (
                (0..500).map(|i| i * 3).collect(),
                vec![0, 1, 2, 3, 1497, 1500],
            ),
        ];
        assert_eq!(scheme.verify_against(&lang, &instances), Ok(()));
    }

    #[test]
    fn transfer_composes_costs_correctly() {
        let scheme = transferred_list_scheme();
        assert_eq!(scheme.preprocess_cost(), CostClass::NLogN);
        assert_eq!(scheme.answer_cost(), CostClass::Log);
    }

    #[test]
    fn alpha_wraps_every_element() {
        let r = reduction();
        let rel = r.alpha(&vec![5, 5, 6]);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.row(0).get(0), Value::Int(5));
    }

    #[test]
    fn composition_with_point_to_range_is_transitive() {
        // Lemma 8 transitivity: list → point-selection → range-selection.
        let combined = reduction().then(crate::point_to_range::reduction());
        let range_lang = crate::point_to_range::range_selection_language();
        assert_eq!(
            combined.verify(&list_search_language(), &range_lang, &probes()),
            Ok(())
        );
    }
}
