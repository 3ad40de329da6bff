//! The residual of a selection: what is left to check on a row once an
//! index has produced it as a candidate.
//!
//! A [`Residual`] resolves the query's conjuncts against the typed
//! columns once per (query, relation): a point or range on an `Int`
//! column becomes an `i64` interval over the `Vec<i64>`, one on a `Str`
//! column a `&str` comparison over the arena. A row then passes when
//! every check holds on its slot — machine integers and `&str`s
//! compared in place, no [`RowRef`] built and no [`Value`] matched per
//! cell. The conjunct whose index produced the candidates is left out:
//! its posting or its range already proves it.
//!
//! A mistyped value maps exactly as [`typed_range`] maps it — a bound of
//! the other type sits wholly below or wholly above the column's cells —
//! so a residual holds exactly where [`SelectionQuery::matches`] does.
//!
//! [`RowRef`]: crate::columns::RowRef

use super::typed_range;
use crate::columns::{Column, Columns, StrColumn};
use crate::query::SelectionQuery;
use crate::value::Value;
use std::ops::{Bound, RangeBounds};

/// Checks a [`Residual`] resolves up front. A conjunction with more
/// conjuncts left to check resolves each at every row instead.
const RESOLVED: usize = 4;

/// One conjunct resolved against its column.
#[derive(Clone, Copy)]
enum Check<'a> {
    /// No row passes: a mistyped point, or bounds nothing lies within.
    Never,
    /// `lo ≤ cell ≤ hi`, with `lo ≤ hi`.
    Int { cells: &'a [i64], lo: i64, hi: i64 },
    /// `cell = value`.
    StrEq {
        cells: &'a StrColumn,
        value: &'a str,
    },
    /// The cell lies within the bounds.
    StrRange {
        cells: &'a StrColumn,
        lo: Bound<&'a str>,
        hi: Bound<&'a str>,
    },
}

impl<'a> Check<'a> {
    /// The point or range `leaf` over `rows`' column.
    fn resolve(rows: &'a Columns, leaf: &'a SelectionQuery) -> Self {
        match (leaf, rows.column(leaf_column(leaf))) {
            (SelectionQuery::Point { value, .. }, Column::Int(cells)) => match value {
                Value::Int(v) => Check::Int {
                    cells,
                    lo: *v,
                    hi: *v,
                },
                Value::Str(_) => Check::Never,
            },
            (SelectionQuery::Point { value, .. }, Column::Str(cells)) => match value {
                Value::Str(value) => Check::StrEq { cells, value },
                Value::Int(_) => Check::Never,
            },
            (SelectionQuery::Range { lo, hi, .. }, Column::Int(cells)) => {
                let Some((lo, hi)) = typed_range::<i64>(lo, hi) else {
                    return Check::Never;
                };
                let lo = match lo {
                    Bound::Unbounded => Some(i64::MIN),
                    Bound::Included(&v) => Some(v),
                    Bound::Excluded(&v) => v.checked_add(1),
                };
                let hi = match hi {
                    Bound::Unbounded => Some(i64::MAX),
                    Bound::Included(&v) => Some(v),
                    Bound::Excluded(&v) => v.checked_sub(1),
                };
                match (lo, hi) {
                    (Some(lo), Some(hi)) if lo <= hi => Check::Int { cells, lo, hi },
                    _ => Check::Never,
                }
            }
            (SelectionQuery::Range { lo, hi, .. }, Column::Str(cells)) => {
                match typed_range::<String>(lo, hi) {
                    Some((lo, hi)) => Check::StrRange {
                        cells,
                        lo: lo.map(String::as_str),
                        hi: hi.map(String::as_str),
                    },
                    None => Check::Never,
                }
            }
            (SelectionQuery::And(..), _) => unreachable!("a check resolves a leaf"),
        }
    }

    /// Does the cell in slot `id` pass?
    #[inline]
    fn holds(&self, id: usize) -> bool {
        match *self {
            Check::Never => false,
            Check::Int { cells, lo, hi } => (lo..=hi).contains(&cells[id]),
            Check::StrEq { cells, value } => cells.get(id) == value,
            Check::StrRange { cells, lo, hi } => (lo, hi).contains(&cells.get(id)),
        }
    }
}

/// The column a point or range names.
pub(super) fn leaf_column(leaf: &SelectionQuery) -> usize {
    match leaf {
        SelectionQuery::Point { col, .. } | SelectionQuery::Range { col, .. } => *col,
        SelectionQuery::And(..) => unreachable!("a leaf"),
    }
}

/// Call `check` on every leaf conjunct of `q` except `proven` (told
/// apart by address), left to right, until one returns `false`.
fn each_conjunct<'a>(
    q: &'a SelectionQuery,
    proven: Option<&SelectionQuery>,
    check: &mut impl FnMut(&'a SelectionQuery) -> bool,
) -> bool {
    match q {
        SelectionQuery::And(a, b) => {
            each_conjunct(a, proven, check) && each_conjunct(b, proven, check)
        }
        leaf if proven.is_some_and(|proven| std::ptr::eq(proven, leaf)) => true,
        leaf => check(leaf),
    }
}

/// What a row must still satisfy to match a query: every conjunct but
/// the one an index proved, as typed checks over the columns. Built
/// once per (query, relation), on the stack.
pub(super) struct Residual<'a> {
    rows: &'a Columns,
    checks: [Check<'a>; RESOLVED],
    resolved: usize,
    /// `q` and its proven conjunct, when more than [`RESOLVED`] are
    /// left: each is then resolved at every row.
    spilled: Option<(&'a SelectionQuery, Option<&'a SelectionQuery>)>,
}

impl<'a> Residual<'a> {
    /// The residual of `q` over `rows` once the leaf conjunct `proven`
    /// is known to hold (`None`: every conjunct is left to check).
    pub(super) fn new(
        rows: &'a Columns,
        q: &'a SelectionQuery,
        proven: Option<&'a SelectionQuery>,
    ) -> Self {
        let mut residual = Residual {
            rows,
            checks: [Check::Never; RESOLVED],
            resolved: 0,
            spilled: None,
        };
        let fits = each_conjunct(q, proven, &mut |leaf| {
            let Some(slot) = residual.checks.get_mut(residual.resolved) else {
                return false;
            };
            *slot = Check::resolve(rows, leaf);
            residual.resolved += 1;
            true
        });
        if !fits {
            (residual.resolved, residual.spilled) = (0, Some((q, proven)));
        }
        residual
    }

    /// Does the live row in slot `id` pass every check?
    #[inline]
    pub(super) fn holds(&self, id: usize) -> bool {
        let resolved = self.checks[..self.resolved]
            .iter()
            .all(|check| check.holds(id));
        resolved
            && self.spilled.is_none_or(|(q, proven)| {
                each_conjunct(q, proven, &mut |leaf| {
                    Check::resolve(self.rows, leaf).holds(id)
                })
            })
    }

    /// Examine `candidates` in order up to the first that passes,
    /// counting each examined in `examined`: is there one?
    pub(super) fn any(&self, candidates: &[usize], examined: &mut u64) -> bool {
        candidates.iter().any(|&id| {
            *examined += 1;
            self.holds(id)
        })
    }
}
