//! Property-based tests for the index crate: B⁺-tree against the standard
//! ordered map (including range scans), sorted-index statistics against
//! brute force, and LCA structures against the naive walk.

use pitract_core::cost::Meter;
use pitract_index::bptree::{BPlusTree, GROUP};
use pitract_index::lca::lifting::BinaryLiftingLca;
use pitract_index::lca::tree::{naive_lca, EulerTourLca, RootedTree};
use pitract_index::sorted::SortedIndex;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

proptest! {
    /// Range scans over the B⁺-tree equal BTreeMap ranges for arbitrary
    /// bound combinations after arbitrary operation sequences.
    #[test]
    fn bptree_ranges_match_btreemap(
        order in 3usize..10,
        ops in prop::collection::vec((0u8..2, 0u64..100), 0..200),
        lo in 0u64..110,
        hi in 0u64..110,
        bounds_kind in 0u8..4,
    ) {
        let mut tree: BPlusTree<u64, u64> = BPlusTree::with_order(order);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key) in ops {
            if op == 0 {
                tree.insert(key, key * 3);
                model.insert(key, key * 3);
            } else {
                tree.remove(&key);
                model.remove(&key);
            }
        }
        let (blo, bhi) = match bounds_kind {
            0 => (Bound::Included(&lo), Bound::Included(&hi)),
            1 => (Bound::Excluded(&lo), Bound::Excluded(&hi)),
            2 => (Bound::Unbounded, Bound::Included(&hi)),
            _ => (Bound::Included(&lo), Bound::Unbounded),
        };
        let got: Vec<(u64, u64)> = tree.range(blo, bhi).map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u64, u64)> = model
            .iter()
            .filter(|(k, _)| {
                let above = match blo {
                    Bound::Included(l) => *k >= l,
                    Bound::Excluded(l) => *k > l,
                    Bound::Unbounded => true,
                };
                let below = match bhi {
                    Bound::Included(h) => *k <= h,
                    Bound::Excluded(h) => *k < h,
                    Bound::Unbounded => true,
                };
                above && below
            })
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(got, expect);
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// get / get_mut / contains_key agree, and get_mut edits persist.
    #[test]
    fn bptree_get_mut_consistency(keys in prop::collection::hash_set(0u64..300, 1..150)) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut tree: BPlusTree<u64, u64> = BPlusTree::build(keys.iter().map(|&k| (k, k)));
        for &k in &keys {
            prop_assert!(tree.contains_key(&k));
            let v = tree.get_mut(&k).expect("present");
            *v += 1000;
        }
        for &k in &keys {
            prop_assert_eq!(tree.get(&k), Some(&(k + 1000)));
        }
        prop_assert_eq!(tree.get_mut(&10_000), None);
    }

    /// Sorted-index counting statistics match brute-force filters.
    #[test]
    fn sorted_index_statistics(xs in prop::collection::vec(0i64..100, 0..200), probe in -5i64..110) {
        let idx = SortedIndex::build(&xs);
        prop_assert_eq!(idx.contains(&probe), xs.contains(&probe));
        prop_assert_eq!(idx.count(&probe), xs.iter().filter(|&&x| x == probe).count());
        let hi = probe + 13;
        prop_assert_eq!(
            idx.count_range(Bound::Included(&probe), Bound::Included(&hi)),
            xs.iter().filter(|&&x| x >= probe && x <= hi).count()
        );
        // Predecessor/successor against brute force.
        prop_assert_eq!(
            idx.predecessor(&probe).copied(),
            xs.iter().copied().filter(|&x| x <= probe).max()
        );
        prop_assert_eq!(
            idx.successor(&probe).copied(),
            xs.iter().copied().filter(|&x| x >= probe).min()
        );
    }

    /// Both preprocessed LCA structures equal the naive walk on random
    /// trees and random query pairs.
    #[test]
    fn lca_structures_agree(n in 1usize..60, seed in any::<u64>(),
                            pairs in prop::collection::vec((0usize..60, 0usize..60), 1..30)) {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i == 0 { None } else { Some((rnd() as usize) % i) })
            .collect();
        let tree = RootedTree::from_parents(&parents).expect("valid random tree");
        let euler = EulerTourLca::build(&tree);
        let lift = BinaryLiftingLca::build(&tree);
        for (a, b) in pairs {
            let (u, v) = (a % n, b % n);
            let expect = naive_lca(&tree, u, v);
            prop_assert_eq!(euler.query(u, v), expect, "euler ({},{})", u, v);
            prop_assert_eq!(lift.query(u, v), expect, "lifting ({},{})", u, v);
        }
    }

    /// kth_ancestor composes: the a-th ancestor of the b-th ancestor is
    /// the (a+b)-th ancestor (with clamping at the root).
    #[test]
    fn kth_ancestor_composes(n in 2usize..100, v in 0usize..100, a in 0u64..64, b in 0u64..64) {
        let v = v % n;
        let parents: Vec<Option<usize>> =
            (0..n).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
        let tree = RootedTree::from_parents(&parents).expect("path tree");
        let lift = BinaryLiftingLca::build(&tree);
        let two_step = lift.kth_ancestor(lift.kth_ancestor(v, a), b);
        let one_step = lift.kth_ancestor(v, a + b);
        prop_assert_eq!(two_step, one_step);
    }
}

/// Keys are drawn from `0..KEYS` and stored doubled, so every odd probe
/// falls between two stored keys.
const KEYS: i64 = 300;

/// A tree of order `order` after `ops` — `(insert?, key)` pairs — with
/// every stored key doubled and valued by its own negation.
fn churned_tree(order: usize, ops: &[(bool, i64)]) -> BPlusTree<i64, i64> {
    let mut tree = BPlusTree::with_order(order);
    for &(insert, key) in ops {
        if insert {
            tree.insert(2 * key, -2 * key);
        } else {
            tree.remove(&(2 * key));
        }
    }
    tree
}

/// The group descent against `get_metered`, probe by probe: every
/// probe is reported exactly once, in probe order, with the very value
/// `get_metered` finds for its key and the comparisons it ticks.
fn group_matches_single(tree: &BPlusTree<i64, i64>, probes: &[i64]) -> Result<(), TestCaseError> {
    let mut grouped = Vec::with_capacity(probes.len());
    let starts = probes
        .iter()
        .enumerate()
        .map(|(i, key)| ((i, key), Bound::Included(key)));
    tree.descend_many(starts, |(i, key), leaf| {
        let (found, steps) = leaf.get(key);
        grouped.push((i, found.map(std::ptr::from_ref), steps));
    });
    let meter = Meter::new();
    let single: Vec<_> = probes
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let found = tree.get_metered(key, &meter).map(std::ptr::from_ref);
            (i, found, meter.take())
        })
        .collect();
    prop_assert_eq!(grouped, single);
    Ok(())
}

proptest! {
    /// Group descent equals `get_metered` key by key, on trees churned
    /// by inserts and removes (so with freed arena slots) at orders
    /// 3–32, for probe lists from empty to more than three groups long
    /// with repeats and misses below, between and above the keys.
    #[test]
    fn bptree_group_descent_matches_get_metered(
        order in 3usize..33,
        ops in prop::collection::vec((0u8..3, 0i64..KEYS), 0..600),
        probes in prop::collection::vec(-3i64..2 * KEYS + 3, 0..=3 * GROUP + 1),
        repeat in 0usize..8,
    ) {
        let ops: Vec<(bool, i64)> = ops.into_iter().map(|(op, key)| (op > 0, key)).collect();
        let tree = churned_tree(order, &ops);
        tree.check_invariants().map_err(TestCaseError::fail)?;
        // The same key again, inside one group or across two.
        let mut probes = probes;
        if let Some(&key) = probes.get(repeat) {
            probes.push(key);
        }
        group_matches_single(&tree, &probes)?;
    }
}

/// A range's bounds: kind 0 included, 1 excluded, 2 unbounded.
fn bound(kind: u8, key: i64) -> Bound<i64> {
    match kind % 3 {
        0 => Bound::Included(key),
        1 => Bound::Excluded(key),
        _ => Bound::Unbounded,
    }
}

/// The group descent against lone searches, probe by probe: every
/// probe is reported exactly once, in probe order, with every entry
/// `range` yields — for ranges alone, and mixed with points, each point
/// with what `get_metered` finds and ticks.
fn ranges_match_single(
    tree: &BPlusTree<i64, i64>,
    points: &[i64],
    ranges: &[(Bound<i64>, Bound<i64>)],
) -> Result<(), TestCaseError> {
    let entries = |iter: pitract_index::bptree::RangeIter<'_, i64, i64>| {
        iter.map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
    };
    let mut grouped = Vec::new();
    tree.descend_many(
        ranges
            .iter()
            .enumerate()
            .map(|(i, range)| ((i, range), range.0.as_ref())),
        |(i, (lo, hi)), leaf| grouped.push((i, entries(leaf.range(lo.as_ref(), hi.as_ref())))),
    );
    let single: Vec<_> = ranges
        .iter()
        .enumerate()
        .map(|(i, (lo, hi))| (i, entries(tree.range(lo.as_ref(), hi.as_ref()))))
        .collect();
    prop_assert_eq!(&grouped, &single);

    // Points and ranges interleaved, each finished at its own leaf.
    #[derive(Clone, Copy)]
    enum Probe<'r> {
        Point(&'r i64),
        Range(&'r (Bound<i64>, Bound<i64>)),
    }
    #[derive(Debug, PartialEq)]
    enum Lone {
        Point(Option<i64>, u64),
        Range(Vec<(i64, i64)>),
    }
    let mixed: Vec<Probe<'_>> = (0..points.len().max(ranges.len()))
        .flat_map(|i| {
            [
                points.get(i).map(Probe::Point),
                ranges.get(i).map(Probe::Range),
            ]
        })
        .flatten()
        .collect();
    let mut grouped = Vec::new();
    let starts = mixed.iter().enumerate().map(|(i, &probe)| match probe {
        Probe::Point(key) => ((i, probe), Bound::Included(key)),
        Probe::Range((lo, _)) => ((i, probe), lo.as_ref()),
    });
    tree.descend_many(starts, |(i, probe), leaf| {
        let lone = match probe {
            Probe::Point(key) => {
                let (found, steps) = leaf.get(key);
                Lone::Point(found.copied(), steps)
            }
            Probe::Range((lo, hi)) => Lone::Range(entries(leaf.range(lo.as_ref(), hi.as_ref()))),
        };
        grouped.push((i, lone));
    });
    let meter = Meter::new();
    let single: Vec<_> = mixed
        .iter()
        .enumerate()
        .map(|(i, &probe)| {
            let lone = match probe {
                Probe::Point(key) => {
                    Lone::Point(tree.get_metered(key, &meter).copied(), meter.take())
                }
                Probe::Range((lo, hi)) => {
                    Lone::Range(entries(tree.range(lo.as_ref(), hi.as_ref())))
                }
            };
            (i, lone)
        })
        .collect();
    prop_assert_eq!(grouped, single);
    Ok(())
}

proptest! {
    /// Grouped range starts equal `range` for every bound kind, on
    /// churned trees from empty up, small orders making ranges straddle
    /// many leaves, with more than three groups of ranges mixed with
    /// point probes in one descent.
    #[test]
    fn bptree_grouped_range_starts_match_range(
        order in 3usize..12,
        ops in prop::collection::vec((0u8..3, 0i64..KEYS), 0..400),
        ranges in prop::collection::vec((0u8..3, -3i64..2 * KEYS + 3, 0u8..3, 0i64..80), 0..=3 * GROUP + 1),
        points in prop::collection::vec(-3i64..2 * KEYS + 3, 0..=2 * GROUP),
    ) {
        let ops: Vec<(bool, i64)> = ops.into_iter().map(|(op, key)| (op > 0, key)).collect();
        let tree = churned_tree(order, &ops);
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let ranges: Vec<(Bound<i64>, Bound<i64>)> = ranges
            .into_iter()
            .map(|(lo_kind, lo, hi_kind, width)| (bound(lo_kind, lo), bound(hi_kind, lo + width)))
            .collect();
        ranges_match_single(&tree, &points, &ranges)?;
    }
}

/// The properties above sweep the shapes a random case may miss: the
/// empty tree and every height from 1 to 5, each probed on every key
/// it holds, on every gap and past both ends — points alone, and ranges
/// of every bound kind mixed with points — in one run of groups.
#[test]
fn bptree_group_descent_covers_every_height() {
    let mut heights = Vec::new();
    for order in [3usize, 4, 7, 32] {
        for n in [0i64, 1, 5, 40, 150, KEYS] {
            let inserts: Vec<(bool, i64)> = (0..n).map(|k| (true, (k * 7) % KEYS)).collect();
            // Remove every third key again: merges free arena slots.
            let removes = (0..n).step_by(3).map(|k| (false, (k * 7) % KEYS));
            let ops: Vec<(bool, i64)> = inserts.iter().copied().chain(removes).collect();
            let tree = churned_tree(order, &ops);
            heights.push(tree.height());
            let probes: Vec<i64> = (-3..2 * KEYS + 3).collect();
            group_matches_single(&tree, &probes).unwrap();
            // Every bound kind at every key, the highest past both ends:
            // `Excluded` on the last key, `Included` past it, and
            // unbounded starts.
            let ranges: Vec<(Bound<i64>, Bound<i64>)> = (0..9u8)
                .flat_map(|kinds| {
                    probes.iter().step_by(5).map(move |&key| {
                        (bound(kinds, key), bound(kinds / 3, key + 2 * order as i64))
                    })
                })
                .collect();
            ranges_match_single(&tree, &probes, &ranges).unwrap();
        }
    }
    for height in 1..=5 {
        assert!(
            heights.contains(&height),
            "no tree of height {height}: {heights:?}"
        );
    }
}
