//! Italiano-style incremental transitive closure under edge insertions.
//!
//! Maintains the all-pairs reachability matrix (the preprocessed structure
//! of Example 3) *incrementally*: inserting `(u, v)` adds exactly the pairs
//! `{(x, y) : x ⇝ u, v ⇝ y}`, and because the maintained rows are already
//! transitively closed, a single sweep `row(x) |= row(v)` over the
//! ancestors `x` of `u` restores closure — no fixpoint iteration. Each
//! sweep costs O(#ancestors · n/64) word operations, versus Θ(n·(n+m)) for
//! recomputation; E10 reports both.

use crate::bounded::{BoundednessReport, UpdateRecord};
use pitract_pram::matrix::BitMatrix;

/// Incrementally maintained reflexive transitive closure.
#[derive(Debug, Clone)]
pub struct IncrementalClosure {
    n: usize,
    closure: BitMatrix,
    report: BoundednessReport,
}

impl IncrementalClosure {
    /// Start from the edgeless graph on `n` nodes (closure = identity).
    pub fn new(n: usize) -> Self {
        IncrementalClosure {
            n,
            closure: BitMatrix::identity(n),
            report: BoundednessReport::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the maintained graph empty of nodes?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// O(1) maintained query: is `t` reachable from `s` (reflexively)?
    pub fn reachable(&self, s: usize, t: usize) -> bool {
        self.closure.reachable(s, t)
    }

    /// Insert edge `(u, v)` and restore closure. Returns |ΔO| (new pairs).
    pub fn insert_edge(&mut self, u: usize, v: usize) -> u64 {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        if self.closure.reachable(u, v) {
            // Already implied: O(1).
            self.report.push(UpdateRecord {
                delta_input: 1,
                delta_output: 0,
                work: 1,
            });
            return 0;
        }
        let before = self.closure.count_ones();
        // Ancestors of u are rows x with closure[x][u] = 1 (u included,
        // reflexively). OR v's row into each.
        let v_row: Vec<(usize, bool)> = (0..self.n)
            .map(|y| (y, self.closure.reachable(v, y)))
            .collect();
        let mut work = self.n as u64; // the row snapshot
        for x in 0..self.n {
            work += 1;
            if self.closure.reachable(x, u) {
                for &(y, set) in &v_row {
                    if set {
                        self.closure.set(x, y, true);
                    }
                }
                work += self.n as u64 / 64 + 1;
            }
        }
        let delta = self.closure.count_ones() - before;
        self.report.push(UpdateRecord {
            delta_input: 1,
            delta_output: delta,
            work,
        });
        delta
    }

    /// The |CHANGED| accounting for the run.
    pub fn report(&self) -> &BoundednessReport {
        &self.report
    }

    /// The maintained matrix (for cross-checks).
    pub fn matrix(&self) -> &BitMatrix {
        &self.closure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_pram::matrix::closure_by_dfs;

    #[test]
    fn matches_batch_closure_on_random_streams() {
        let mut state = 0x1122_3344u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 40;
        let mut inc = IncrementalClosure::new(n);
        let mut edges = Vec::new();
        for step in 0..200 {
            let u = (rnd() as usize) % n;
            let v = (rnd() as usize) % n;
            inc.insert_edge(u, v);
            edges.push((u, v));
            if step % 20 == 0 {
                let batch = closure_by_dfs(n, &edges);
                assert_eq!(*inc.matrix(), batch, "step {step}");
            }
        }
        let batch = closure_by_dfs(n, &edges);
        assert_eq!(*inc.matrix(), batch);
    }

    #[test]
    fn implied_edges_cost_constant() {
        let mut inc = IncrementalClosure::new(100);
        inc.insert_edge(0, 1);
        inc.insert_edge(1, 2);
        let work_before = inc.report().total_work();
        // (0,2) is already implied.
        assert_eq!(inc.insert_edge(0, 2), 0);
        assert_eq!(inc.report().total_work() - work_before, 1);
    }

    #[test]
    fn delta_output_counts_new_pairs() {
        let mut inc = IncrementalClosure::new(4);
        // 0→1: new pairs: (0,1) only.
        assert_eq!(inc.insert_edge(0, 1), 1);
        // 2→3: (2,3).
        assert_eq!(inc.insert_edge(2, 3), 1);
        // 1→2: (1,2),(1,3),(0,2),(0,3).
        assert_eq!(inc.insert_edge(1, 2), 4);
    }

    #[test]
    fn queries_stay_constant_time_and_correct() {
        let n = 64;
        let mut inc = IncrementalClosure::new(n);
        for i in 0..n - 1 {
            inc.insert_edge(i, i + 1);
        }
        assert!(inc.reachable(0, n - 1));
        assert!(!inc.reachable(n - 1, 0));
        assert!(inc.reachable(5, 5));
    }

    #[test]
    fn cycle_closes_completely() {
        let n = 10;
        let mut inc = IncrementalClosure::new(n);
        for i in 0..n {
            inc.insert_edge(i, (i + 1) % n);
        }
        for s in 0..n {
            for t in 0..n {
                assert!(inc.reachable(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        IncrementalClosure::new(2).insert_edge(0, 5);
    }
}
