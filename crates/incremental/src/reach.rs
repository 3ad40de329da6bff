//! Incremental single-source reachability under edge insertions.
//!
//! The paper's incremental strategy: compute `Q(D)` once (preprocessing),
//! then on each ΔD compute ΔO instead of recomputing. For single-source
//! reachability with **insertions only**, the textbook incremental
//! algorithm is bounded in the amortized sense: when edge `(u, v)` arrives
//! with `u` reachable and `v` not, a traversal from `v` discovers exactly
//! the newly reachable region — and every node enters that region at most
//! once over the whole run.

use crate::bounded::{BoundednessReport, UpdateRecord};

/// Maintains the set of nodes reachable from a fixed source while edges
/// are inserted.
#[derive(Debug, Clone)]
pub struct IncrementalReach {
    source: usize,
    adj: Vec<Vec<usize>>,
    reachable: Vec<bool>,
    reachable_count: usize,
    report: BoundednessReport,
}

impl IncrementalReach {
    /// Start with `n` nodes, no edges, and the source trivially reachable.
    pub fn new(n: usize, source: usize) -> Self {
        assert!(source < n, "source {source} out of range for n={n}");
        let mut reachable = vec![false; n];
        reachable[source] = true;
        IncrementalReach {
            source,
            adj: vec![Vec::new(); n],
            reachable,
            reachable_count: 1,
            report: BoundednessReport::new(),
        }
    }

    /// The fixed source.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Is `v` currently reachable from the source? O(1) — the maintained
    /// query answer.
    pub fn is_reachable(&self, v: usize) -> bool {
        self.reachable[v]
    }

    /// How many nodes are currently reachable?
    pub fn reachable_count(&self) -> usize {
        self.reachable_count
    }

    /// Insert a directed edge and repair the reachable set. Returns the
    /// number of newly reachable nodes (|ΔO|).
    pub fn insert_edge(&mut self, u: usize, v: usize) -> usize {
        let n = self.adj.len();
        assert!(u < n && v < n, "edge ({u},{v}) out of range");
        self.adj[u].push(v);
        let mut work = 1u64; // the adjacency append

        let mut newly = 0usize;
        if self.reachable[u] && !self.reachable[v] {
            // Traverse only the newly reachable region.
            let mut stack = vec![v];
            self.reachable[v] = true;
            while let Some(x) = stack.pop() {
                newly += 1;
                work += 1;
                for &y in &self.adj[x] {
                    work += 1;
                    if !self.reachable[y] {
                        self.reachable[y] = true;
                        stack.push(y);
                    }
                }
            }
            self.reachable_count += newly;
        }
        self.report.push(UpdateRecord {
            delta_input: 1,
            delta_output: newly as u64,
            work,
        });
        newly
    }

    /// The |CHANGED| accounting for the whole run so far.
    pub fn report(&self) -> &BoundednessReport {
        &self.report
    }

    /// Reference recomputation from scratch (the baseline E10 compares
    /// against): full BFS cost every time.
    pub fn recompute_cost(&self) -> u64 {
        // One BFS touches every reachable node and scanned edge.
        let mut cost = 0u64;
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![self.source];
        seen[self.source] = true;
        while let Some(x) = stack.pop() {
            cost += 1;
            for &y in &self.adj[x] {
                cost += 1;
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_tracks_insertions() {
        let mut r = IncrementalReach::new(5, 0);
        assert!(r.is_reachable(0));
        assert!(!r.is_reachable(1));

        assert_eq!(r.insert_edge(0, 1), 1);
        assert!(r.is_reachable(1));

        // Edge between unreachable nodes changes nothing yet…
        assert_eq!(r.insert_edge(3, 4), 0);
        assert!(!r.is_reachable(4));

        // …until a bridge makes the whole pocket reachable at once.
        assert_eq!(r.insert_edge(1, 3), 2);
        assert!(r.is_reachable(3));
        assert!(r.is_reachable(4));
        assert_eq!(r.reachable_count(), 4);
    }

    #[test]
    fn duplicate_and_backward_edges_cost_little() {
        let mut r = IncrementalReach::new(4, 0);
        r.insert_edge(0, 1);
        r.insert_edge(0, 1); // duplicate: |ΔO| = 0
        let before = r.report().clone();
        r.insert_edge(1, 0); // back edge into already-reachable
        let after = r.report();
        assert_eq!(after.total_delta_output(), before.total_delta_output());
        assert!(after.total_work() - before.total_work() <= 2);
    }

    #[test]
    fn matches_from_scratch_bfs_on_random_streams() {
        let mut state = 0xDEAD_BEEFu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 60;
        let mut r = IncrementalReach::new(n, 0);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for _ in 0..300 {
            let u = (rnd() as usize) % n;
            let v = (rnd() as usize) % n;
            r.insert_edge(u, v);
            edges.push((u, v));
            // Reference BFS over the accumulated edge set.
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in &edges {
                adj[a].push(b);
            }
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(x) = stack.pop() {
                for &y in &adj[x] {
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            for (v, &expected) in seen.iter().enumerate() {
                assert_eq!(r.is_reachable(v), expected, "node {v}");
            }
        }
    }

    #[test]
    fn run_is_amortized_bounded() {
        // Long insertion stream on a growing path: each node becomes
        // reachable exactly once; total work must track total |CHANGED|.
        let n = 2000;
        let mut r = IncrementalReach::new(n, 0);
        for i in 0..n - 1 {
            r.insert_edge(i, i + 1);
        }
        assert!(r.report().is_amortized_bounded(4.0));
        assert_eq!(r.reachable_count(), n);
    }

    #[test]
    fn incremental_beats_recompute_on_no_op_updates() {
        let n = 5000;
        let mut r = IncrementalReach::new(n, 0);
        for i in 0..n - 1 {
            r.insert_edge(i, i + 1);
        }
        // A duplicate edge: the incremental cost is O(1); recompute is Θ(n).
        let work_before = r.report().total_work();
        r.insert_edge(100, 101);
        assert!(r.report().total_work() - work_before <= 2);
        assert!(r.recompute_cost() >= n as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        IncrementalReach::new(3, 0).insert_edge(0, 9);
    }

    #[test]
    #[should_panic(expected = "source 9 out of range")]
    fn bad_source_panics() {
        IncrementalReach::new(3, 9);
    }
}
