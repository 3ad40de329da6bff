//! Pruned 2-hop reachability labels — the third production-grade point on
//! Example 3's preprocessing spectrum.
//!
//! Every node gets two hub sets: `L_out(v)` (hubs reachable *from* v) and
//! `L_in(v)` (hubs that *reach* v). Then `u ⇝ v` iff `L_out(u) ∩ L_in(v) ≠
//! ∅` — a sorted-list intersection, no graph traversal at query time.
//! Construction processes nodes hub-first (highest degree first) and runs a
//! **pruned** BFS per hub: a node whose reachability to/from the hub is
//! already implied by existing labels is not expanded, which is what keeps
//! labels small on hub-dominated graphs (the pruned-landmark idea).
//!
//! Like the GRAIL index this operates on DAGs (condense SCCs first for
//! general digraphs — `crate::compress` does exactly that); unlike GRAIL
//! the query is *label-only*: no fallback traversal, so query cost is
//! bounded by label sizes rather than by the graph.

use crate::repr::Graph;
use pitract_core::cost::Meter;

/// Pruned 2-hop (hub) labeling for DAG reachability.
#[derive(Debug, Clone)]
pub struct HopLabels {
    /// Hubs reachable from v (ascending hub-rank order).
    lout: Vec<Vec<u32>>,
    /// Hubs reaching v (ascending hub-rank order).
    lin: Vec<Vec<u32>>,
    /// node → rank in the hub order (lower = processed earlier).
    rank: Vec<u32>,
}

/// Errors from [`HopLabels::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopError {
    /// The graph has a directed cycle; condense SCCs first.
    Cyclic,
    /// The graph is undirected; hop labels are defined on DAGs.
    NotDirected,
}

impl std::fmt::Display for HopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HopError::Cyclic => write!(f, "graph has a directed cycle; condense SCCs first"),
            HopError::NotDirected => write!(f, "hop labels are defined on directed graphs"),
        }
    }
}

impl std::error::Error for HopError {}

impl HopLabels {
    /// Build labels in hub-first order. O(Σ pruned-BFS work); rejects
    /// undirected and cyclic inputs.
    pub fn build(g: &Graph) -> Result<Self, HopError> {
        if !g.is_directed() {
            return Err(HopError::NotDirected);
        }
        let n = g.node_count();

        // Cycle check via Kahn.
        let mut indeg = vec![0usize; n];
        for v in 0..n {
            for &w in g.neighbors(v) {
                indeg[w] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &w in g.neighbors(u) {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if seen != n {
            return Err(HopError::Cyclic);
        }

        let rev = if n > 0 {
            g.reversed()
        } else {
            Graph::new(0, true)
        };

        // Hub order: total degree descending, id ascending to break ties.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v) + rev.degree(v)), v));
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r as u32;
        }

        let mut labels = HopLabels {
            lout: vec![Vec::new(); n],
            lin: vec![Vec::new(); n],
            rank,
        };

        let mut visited = vec![false; n];
        for &hub in &order {
            let h = labels.rank[hub];
            // Forward pruned BFS: hub ⇝ v ⇒ h ∈ lin[v].
            labels.pruned_bfs(g, hub, h, true, &mut visited);
            // Backward pruned BFS: v ⇝ hub ⇒ h ∈ lout[v].
            labels.pruned_bfs(&rev, hub, h, false, &mut visited);
        }
        Ok(labels)
    }

    /// One pruned BFS from `hub`. `forward = true` labels `lin` (hub
    /// reaches the visited node); `false` labels `lout`.
    fn pruned_bfs(&mut self, g: &Graph, hub: usize, h: u32, forward: bool, visited: &mut [bool]) {
        let mut frontier = vec![hub];
        let mut touched = vec![hub];
        visited[hub] = true;
        while let Some(u) = frontier.pop() {
            // Prune: if the current labels already certify the relation
            // between hub and u, u's region is covered by an earlier hub.
            let already = if u != hub {
                if forward {
                    self.query(hub, u)
                } else {
                    self.query(u, hub)
                }
            } else {
                false
            };
            if already {
                continue;
            }
            if forward {
                self.lin[u].push(h);
            } else {
                self.lout[u].push(h);
            }
            for &w in g.neighbors(u) {
                if !visited[w] {
                    visited[w] = true;
                    touched.push(w);
                    frontier.push(w);
                }
            }
        }
        for v in touched {
            visited[v] = false;
        }
    }

    /// Is `v` reachable from `u` (reflexively)? Sorted-list intersection of
    /// `L_out(u)` and `L_in(v)`.
    pub fn query(&self, u: usize, v: usize) -> bool {
        if u == v {
            return true;
        }
        let (a, b) = (&self.lout[u], &self.lin[v]);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Metered query: one tick per label element touched — E6-style cost
    /// evidence that queries are label-bounded, not graph-bounded.
    pub fn query_metered(&self, u: usize, v: usize, meter: &Meter) -> bool {
        if u == v {
            meter.tick();
            return true;
        }
        let (a, b) = (&self.lout[u], &self.lin[v]);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            meter.tick();
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        meter.tick();
        false
    }

    /// Total number of label entries (the index size statistic).
    pub fn total_label_entries(&self) -> usize {
        self.lout.iter().map(Vec::len).sum::<usize>() + self.lin.iter().map(Vec::len).sum::<usize>()
    }

    /// Largest single label (worst-case query factor).
    pub fn max_label_len(&self) -> usize {
        self.lout
            .iter()
            .chain(self.lin.iter())
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// Number of labeled nodes.
    pub fn node_count(&self) -> usize {
        self.rank.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::traverse::reachable_bfs;

    #[test]
    fn matches_bfs_on_random_dags() {
        for seed in 0..8u64 {
            let g = generate::random_dag(50, 140, seed);
            let labels = HopLabels::build(&g).expect("generator emits DAGs");
            for u in 0..50 {
                for v in 0..50 {
                    assert_eq!(
                        labels.query(u, v),
                        reachable_bfs(&g, u, v),
                        "seed {seed} pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_bfs_on_layered_and_tree_dags() {
        for g in [
            generate::layered_dag(6, 12, 2, 3),
            generate::random_tree(80, 5),
            generate::path(60, true),
        ] {
            let n = g.node_count();
            let labels = HopLabels::build(&g).unwrap();
            for u in (0..n).step_by(3) {
                for v in (0..n).step_by(5) {
                    assert_eq!(labels.query(u, v), reachable_bfs(&g, u, v), "({u},{v})");
                }
            }
        }
    }

    #[test]
    fn hub_domination_keeps_labels_small() {
        // A star-of-paths: one hub feeding many chains. The hub is ranked
        // first, so every node's label should contain just a couple of
        // hubs instead of a full path signature.
        let mut edges = Vec::new();
        let arms = 20;
        let len = 20;
        for a in 0..arms {
            edges.push((0, 1 + a * len));
            for i in 0..len - 1 {
                edges.push((1 + a * len + i, 1 + a * len + i + 1));
            }
        }
        let n = 1 + arms * len;
        let g = Graph::directed_from_edges(n, &edges);
        let labels = HopLabels::build(&g).unwrap();
        // Correctness on a sample.
        for v in (0..n).step_by(7) {
            assert_eq!(labels.query(0, v), reachable_bfs(&g, 0, v));
        }
        // Size: far below the quadratic closure (n²/64 words ≈ 2.5k u64s);
        // also the average label stays small.
        let avg = labels.total_label_entries() as f64 / (2 * n) as f64;
        assert!(avg < 8.0, "average label size {avg:.1} too large");
    }

    #[test]
    fn cyclic_graphs_are_rejected() {
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(HopLabels::build(&g).unwrap_err(), HopError::Cyclic);
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::directed_from_edges(4, &[]);
        let labels = HopLabels::build(&g).unwrap();
        for v in 0..4 {
            assert!(labels.query(v, v));
            assert!(!labels.query(v, (v + 1) % 4));
        }
        let empty = Graph::directed_from_edges(0, &[]);
        assert!(HopLabels::build(&empty).is_ok());
    }

    #[test]
    fn metered_queries_are_label_bounded() {
        let g = generate::random_dag(400, 1200, 17);
        let labels = HopLabels::build(&g).unwrap();
        let meter = Meter::new();
        let bound = 2 * labels.max_label_len() as u64 + 1;
        for (u, v) in [(0usize, 399usize), (7, 311), (200, 100)] {
            meter.take();
            labels.query_metered(u, v, &meter);
            assert!(
                meter.steps() <= bound,
                "query ({u},{v}) cost {} exceeds label bound {bound}",
                meter.steps()
            );
        }
    }

    #[test]
    fn hop_error_displays() {
        assert!(HopError::Cyclic.to_string().contains("cycle"));
        assert!(HopError::NotDirected.to_string().contains("directed"));
    }

    #[test]
    fn undirected_rejected_with_error() {
        // Regression: this used to abort the process via `assert!` instead
        // of returning an error the caller can handle (mirroring `Cyclic`).
        let g = Graph::undirected_from_edges(2, &[(0, 1)]);
        assert_eq!(HopLabels::build(&g).unwrap_err(), HopError::NotDirected);
    }
}
