//! Workload generators for every graph experiment.
//!
//! The paper's cited compression results [16, 31, 32] target social
//! networks; absent their proprietary datasets, E8 substitutes synthetic
//! graphs whose *structural knobs* (degree skew, cycle density, layering)
//! exercise the same code paths.
//! All generators are seeded and deterministic so experiments reproduce
//! run-to-run.

use crate::repr::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi G(n, p) digraph (no self-loops).
pub fn gnp_directed(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n, true);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Erdős–Rényi G(n, p) undirected graph (no self-loops).
pub fn gnp_undirected(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n, false);
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Random DAG: `m` edges drawn uniformly with endpoints ordered by id.
pub fn random_dag(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n, true);
    let mut added = 0usize;
    while added < m && n >= 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a < b {
            g.add_edge(a, b);
            added += 1;
        }
    }
    g
}

/// Uniform random recursive tree as a directed out-tree rooted at 0
/// (parent of `i` is uniform over `0..i`).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n, true);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        g.add_edge(p, i);
    }
    g
}

/// Preferential-attachment ("social-network-like") digraph: each new node
/// attaches `m_per_node` out-edges to earlier nodes, chosen proportionally
/// to current degree — the degree-skewed workload for E8.
pub fn preferential_attachment(n: usize, m_per_node: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n, true);
    // Degree-proportional sampling via a repeated-endpoints urn.
    let mut urn: Vec<usize> = vec![0];
    for v in 1..n {
        for _ in 0..m_per_node.max(1) {
            let target = urn[rng.gen_range(0..urn.len())];
            if target != v {
                g.add_edge(v, target);
                urn.push(target);
            }
        }
        urn.push(v);
    }
    g
}

/// Layered DAG: `layers` layers of `width` nodes; each node has edges to
/// `fanout` random nodes of the next layer. The circuit-shaped workload
/// used by E11's CVP experiments and by E6 on deep reachability.
pub fn layered_dag(layers: usize, width: usize, fanout: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = layers * width;
    let mut g = Graph::new(n, true);
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            let u = l * width + i;
            for _ in 0..fanout {
                let v = (l + 1) * width + rng.gen_range(0..width);
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Undirected path 0–1–…–(n−1): the worst case for search-based baselines.
pub fn path(n: usize, directed: bool) -> Graph {
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    if directed {
        Graph::directed_from_edges(n, &edges)
    } else {
        Graph::undirected_from_edges(n, &edges)
    }
}

/// Directed cycle 0→1→…→(n−1)→0: collapses to a point under compression.
pub fn cycle(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::directed_from_edges(n, &edges)
}

/// √n×√n grid, undirected: the moderate-diameter workload for E7.
pub fn grid(side: usize) -> Graph {
    let n = side * side;
    let mut g = Graph::new(n, false);
    for r in 0..side {
        for c in 0..side {
            let u = r * side + c;
            if c + 1 < side {
                g.add_edge(u, u + 1);
            }
            if r + 1 < side {
                g.add_edge(u, u + side);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(gnp_directed(30, 0.2, 7), gnp_directed(30, 0.2, 7));
        assert_ne!(
            gnp_directed(30, 0.2, 7).edges(),
            gnp_directed(30, 0.2, 8).edges()
        );
        assert_eq!(
            preferential_attachment(40, 2, 5).edges(),
            preferential_attachment(40, 2, 5).edges()
        );
    }

    #[test]
    fn gnp_density_tracks_p() {
        let g = gnp_directed(100, 0.1, 42);
        let expected = 100.0 * 99.0 * 0.1;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < expected * 0.5,
            "edge count {m} far from expectation {expected}"
        );
    }

    #[test]
    fn random_dag_is_acyclic() {
        let g = random_dag(50, 120, 3);
        for (u, v) in g.edges() {
            assert!(u < v, "DAG edge ({u},{v}) must ascend");
        }
    }

    #[test]
    fn random_tree_has_n_minus_1_edges_and_is_connected() {
        let g = random_tree(200, 11);
        assert_eq!(g.edge_count(), 199);
        let (dist, _) = crate::traverse::bfs(&g, 0);
        assert!(dist.iter().all(Option::is_some), "tree must be connected");
    }

    #[test]
    fn preferential_attachment_is_skewed() {
        let g = preferential_attachment(500, 2, 9);
        // In-degree skew: the max in-degree should far exceed the mean.
        let rev = g.reversed();
        let max_in = (0..500).map(|v| rev.degree(v)).max().unwrap();
        let mean_in = rev.edge_count() as f64 / 500.0;
        assert!(
            max_in as f64 > 4.0 * mean_in,
            "max in-degree {max_in} vs mean {mean_in:.2}: not skewed"
        );
    }

    #[test]
    fn layered_dag_edges_respect_layers() {
        let g = layered_dag(5, 10, 2, 21);
        for (u, v) in g.edges() {
            assert_eq!(v / 10, u / 10 + 1, "edge ({u},{v}) skips layers");
        }
    }

    #[test]
    fn path_cycle_grid_shapes() {
        assert_eq!(path(10, true).edge_count(), 9);
        assert_eq!(cycle(10).edge_count(), 10);
        let g = grid(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 2 * 4 * 3);
    }

    #[test]
    fn tiny_sizes_do_not_panic() {
        let _ = gnp_directed(0, 0.5, 1);
        let _ = gnp_undirected(1, 0.5, 1);
        let _ = random_dag(1, 5, 1);
        let _ = random_tree(1, 1);
        let _ = preferential_attachment(1, 2, 1);
        let _ = layered_dag(1, 3, 2, 1);
        let _ = path(0, false);
        let _ = grid(0);
    }
}
