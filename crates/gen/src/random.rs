//! Classic random-graph models: Erdős–Rényi and Barabási–Albert.
//!
//! The paper's FPA design rests on social networks being *scale-free*
//! (Barabási 2009, §5.5's motivation for peeling farthest nodes). The BA
//! model lets the test-suite exercise that regime, and the ER model
//! provides the unstructured control.

use dmcs_graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, p)`: every pair independently with probability `p`.
/// `O(n²)` Bernoulli sampling — intended for validation-sized graphs.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u as NodeId, v as NodeId);
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: start from a clique of
/// `m_edges + 1` nodes; each new node attaches to `m_edges` existing nodes
/// with probability proportional to their degree (repeated-endpoint
/// sampling from the stub list).
pub fn barabasi_albert(n: usize, m_edges: usize, seed: u64) -> Graph {
    assert!(m_edges >= 1);
    assert!(n > m_edges + 1, "need n > m + 1 seed nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Stub list: every edge contributes both endpoints, so sampling a
    // uniform entry is degree-proportional sampling.
    let mut stubs: Vec<NodeId> = Vec::with_capacity(2 * n * m_edges);
    let core = m_edges + 1;
    for u in 0..core {
        for v in (u + 1)..core {
            b.add_edge(u as NodeId, v as NodeId);
            stubs.push(u as NodeId);
            stubs.push(v as NodeId);
        }
    }
    for v in core..n {
        let v = v as NodeId;
        // BTreeSet: deterministic iteration order (a HashSet would make
        // the stub-list growth order, and hence the graph, run-dependent).
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m_edges {
            let t = stubs[rng.gen_range(0..stubs.len())];
            targets.insert(t);
        }
        for t in targets {
            b.add_edge(v, t);
            stubs.push(v);
            stubs.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::traversal::{bfs_distances, UNREACHABLE};

    #[test]
    fn er_edge_count_near_expectation() {
        let g = erdos_renyi(200, 0.1, 1);
        let expect = 0.1 * (200.0 * 199.0 / 2.0);
        assert!(
            (g.m() as f64 - expect).abs() < 0.2 * expect,
            "m = {} vs expected {expect}",
            g.m()
        );
    }

    #[test]
    fn ba_is_scale_free_ish() {
        let g = barabasi_albert(500, 3, 2);
        // Hub concentration: the max degree should dwarf the average.
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(max_deg as f64 > 3.0 * avg, "max {max_deg} vs avg {avg}");
        // Every non-seed node has degree >= m.
        for v in g.nodes() {
            assert!(g.degree(v) >= 3);
        }
    }

    #[test]
    fn ba_is_connected() {
        let g = barabasi_albert(300, 2, 3);
        let d = bfs_distances(&g, 0);
        assert!(d.iter().all(|&x| x != UNREACHABLE));
    }

    #[test]
    fn determinism_per_seed() {
        assert_eq!(erdos_renyi(50, 0.2, 9), erdos_renyi(50, 0.2, 9));
        assert_eq!(barabasi_albert(50, 2, 9), barabasi_albert(50, 2, 9));
    }
}
