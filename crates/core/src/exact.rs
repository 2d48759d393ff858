//! Exact DMCS by exhaustive enumeration — the NP-hard ground truth.
//!
//! Theorem 3 proves DMCS NP-hard, so NCA and FPA are heuristics with no
//! approximation guarantee. This module provides the exact optimum for
//! *small* graphs (≤ 26 nodes in the query's component) by enumerating
//! every connected node subset containing the queries with a bitmask sweep
//! — which is what lets the test-suite and the `approx` experiment measure
//! how close the heuristics actually get.

use crate::measure::density_modularity_counts;
use crate::{query_component, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::{Graph, GraphError, NodeId};

/// Hard cap on the component size the solver accepts (2^26 masks is the
/// practical limit of the sweep).
pub const MAX_EXACT_NODES: usize = 26;

/// Exhaustive DMCS solver for small graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact;

impl CommunitySearch for Exact {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        let comp = query_component(g, query)?;
        let k = comp.len();
        if k > MAX_EXACT_NODES {
            return Err(SearchError::Graph(GraphError::NoFeasibleSolution(
                "component too large for exact enumeration",
            )));
        }
        // Local relabelling: component node i <-> bit i.
        let mut local = vec![usize::MAX; g.n()];
        for (i, &v) in comp.iter().enumerate() {
            local[v as usize] = i;
        }
        // Local adjacency bitmasks.
        let adj: Vec<u32> = comp
            .iter()
            .map(|&v| {
                let mut mask = 0u32;
                for &w in g.neighbors(v) {
                    if local[w as usize] != usize::MAX {
                        mask |= 1 << local[w as usize];
                    }
                }
                mask
            })
            .collect();
        let query_mask: u32 = query.iter().map(|&q| 1u32 << local[q as usize]).sum();
        let degrees: Vec<u64> = comp.iter().map(|&v| g.degree(v) as u64).collect();
        let m = g.m() as u64;

        let mut best = (f64::NEG_INFINITY, 0u32);
        for mask in 1u32..(1u32 << k) {
            if mask & query_mask != query_mask {
                continue;
            }
            if !is_connected_mask(mask, &adj) {
                continue;
            }
            let (mut l, mut d, mut size) = (0u64, 0u64, 0usize);
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                size += 1;
                d += degrees[i];
                l += (adj[i] & mask & !(u32::MAX << i)).count_ones() as u64;
            }
            let dm = density_modularity_counts(l, d, size, m);
            if dm > best.0 {
                best = (dm, mask);
            }
        }
        let community: Vec<NodeId> = (0..k)
            .filter(|&i| best.1 & (1 << i) != 0)
            .map(|i| comp[i])
            .collect();
        Ok(SearchResult {
            community,
            density_modularity: best.0,
            removal_order: Vec::new(),
            iterations: 1 << k,
        })
    }
}

/// Connectivity of the sub-bitmask via bitmask BFS.
fn is_connected_mask(mask: u32, adj: &[u32]) -> bool {
    let start = mask.trailing_zeros() as usize;
    let mut seen = 1u32 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u32;
        let mut bits = frontier;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            next |= adj[i] & mask;
        }
        frontier = next & !seen;
        seen |= next;
    }
    seen & mask == mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::density_modularity;
    use crate::{Fpa, Nca};
    use dmcs_graph::GraphBuilder;

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn exact_finds_the_triangle() {
        let g = barbell();
        let r = Exact.search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
        assert!((r.density_modularity - density_modularity(&g, &[0, 1, 2])).abs() < 1e-12);
    }

    #[test]
    fn exact_result_dominates_heuristics() {
        let g = barbell();
        for q in 0..6u32 {
            let opt = Exact.search(&g, &[q]).unwrap().density_modularity;
            for algo in [
                &Fpa::default() as &dyn CommunitySearch,
                &Fpa::without_pruning(),
                &Nca::default(),
            ] {
                let h = algo.search(&g, &[q]).unwrap().density_modularity;
                assert!(
                    h <= opt + 1e-9,
                    "{} beat the optimum?! {h} > {opt}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn exact_respects_multi_query() {
        let g = barbell();
        let r = Exact.search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&5));
        let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn heuristics_are_often_optimal_on_small_graphs() {
        // Measured approximation quality on the ring of cliques: FPA
        // (without pruning) attains the exact optimum from any clique.
        let g = dmcs_gen::ring::ring_of_cliques(4, 5); // 20 nodes
        let opt = Exact.search(&g, &[0]).unwrap();
        let fpa = Fpa::without_pruning().search(&g, &[0]).unwrap();
        assert!((fpa.density_modularity - opt.density_modularity).abs() < 1e-9);
    }

    #[test]
    fn component_cap_enforced() {
        let g = dmcs_gen::ring::ring_of_cliques(5, 6); // 30 nodes, connected
        assert!(Exact.search(&g, &[0]).is_err());
    }

    #[test]
    fn connectivity_mask_helper() {
        // Path 0-1-2 as masks.
        let adj = vec![0b010, 0b101, 0b010];
        assert!(is_connected_mask(0b111, &adj));
        assert!(is_connected_mask(0b011, &adj));
        assert!(!is_connected_mask(0b101, &adj));
    }
}
