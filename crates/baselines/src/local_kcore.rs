//! `ls`: local-search k-core community search (Cui, Xiao, Wang & Wang,
//! SIGMOD 2014). §2.1 of the DMCS paper contrasts it with Sozio's global
//! search: instead of peeling the whole graph, LS *expands* from the query
//! node, maintaining a candidate set until a connected subgraph with
//! minimum degree ≥ k emerges.
//!
//! We implement the expand-then-trim form: greedily grow the candidate set
//! from the query (preferring neighbours with the most links into the
//! candidate set — the "local" heuristic), and after every growth step
//! test whether the candidate set's k-core still containing the query is
//! non-empty; return the first (hence locally minimal) such core.

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::{Graph, GraphError, NodeId, SubgraphView};

/// Local-search k-core community search.
#[derive(Debug, Clone, Copy)]
pub struct LocalKCore {
    /// Minimum-degree threshold.
    pub k: u32,
    /// Growth budget: give up after the candidate set reaches this many
    /// nodes without containing a feasible core (prevents the local search
    /// from degenerating into the global one on infeasible queries).
    pub max_candidates: usize,
}

impl LocalKCore {
    /// LS with threshold `k` and a default growth budget.
    pub fn new(k: u32) -> Self {
        LocalKCore {
            k,
            max_candidates: 10_000,
        }
    }
}

impl CommunitySearch for LocalKCore {
    fn name(&self) -> &'static str {
        "ls"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        let mut in_c = vec![false; g.n()];
        let mut cand: Vec<NodeId> = query.to_vec();
        for &q in query {
            in_c[q as usize] = true;
        }
        // Frontier scored by links into the candidate set.
        let mut links = vec![0u32; g.n()];
        let mut frontier: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
        for &q in query {
            for &w in g.neighbors(q) {
                if !in_c[w as usize] {
                    links[w as usize] += 1;
                    frontier.insert(w);
                }
            }
        }
        loop {
            // Feasibility test on the current candidate set.
            if let Some(core) = feasible_core(g, &cand, self.k, query) {
                return Ok(result_from_nodes(g, core));
            }
            if cand.len() >= self.max_candidates || frontier.is_empty() {
                return Err(SearchError::Graph(GraphError::NoFeasibleSolution(
                    "local search exhausted its budget without a feasible core",
                )));
            }
            // Greedy growth: the frontier node with the most candidate links
            // (ties towards smaller id for determinism).
            let &v = frontier
                .iter()
                .max_by_key(|&&v| (links[v as usize], std::cmp::Reverse(v)))
                .expect("frontier non-empty");
            frontier.remove(&v);
            in_c[v as usize] = true;
            cand.push(v);
            for &w in g.neighbors(v) {
                if !in_c[w as usize] {
                    links[w as usize] += 1;
                    frontier.insert(w);
                }
            }
        }
    }
}

/// The connected k-core of `G[cand]` containing all queries, if any.
fn feasible_core(g: &Graph, cand: &[NodeId], k: u32, query: &[NodeId]) -> Option<Vec<NodeId>> {
    let mut view = SubgraphView::from_nodes(g, cand);
    // Peel to min degree >= k within the candidate set.
    loop {
        let doomed: Vec<NodeId> = view
            .iter_alive()
            .filter(|&v| view.local_degree(v) < k)
            .collect();
        if doomed.is_empty() {
            break;
        }
        for v in doomed {
            view.remove(v);
        }
    }
    if query.iter().any(|&q| !view.contains(q)) {
        return None;
    }
    view.retain_component(query[0]);
    if query.iter().any(|&q| !view.contains(q)) {
        return None;
    }
    Some(view.alive_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    /// K4 {0..4} with a long tail 3-4-5-6.
    fn k4_tail() -> Graph {
        GraphBuilder::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
            ],
        )
    }

    #[test]
    fn local_search_finds_core_without_scanning_tail() {
        let g = k4_tail();
        let r = LocalKCore::new(3).search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn returns_smaller_core_than_global_search_sometimes() {
        // Two K4s joined by an edge: LS from node 0 stops at its own K4;
        // the global 3-core is both K4s... actually both are separate
        // 3-cores joined by a degree-1 bridge, so kc also returns one K4.
        // The interesting property here: LS touches only ~one K4's worth
        // of nodes (asserted indirectly through the result).
        let g = GraphBuilder::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (5, 6),
                (5, 7),
                (6, 7),
                (3, 4),
            ],
        );
        let r = LocalKCore::new(3).search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn infeasible_k_fails() {
        let g = k4_tail();
        assert!(LocalKCore::new(4).search(&g, &[0]).is_err());
        assert!(LocalKCore::new(3).search(&g, &[6]).is_err());
    }

    #[test]
    fn multi_query_within_one_core() {
        let g = k4_tail();
        let r = LocalKCore::new(2).search(&g, &[0, 3]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&3));
    }

    #[test]
    fn agrees_with_global_kcore_when_feasible() {
        let g = k4_tail();
        let local = LocalKCore::new(3).search(&g, &[1]).unwrap();
        let global = crate::KCore::new(3).search(&g, &[1]).unwrap();
        // LS returns a subset of the global core community (local
        // minimality); here they coincide.
        assert_eq!(local.community, global.community);
    }
}
