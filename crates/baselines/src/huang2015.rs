//! `huang2015`: closest truss community search (Huang, Lakshmanan, Yu &
//! Cheng, VLDB 2015) — the "basic" algorithm with the 2-approximation the
//! paper says it implements.
//!
//! 1. Find the maximal connected k-truss containing all query nodes with
//!    `k` maximised (`G0`).
//! 2. Iteratively delete the node farthest from the queries, cascading
//!    the truss constraint (edges whose support drops below `k − 2` are
//!    peeled, isolated nodes dropped), while the queries stay connected.
//! 3. Return the intermediate subgraph minimising the maximum query
//!    distance (the "closest" criterion).

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::truss::{truss_decomposition, EdgeIndex};
use dmcs_graph::{Graph, GraphBuilder, GraphError, NodeId};
use std::collections::VecDeque;

/// Closest truss community search (basic algorithm).
#[derive(Debug, Clone, Copy)]
pub struct Huang2015 {
    /// Cap on node-deletion iterations (None = run until the queries
    /// would disconnect).
    pub max_iterations: Option<usize>,
}

impl Default for Huang2015 {
    fn default() -> Self {
        Huang2015 {
            max_iterations: Some(2000),
        }
    }
}

impl CommunitySearch for Huang2015 {
    fn name(&self) -> &'static str {
        "huang2015"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        // --- Step 1: the largest k whose connected k-truss holds all queries.
        let idx = EdgeIndex::new(g);
        let truss = truss_decomposition(g, &idx);
        let k_upper = (0..idx.m() as u32)
            .map(|e| truss[e as usize])
            .max()
            .unwrap_or(2);
        let mut chosen: Option<(u32, Vec<NodeId>)> = None;
        for k in (2..=k_upper).rev() {
            if let Some(nodes) = connected_truss_component(g, &idx, &truss, k, query) {
                chosen = Some((k, nodes));
                break;
            }
        }
        let (k, g0_nodes) = chosen.ok_or(SearchError::Graph(GraphError::NoFeasibleSolution(
            "queries share no connected truss",
        )))?;

        // --- Step 2: bulk-delete farthest nodes on the induced subgraph.
        let sub = g.induced(&g0_nodes);
        let mut local_of = vec![u32::MAX; g.n()];
        for (i, &v) in g0_nodes.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
        let lq: Vec<NodeId> = query.iter().map(|&q| local_of[q as usize]).collect();
        let mut st = TrussState::new(&sub, k);

        let mut best: Option<(u32, Vec<NodeId>)> = None; // (max query dist, nodes)
        let cap = self.max_iterations.unwrap_or(usize::MAX);
        for _ in 0..cap {
            let Some((dist_max, comp)) = st.query_component(&lq) else {
                break; // queries dropped or disconnected
            };
            if best.as_ref().is_none_or(|(b, _)| dist_max < *b) {
                best = Some((dist_max, comp.clone()));
            }
            if dist_max == 0 {
                break; // only the queries remain: cannot get closer
            }
            // Delete every node at the maximum distance (batch deletion is
            // the "basic" bulk variant).
            let far: Vec<u32> = comp
                .iter()
                .copied()
                .filter(|&v| st.dist[v as usize] == dist_max)
                .collect();
            for v in far {
                if st.node_alive[v as usize] {
                    st.remove_node(v);
                }
            }
        }

        let (_, local_nodes) = best.ok_or(SearchError::Graph(GraphError::NoFeasibleSolution(
            "truss collapsed before a candidate appeared",
        )))?;
        let community: Vec<NodeId> = local_nodes.iter().map(|&v| g0_nodes[v as usize]).collect();
        Ok(result_from_nodes(g, community))
    }
}

/// Nodes of the connected component of the k-truss subgraph (edges with
/// trussness ≥ k) containing all queries; `None` if the queries are split.
fn connected_truss_component(
    g: &Graph,
    idx: &EdgeIndex,
    truss: &[u32],
    k: u32,
    query: &[NodeId],
) -> Option<Vec<NodeId>> {
    let keep: Vec<(NodeId, NodeId)> = (0..idx.m() as u32)
        .filter(|&e| truss[e as usize] >= k)
        .map(|e| idx.endpoints(e))
        .collect();
    if keep.is_empty() {
        return None;
    }
    let sub = GraphBuilder::from_edges(g.n(), &keep);
    if query.iter().any(|&q| sub.degree(q) == 0) {
        return None;
    }
    let comp = dmcs_graph::traversal::component_of(&sub, query[0]);
    if query.iter().all(|q| comp.contains(q)) {
        Some(comp)
    } else {
        None
    }
}

/// Incremental k-truss maintenance under node deletions.
struct TrussState<'g> {
    g: &'g Graph,
    k: u32,
    idx: EdgeIndex,
    sup: Vec<u32>,
    edge_alive: Vec<bool>,
    node_alive: Vec<bool>,
    /// Alive incident edge count per node.
    deg: Vec<u32>,
    /// Scratch: last computed distances (from `query_component`).
    dist: Vec<u32>,
}

impl<'g> TrussState<'g> {
    fn new(g: &'g Graph, k: u32) -> Self {
        let idx = EdgeIndex::new(g);
        let sup = dmcs_graph::truss::edge_support(g, &idx);
        let m = idx.m();
        let deg: Vec<u32> = g.nodes().map(|v| g.degree(v) as u32).collect();
        let mut st = TrussState {
            g,
            k,
            idx,
            sup,
            edge_alive: vec![true; m],
            node_alive: vec![true; g.n()],
            deg,
            dist: vec![u32::MAX; g.n()],
        };
        // Establish the invariant: peel every edge below the threshold.
        let initial: Vec<u32> = (0..m as u32)
            .filter(|&e| st.sup[e as usize] + 2 < k)
            .collect();
        st.cascade(initial);
        st
    }

    /// Kill the edges in `seeds` and cascade the support constraint.
    fn cascade(&mut self, seeds: Vec<u32>) {
        let mut queue: VecDeque<u32> = seeds.into();
        while let Some(e) = queue.pop_front() {
            if !self.edge_alive[e as usize] {
                continue;
            }
            self.edge_alive[e as usize] = false;
            let (u, v) = self.idx.endpoints(e);
            self.deg[u as usize] -= 1;
            self.deg[v as usize] -= 1;
            if self.deg[u as usize] == 0 {
                self.node_alive[u as usize] = false;
            }
            if self.deg[v as usize] == 0 {
                self.node_alive[v as usize] = false;
            }
            // Every triangle (u, v, w): the other two edges lose support.
            let (nu, nv) = (self.g.neighbors(u), self.g.neighbors(v));
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = nu[i];
                        i += 1;
                        j += 1;
                        let e1 = self.idx.edge_id(self.g, u, w).expect("triangle edge");
                        let e2 = self.idx.edge_id(self.g, v, w).expect("triangle edge");
                        if self.edge_alive[e1 as usize] && self.edge_alive[e2 as usize] {
                            for &ex in &[e1, e2] {
                                let s = &mut self.sup[ex as usize];
                                *s = s.saturating_sub(1);
                                if *s + 2 < self.k {
                                    queue.push_back(ex);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Remove a node: kill all its alive edges (with cascade).
    fn remove_node(&mut self, v: u32) {
        self.node_alive[v as usize] = false;
        let base = self.g.csr_offset(v);
        let seeds: Vec<u32> = self
            .g
            .neighbors(v)
            .iter()
            .enumerate()
            .map(|(i, _)| self.idx.eid_of_slot(base + i))
            .filter(|&e| self.edge_alive[e as usize])
            .collect();
        self.cascade(seeds);
    }

    /// BFS over alive edges from the queries. Returns `(max query
    /// distance, component nodes)` or `None` if some query is dead or
    /// unreachable.
    fn query_component(&mut self, query: &[u32]) -> Option<(u32, Vec<u32>)> {
        if query.iter().any(|&q| !self.node_alive[q as usize]) {
            return None;
        }
        self.dist.iter_mut().for_each(|d| *d = u32::MAX);
        let mut queue = VecDeque::new();
        for &q in query {
            self.dist[q as usize] = 0;
            queue.push_back(q);
        }
        let mut comp = Vec::new();
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            let base = self.g.csr_offset(u);
            for (i, &w) in self.g.neighbors(u).iter().enumerate() {
                let e = self.idx.eid_of_slot(base + i);
                if self.edge_alive[e as usize] && self.dist[w as usize] == u32::MAX {
                    self.dist[w as usize] = self.dist[u as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        // Every query must be in one component (they all have dist 0 and
        // were seeds; connectivity between them needs a shared component —
        // multi-source BFS can merge separate components silently, so
        // verify via a single-source pass when there are several queries).
        if query.len() > 1 {
            let q0 = query[0];
            let mut seen = vec![false; self.g.n()];
            let mut stack = vec![q0];
            seen[q0 as usize] = true;
            while let Some(u) = stack.pop() {
                let base = self.g.csr_offset(u);
                for (i, &w) in self.g.neighbors(u).iter().enumerate() {
                    let e = self.idx.eid_of_slot(base + i);
                    if self.edge_alive[e as usize] && !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            if query.iter().any(|&q| !seen[q as usize]) {
                return None;
            }
        }
        let dist_max = comp
            .iter()
            .map(|&v| self.dist[v as usize])
            .max()
            .unwrap_or(0);
        Some((dist_max, comp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    /// K4 {0..4} sharing node 3 with another K4 {3..7}, plus a pendant.
    fn two_k4() -> Graph {
        GraphBuilder::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (3, 6),
                (4, 5),
                (4, 6),
                (5, 6),
                (6, 7),
            ],
        )
    }

    #[test]
    fn finds_close_truss_around_query() {
        let g = two_k4();
        let r = Huang2015::default().search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_query_spanning_cliques() {
        let g = two_k4();
        let r = Huang2015::default().search(&g, &[0, 4]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&4));
        // node 7 (pendant, no triangle) must never appear.
        assert!(!r.community.contains(&7));
    }

    #[test]
    fn pendant_query_fails_gracefully() {
        let g = two_k4();
        // Node 7 is in no triangle: only the 2-truss contains it.
        let r = Huang2015::default().search(&g, &[7]).unwrap();
        assert!(r.community.contains(&7));
    }

    #[test]
    fn errors_on_bad_input() {
        let g = two_k4();
        assert!(Huang2015::default().search(&g, &[]).is_err());
        assert!(Huang2015::default().search(&g, &[99]).is_err());
    }

    #[test]
    fn disconnected_queries_error() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(Huang2015::default().search(&g, &[0, 3]).is_err());
    }

    #[test]
    fn result_is_connected_and_holds_queries_on_karate() {
        let g = dmcs_gen::karate::karate();
        for q in [0u32, 16, 33] {
            let r = Huang2015::default().search(&g, &[q]).unwrap();
            assert!(r.community.contains(&q), "query {q}");
            let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected(), "query {q}");
        }
    }

    #[test]
    fn closest_criterion_shrinks_toward_the_query() {
        // From the K4 containing the query, the whole 5-truss G0 spans
        // both K4s only when both queries demand it; a single central
        // query keeps its own clique.
        let g = two_k4();
        let single = Huang2015::default().search(&g, &[1]).unwrap();
        assert!(
            single.community.len() <= 5,
            "stays near node 1: {:?}",
            single.community
        );
        assert!(!single.community.contains(&7));
    }

    #[test]
    fn iteration_cap_still_returns_valid_community() {
        let g = dmcs_gen::karate::karate();
        let capped = Huang2015 {
            max_iterations: Some(1),
        };
        let r = capped.search(&g, &[0]).unwrap();
        assert!(r.community.contains(&0));
        let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn triangle_free_graph_degrades_to_two_truss() {
        // A cycle has no triangles: the best truss is the 2-truss (the
        // cycle itself); the search must still answer.
        let n = 8u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let r = Huang2015::default().search(&g, &[0]).unwrap();
        assert!(r.community.contains(&0));
    }
}
