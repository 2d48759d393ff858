//! `icwi2008`: Luo, Wang & Promislow's local-modularity greedy (2008).
//!
//! Local modularity `M(S) = l_in(S) / l_out(S)` (internal over boundary
//! edges). The algorithm alternates an *addition* phase (add neighbours
//! that increase M) and a *deletion* phase (drop members whose removal
//! increases M while keeping the subgraph connected and the query inside)
//! until a fixed point. The paper observes it "mostly returns very large
//! communities" because M keeps growing as the boundary shrinks — our
//! implementation reproduces exactly that behaviour.

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::{Graph, NodeId, SubgraphView};

/// Luo's local-modularity greedy search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Icwi2008;

fn local_modularity(l_in: u64, l_out: u64) -> f64 {
    if l_out == 0 {
        f64::INFINITY
    } else {
        l_in as f64 / l_out as f64
    }
}

impl CommunitySearch for Icwi2008 {
    fn name(&self) -> &'static str {
        "icwi2008"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        let mut in_s = vec![false; g.n()];
        let mut members: Vec<NodeId> = query.to_vec();
        for &q in query {
            in_s[q as usize] = true;
        }
        // l_in / l_out of the current S, maintained incrementally.
        let mut l_in: u64 = g.internal_edges(&members);
        let mut l_out: u64 = members
            .iter()
            .map(|&v| {
                g.neighbors(v)
                    .iter()
                    .filter(|&&w| !in_s[w as usize])
                    .count() as u64
            })
            .sum();

        let max_rounds = 50usize;
        for _round in 0..max_rounds {
            let mut changed = false;

            // Addition phase: scan the neighbourhood, add any node that
            // increases M.
            let mut frontier: Vec<NodeId> = Vec::new();
            {
                let mut seen = vec![false; g.n()];
                for &v in &members {
                    for &w in g.neighbors(v) {
                        if !in_s[w as usize] && !seen[w as usize] {
                            seen[w as usize] = true;
                            frontier.push(w);
                        }
                    }
                }
            }
            for v in frontier {
                let k_in = g.neighbors(v).iter().filter(|&&w| in_s[w as usize]).count() as u64;
                let k_out = g.degree(v) as u64 - k_in;
                let new_m = local_modularity(l_in + k_in, l_out - k_in + k_out);
                if new_m > local_modularity(l_in, l_out) {
                    in_s[v as usize] = true;
                    members.push(v);
                    l_in += k_in;
                    l_out = l_out - k_in + k_out;
                    changed = true;
                }
            }

            // Deletion phase: drop non-query members whose removal
            // increases M without disconnecting the community.
            let mut view = SubgraphView::from_nodes(g, &members);
            let candidates: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|v| !query.contains(v))
                .collect();
            for v in candidates {
                let k_in = view.local_degree(v) as u64;
                let k_out = g.degree(v) as u64 - k_in;
                let new_m = local_modularity(l_in - k_in, l_out + k_in - k_out);
                if new_m > local_modularity(l_in, l_out) {
                    // Connectivity check: remove and verify.
                    view.remove(v);
                    let still_ok = view.is_connected();
                    if still_ok {
                        in_s[v as usize] = false;
                        members.retain(|&u| u != v);
                        l_in -= k_in;
                        l_out = l_out + k_in - k_out;
                        changed = true;
                    } else {
                        view.restore(v);
                    }
                }
            }

            if !changed {
                break;
            }
        }
        Ok(result_from_nodes(g, members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn grows_from_query() {
        let g = barbell();
        let r = Icwi2008.search(&g, &[0]).unwrap();
        assert!(r.community.contains(&0));
        assert!(r.community.len() >= 3);
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn converges_on_dense_side_of_barbell() {
        // With a dense triangle around the query, the boundary-edge count
        // stops the growth at the triangle.
        let g = barbell();
        let r = Icwi2008.search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn absorbs_whole_sparse_structures() {
        // The documented failure mode ("mostly it returns very large
        // communities"): on a path, every addition strictly increases
        // M = l_in/l_out, so the greedy swallows the entire component
        // (l_out = 0 ⇒ M = ∞).
        let g = GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let r = Icwi2008.search(&g, &[0]).unwrap();
        assert_eq!(r.community.len(), 7, "expected the giant community");
    }

    #[test]
    fn respects_components() {
        let mut b = GraphBuilder::new(8);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            b.add_edge(u, v);
        }
        for &(u, v) in &[(4, 5), (5, 6), (6, 7)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let r = Icwi2008.search(&g, &[0]).unwrap();
        assert!(r.community.iter().all(|&v| v < 3));
    }

    #[test]
    fn multi_query_stays_included() {
        let g = barbell();
        let r = Icwi2008.search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&5));
    }
}
