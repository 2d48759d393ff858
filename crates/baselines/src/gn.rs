//! `GN`: the Girvan–Newman divisive algorithm (2002), adapted to community
//! search per the paper's protocol: "iteratively deletes a set of edges
//! based on the betweenness centrality until no edges can be removed
//! \[and\] among the intermediate subgraphs containing all the query
//! nodes, pick the community which has the largest density modularity".
//!
//! `O(|V| · |E|²)` — the paper reports GN failing to finish Polblogs within
//! 24 hours; the `max_removals` knob lets harnesses bound the damage.

use crate::result_from_nodes;
use dmcs_core::measure::density_modularity;
use dmcs_core::{validate_query_nodes, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::betweenness::edge_betweenness_masked;
use dmcs_graph::traversal::component_of;
use dmcs_graph::{Graph, GraphBuilder, GraphError, NodeId};

/// Divisive edge-betweenness community search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gn {
    /// Optional cap on the number of edge removals (None = run to the
    /// end, as the paper does when it finishes).
    pub max_removals: Option<usize>,
}

impl CommunitySearch for Gn {
    fn name(&self) -> &'static str {
        "GN"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query_nodes(g, query)?;
        let q0 = query[0];
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let mask = vec![true; g.n()];
        let cap = self.max_removals.unwrap_or(usize::MAX);

        let mut best: Option<(f64, Vec<NodeId>)> = None;
        let mut consider = |current: &Graph| -> bool {
            let comp = component_of(current, q0);
            if !query.iter().all(|q| comp.contains(q)) {
                return false; // queries separated: no future subgraph helps
            }
            // Score against the ORIGINAL graph (the community is a node
            // set of G; the peeled copy only drives the search).
            let dm = density_modularity(g, &comp);
            if best.as_ref().is_none_or(|(b, _)| dm > *b) {
                best = Some((dm, comp));
            }
            true
        };

        let mut removed = 0usize;
        loop {
            let current = GraphBuilder::from_edges(g.n(), &edges);
            if !consider(&current) || edges.is_empty() || removed >= cap {
                break;
            }
            let eb = edge_betweenness_masked(&current, &mask);
            let Some(((u, v), _)) = eb
                .into_iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("betweenness not NaN"))
            else {
                break;
            };
            edges.retain(|&e| e != (u, v));
            removed += 1;
        }

        let (_, community) = best.ok_or(SearchError::Graph(GraphError::NoFeasibleSolution(
            "queries were never in one component",
        )))?;
        Ok(result_from_nodes(g, community))
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
    fn gn_cuts_the_bridge_first() {
        let g = barbell();
        let r = Gn::default().search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn gn_multi_query_across_bridge() {
        let g = barbell();
        let r = Gn::default().search(&g, &[1, 4]).unwrap();
        // Queries straddle the bridge: only the full component contains
        // both, so that is the best (and only) candidate.
        assert_eq!(r.community.len(), 6);
    }

    #[test]
    fn removal_cap_still_returns_something() {
        let g = barbell();
        let r = Gn {
            max_removals: Some(0),
        }
        .search(&g, &[0])
        .unwrap();
        assert_eq!(r.community.len(), 6);
    }

    #[test]
    fn gn_on_two_cliques_with_two_bridges() {
        // Two K4s joined by two bridges; GN must cut both to separate.
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
                (0, 7),
            ],
        );
        let r = Gn::default().search(&g, &[1]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
    }
}
