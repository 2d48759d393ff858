//! `kecc`: k-edge-connected component search (Chang et al. 2015,
//! "index-based optimal algorithms for computing Steiner components with
//! maximum connectivity"). The paper's default is `k = 3`.

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::mincut::k_edge_connected_community;
use dmcs_graph::{Graph, GraphError, NodeId};

/// The k-edge-connected community containing the queries.
#[derive(Debug, Clone, Copy)]
pub struct Kecc {
    /// Edge-connectivity threshold.
    pub k: u64,
}

impl Kecc {
    /// k-ECC search with threshold `k`.
    pub fn new(k: u64) -> Self {
        Kecc { k }
    }
}

impl CommunitySearch for Kecc {
    fn name(&self) -> &'static str {
        "kecc"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        let community = k_edge_connected_community(g, self.k, query).ok_or(SearchError::Graph(
            GraphError::NoFeasibleSolution("no k-edge-connected component contains all queries"),
        ))?;
        Ok(result_from_nodes(g, community))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    fn two_k4_bridge() -> Graph {
        GraphBuilder::from_edges(
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
        )
    }

    #[test]
    fn kecc_isolates_k4() {
        let g = two_k4_bridge();
        let r = Kecc::new(3).search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn kecc_k1_takes_component() {
        let g = two_k4_bridge();
        let r = Kecc::new(1).search(&g, &[0]).unwrap();
        assert_eq!(r.community.len(), 8);
    }

    #[test]
    fn kecc_fails_across_bridge_at_k2() {
        let g = two_k4_bridge();
        assert!(Kecc::new(2).search(&g, &[0, 7]).is_err());
    }

    #[test]
    fn kecc_rejects_bad_input() {
        let g = two_k4_bridge();
        assert!(Kecc::new(3).search(&g, &[]).is_err());
        assert!(Kecc::new(3).search(&g, &[88]).is_err());
    }
}
