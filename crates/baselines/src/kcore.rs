//! `kc` and `highcore`: minimum-degree (k-core) community search
//! (Sozio & Gionis 2010, the original community-search paper).

use crate::result_from_nodes;
use dmcs_core::{validate_query_nodes, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::cores::{highest_core_community, k_core_community};
use dmcs_graph::{Graph, GraphError, NodeId};

/// The connected k-core containing the queries, for a fixed user-supplied
/// `k` (the paper's default is `k = 3`).
#[derive(Debug, Clone, Copy)]
pub struct KCore {
    /// Minimum-degree threshold.
    pub k: u32,
}

impl KCore {
    /// k-core search with threshold `k`.
    pub fn new(k: u32) -> Self {
        KCore { k }
    }
}

impl CommunitySearch for KCore {
    fn name(&self) -> &'static str {
        "kc"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query_nodes(g, query)?;
        let community = k_core_community(g, self.k, query).ok_or(SearchError::Graph(
            GraphError::NoFeasibleSolution("no connected k-core contains all queries"),
        ))?;
        Ok(result_from_nodes(g, community))
    }
}

/// The highest-order core: the connected k-core containing the queries
/// with `k` maximised.
#[derive(Debug, Clone, Copy, Default)]
pub struct HighCore;

impl CommunitySearch for HighCore {
    fn name(&self) -> &'static str {
        "highcore"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query_nodes(g, query)?;
        let (community, _k) = highest_core_community(g, query).ok_or(SearchError::Graph(
            GraphError::NoFeasibleSolution("queries share no connected core"),
        ))?;
        Ok(result_from_nodes(g, community))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    /// K4 on 0..4 with a tail 3-4-5.
    fn k4_tail() -> Graph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn kc_returns_core_community() {
        let g = k4_tail();
        let r = KCore::new(3).search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn kc_fails_for_low_core_query() {
        let g = k4_tail();
        assert!(KCore::new(3).search(&g, &[5]).is_err());
    }

    #[test]
    fn kc_k1_returns_whole_component() {
        let g = k4_tail();
        let r = KCore::new(1).search(&g, &[5]).unwrap();
        assert_eq!(r.community.len(), 6);
    }

    #[test]
    fn highcore_maximises_k() {
        let g = k4_tail();
        let r = HighCore.search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2, 3]);
        let r5 = HighCore.search(&g, &[5]).unwrap();
        assert_eq!(r5.community.len(), 6); // 1-core
    }

    #[test]
    fn multi_query_must_share_core() {
        let g = k4_tail();
        let r = KCore::new(1).search(&g, &[0, 5]).unwrap();
        assert_eq!(r.community.len(), 6);
        assert!(KCore::new(3).search(&g, &[0, 5]).is_err());
    }

    #[test]
    fn dm_score_is_populated() {
        let g = k4_tail();
        let r = KCore::new(3).search(&g, &[0]).unwrap();
        let expect = dmcs_core::measure::density_modularity(&g, &r.community);
        assert!((r.density_modularity - expect).abs() < 1e-12);
    }
}
