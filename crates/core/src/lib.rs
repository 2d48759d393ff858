//! # dmcs-core — Density-Modularity based Community Search
//!
//! The primary contribution of the DMCS paper (SIGMOD 2022):
//!
//! - [`measure`] — the density modularity `DM` (Definition 2), the classic
//!   Newman modularity `CM` (Definition 1), the generalized modularity
//!   density (Guo et al. 2020, the Fig 12 comparator), the density-
//!   modularity gain `Λ` (Definition 6) and the density ratio `Θ`
//!   (Definition 7).
//! - [`peel`] — shared state for the top-down greedy framework
//!   (Algorithm 1): a [`dmcs_graph::SubgraphView`] plus incrementally
//!   maintained `l_S`, `d_S`, `|S|` and best-snapshot tracking.
//! - [`nca`] — the Non-articulation Cancellation Algorithm (§5.4) and its
//!   `NCA-DR` ablation variant ((a)+(d) in Figure 3).
//! - [`fpa`] — the Fast Peeling Algorithm (§5.5) with the layer-based
//!   pruning strategy (§5.7), multi-query handling via the Steiner seed
//!   (§5.6), and its `FPA-DMG` ablation variant ((b)+(c)).
//! - [`theory`] — executable versions of Definition 3 (free-rider effect)
//!   and Definition 4 (resolution-limit), used to validate Lemmas 1–2
//!   empirically.
//! - [`weighted`] / [`weighted_nca`] — `W-FPA` and `W-NCA`, the two
//!   searchers maximising the *weighted* form of Definition 2. Both
//!   implement [`CommunitySearch`] over any [`dmcs_graph::Graph`]
//!   (graphs without a weights lane fall back to unit weights) and are
//!   registered as `fpa-w` / `nca-w` in the engine's registry, so they
//!   serve through sessions, batches and the result cache.
//!
//! ## Quick start
//!
//! ```
//! use dmcs_core::{CommunitySearch, Fpa};
//! use dmcs_graph::GraphBuilder;
//!
//! // Two triangles joined by one edge; search from node 0.
//! let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
//! let result = Fpa::default().search(&g, &[0]).unwrap();
//! assert!(result.community.contains(&0));
//! ```

#![warn(missing_docs)]

pub mod bnb;
pub mod detect;
pub mod exact;
pub mod fpa;
pub mod framework;
pub mod measure;
pub mod nca;
pub mod peel;
pub mod theory;
pub mod topk;
pub mod weighted;
pub mod weighted_nca;

pub use bnb::BranchAndBound;
pub use exact::Exact;
pub use fpa::{Fpa, FpaDmg};
pub use nca::{Nca, NcaDr};
pub use weighted::WeightedFpa;
pub use weighted_nca::WeightedNca;

use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, GraphError, NodeId};

/// Error type of the search algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// Structural failure from the graph substrate (query out of range,
    /// queries disconnected, ...).
    Graph(GraphError),
    /// The query set is empty.
    EmptyQuery,
}

impl From<GraphError> for SearchError {
    fn from(e: GraphError) -> Self {
        SearchError::Graph(e)
    }
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Graph(e) => write!(f, "{e}"),
            SearchError::EmptyQuery => write!(f, "query set is empty"),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

/// Outcome of a community search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The community: sorted node ids; connected; contains every query.
    pub community: Vec<NodeId>,
    /// Density modularity of `community` (the objective of DMCS).
    pub density_modularity: f64,
    /// Nodes in the order the algorithm removed them one at a time (the
    /// Fig 5 removal-order study reads this). Nodes never removed are
    /// absent, and so are the outer layers that layer-pruned FPA (§5.7)
    /// strips in bulk: that strip is one of the `iterations`, but its
    /// nodes are not listed. [`Fpa::without_pruning`] lists every removal.
    pub removal_order: Vec<NodeId>,
    /// Number of peeling iterations executed.
    pub iterations: usize,
}

/// Common interface of every community-search algorithm in this workspace
/// (the two DMCS algorithms here and all baselines in `dmcs-baselines`).
///
/// `Send + Sync` is a supertrait so evaluation harnesses can fan a shared
/// `&dyn CommunitySearch` out across threads; every implementor is a
/// plain configuration struct, so this costs nothing.
pub trait CommunitySearch: Send + Sync {
    /// Short stable identifier, e.g. `"FPA"`, `"kc"` — matches the paper's
    /// legend labels.
    fn name(&self) -> &'static str;

    /// Find a connected community containing all of `query`.
    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError>;

    /// [`CommunitySearch::search`] with recyclable per-query buffers.
    ///
    /// Batched engines keep one [`QueryWorkspace`] per worker thread and
    /// call this for every query, so the `O(n)` alive-mask / degree /
    /// distance arrays are allocated once per worker instead of once per
    /// query. **Must return exactly what `search` returns** — the batch
    /// determinism tests enforce this for every registered algorithm.
    /// The default implementation ignores the workspace; the peeling
    /// algorithms (FPA, NCA and variants) override it.
    fn search_with_workspace(
        &self,
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
    ) -> Result<SearchResult, SearchError> {
        let _ = ws;
        self.search(g, query)
    }
}

pub(crate) fn validate_query(g: &Graph, query: &[NodeId]) -> Result<(), SearchError> {
    validate_query_nodes(g, query)?;
    if !dmcs_graph::traversal::same_component(g, query) {
        return Err(SearchError::Graph(GraphError::QueryDisconnected));
    }
    Ok(())
}

/// [`validate_query`] over the workspace's pooled visit buffers: same
/// checks, zero allocations once the workspace is warm (see
/// [`dmcs_graph::traversal::same_component_with_workspace`]).
pub(crate) fn validate_query_in(
    g: &Graph,
    query: &[NodeId],
    ws: &mut QueryWorkspace,
) -> Result<(), SearchError> {
    validate_query_nodes(g, query)?;
    if !dmcs_graph::traversal::same_component_with_workspace(g, query, ws) {
        return Err(SearchError::Graph(GraphError::QueryDisconnected));
    }
    Ok(())
}

/// The allocation-free half of [`validate_query`]: empty and bounds
/// checks only. Callers that can prove connectivity another way (e.g.
/// every query node is a member of one memoized connected component)
/// use this to skip the validation BFS.
pub(crate) fn validate_query_nodes(g: &Graph, query: &[NodeId]) -> Result<(), SearchError> {
    if query.is_empty() {
        return Err(SearchError::EmptyQuery);
    }
    for &q in query {
        if q as usize >= g.n() {
            return Err(SearchError::Graph(GraphError::NodeOutOfRange(q)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(validate_query(&g, &[]), Err(SearchError::EmptyQuery));
        assert!(matches!(
            validate_query(&g, &[7]),
            Err(SearchError::Graph(GraphError::NodeOutOfRange(7)))
        ));
        assert!(validate_query(&g, &[0, 2]).is_ok());
    }

    #[test]
    fn validate_rejects_disconnected_queries() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            validate_query(&g, &[0, 3]),
            Err(SearchError::Graph(GraphError::QueryDisconnected))
        );
    }
}
