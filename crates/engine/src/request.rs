//! The typed request/response contract of the serving API.
//!
//! A [`QueryRequest`] is what a client submits: the query nodes plus a
//! correlation tag. The algorithm is the session's (or batch's), fixed
//! when it opens. A [`QueryResponse`] is what comes back: the
//! [`SearchResult`] (or the per-query [`SearchError`]), the algorithm
//! that ran, and the query's own wall time.
//! [`Session`](crate::Session)s answer one request at a time;
//! [`BatchRunner`](crate::BatchRunner) fans slices of requests out
//! across worker threads.

use dmcs_core::{SearchError, SearchResult};
use dmcs_graph::NodeId;

/// One community-search request, builder-style.
///
/// ```
/// use dmcs_engine::QueryRequest;
///
/// let plain = QueryRequest::new(vec![0, 3]);
/// assert_eq!(plain.nodes, vec![0, 3]);
///
/// // Tag the request for correlation in logs / JSON output.
/// let tagged = QueryRequest::new(vec![7]).with_tag("user-42");
/// assert_eq!(tagged.tag.as_deref(), Some("user-42"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query nodes (dense graph ids). Every returned community
    /// contains all of them.
    pub nodes: Vec<NodeId>,
    /// Caller-chosen correlation id, echoed verbatim in the response and
    /// the JSON output.
    pub tag: Option<String>,
}

impl QueryRequest {
    /// An untagged request for `nodes`.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        QueryRequest { nodes, tag: None }
    }

    /// Attach a correlation tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Wrap bare query-node lists into plain requests (the shape batch
    /// files parse into).
    pub fn from_node_lists(queries: &[Vec<NodeId>]) -> Vec<QueryRequest> {
        queries.iter().cloned().map(QueryRequest::new).collect()
    }
}

/// The outcome of one [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The request this answers (nodes and tag echoed back).
    pub request: QueryRequest,
    /// Display name of the algorithm that ran.
    pub algo: &'static str,
    /// The search result, or the per-query error. A failed query never
    /// aborts a batch. A served result leaves `removal_order` empty: no
    /// reply renders it ([`Session::search`](crate::Session::search)
    /// returns it).
    pub result: Result<SearchResult, SearchError>,
    /// Wall-clock seconds of this query alone. A response served from
    /// the version-keyed cache replays the *original* computation's
    /// timing, so repeated output stays byte-identical.
    pub seconds: f64,
    /// Whether this response was served from the engine's version-keyed
    /// result cache rather than computed. Not part of the JSON `response`
    /// schema (hits must render byte-identically to the miss that
    /// populated them); batch-level hit/miss counts are surfaced in
    /// [`BatchReport`](crate::BatchReport) and the JSON `summary` line.
    pub cached: bool,
}

impl QueryResponse {
    /// Community size, if the search succeeded.
    pub fn community_size(&self) -> Option<usize> {
        self.result.as_ref().ok().map(|r| r.community.len())
    }

    /// Whether the search produced a community.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let req = QueryRequest::new(vec![1, 2]).with_tag("t");
        assert_eq!(req.nodes, vec![1, 2]);
        assert_eq!(req.tag.as_deref(), Some("t"));
    }

    #[test]
    fn node_lists_become_plain_requests() {
        let reqs = QueryRequest::from_node_lists(&[vec![0], vec![1, 2]]);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].nodes, vec![1, 2]);
        assert!(reqs[0].tag.is_none());
    }

    #[test]
    fn response_accessors_mirror_the_result() {
        let ok = QueryResponse {
            request: QueryRequest::new(vec![0]),
            algo: "FPA",
            result: Ok(SearchResult {
                community: vec![0, 1, 2],
                density_modularity: 0.5,
                removal_order: vec![],
                iterations: 1,
            }),
            seconds: 0.001,
            cached: false,
        };
        assert_eq!(ok.community_size(), Some(3));
        assert!(ok.is_ok());

        let err = QueryResponse {
            result: Err(SearchError::EmptyQuery),
            ..ok
        };
        assert_eq!(err.community_size(), None);
        assert!(!err.is_ok());
    }
}
