//! Top-k diverse community search: several communities for one query.
//!
//! In overlapping ground truths (DBLP authors publish in several venues,
//! Youtube users join several groups — §6.3) a query node legitimately
//! belongs to *multiple* communities, yet DMCS returns one. This
//! extension enumerates up to `k` communities by exclusion: after each
//! round, the non-query members of the found community are removed from
//! the candidate pool and the search re-runs on the remainder, so every
//! round must explain the query through fresh nodes. All returned
//! communities are connected, contain every query node, and are scored
//! with the full-graph density modularity (comparable across rounds —
//! rounds are ordered by construction, not necessarily by score).

use crate::{validate_query_nodes, CommunitySearch, Fpa, SearchError, SearchResult};
use dmcs_graph::traversal::component_of;
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, GraphError, NodeId};
use std::collections::HashMap;

/// Configuration for [`top_k_communities`].
#[derive(Debug, Clone, Copy)]
pub struct TopKConfig {
    /// Maximum number of communities returned.
    pub k: usize,
    /// Stop early when a round's community drops below this DM (set to
    /// `f64::NEG_INFINITY` to disable; default 0: only positively
    /// cohesive communities count).
    pub min_dm: f64,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig { k: 3, min_dm: 0.0 }
    }
}

/// Enumerate up to `cfg.k` node-diverse communities containing `query`,
/// searching each round with FPA.
///
/// ```
/// use dmcs_core::topk::{top_k_communities, TopKConfig};
/// use dmcs_graph::GraphBuilder;
///
/// // Two 4-cliques sharing node 0: two legitimate communities.
/// let mut b = GraphBuilder::new(7);
/// for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
///     for i in 0..4 {
///         for j in (i + 1)..4 {
///             b.add_edge(c[i], c[j]);
///         }
///     }
/// }
/// let rounds = top_k_communities(&b.build(), &[0], TopKConfig::default()).unwrap();
/// assert_eq!(rounds.len(), 2);
/// ```
pub fn top_k_communities(
    g: &Graph,
    query: &[NodeId],
    cfg: TopKConfig,
) -> Result<Vec<SearchResult>, SearchError> {
    let mut tracker = QueryWorkspace::new();
    top_k_communities_with(g, query, cfg, &Fpa::default(), false, &mut tracker)
}

/// [`top_k_communities`] with an explicit per-round searcher and
/// objective — the registry-routed form: any [`CommunitySearch`] drives
/// the rounds, and `weighted` scores them with the weighted density
/// modularity (the induced round pools keep their weights lane), so
/// top-k composes with `fpa-w`/`nca-w` exactly like single queries.
///
/// `tracker` only notes the query's component for a cache fingerprint
/// (see [`QueryWorkspace::note_component`]): every round reads only its
/// rows besides m (or w_G). The ids it notes are `g`'s, so its canon
/// must be the identity; the per-round searches never see it.
pub fn top_k_communities_with(
    g: &Graph,
    query: &[NodeId],
    cfg: TopKConfig,
    algo: &dyn CommunitySearch,
    weighted: bool,
    tracker: &mut QueryWorkspace,
) -> Result<Vec<SearchResult>, SearchError> {
    validate_query_nodes(g, query)?;
    let mut pool: Vec<NodeId> = component_of(g, query[0]);
    if query[1..].iter().any(|q| pool.binary_search(q).is_err()) {
        return Err(SearchError::Graph(GraphError::QueryDisconnected));
    }
    tracker.note_component(&pool);
    let is_query = |v: NodeId| query.contains(&v);
    let mut out = Vec::new();
    for _round in 0..cfg.k {
        if pool.len() <= query.len() {
            break;
        }
        let Ok(r) = search_within_scored(g, &pool, query, algo, weighted) else {
            break; // queries disconnected inside the reduced pool
        };
        if r.density_modularity < cfg.min_dm {
            break;
        }
        // A community that explains the query only through itself (no
        // fresh non-query nodes) would repeat forever: stop.
        if r.community.iter().all(|&v| is_query(v)) {
            out.push(r);
            break;
        }
        let used: Vec<NodeId> = r
            .community
            .iter()
            .copied()
            .filter(|&v| !is_query(v))
            .collect();
        out.push(r);
        pool.retain(|&v| is_query(v) || !used.contains(&v));
    }
    Ok(out)
}

/// Run `algo` on the subgraph induced by the round's `pool`, translate
/// the result back to `g`'s ids, and re-score the community against the
/// *full* graph, so rounds are comparable: with the weighted density
/// modularity when `weighted` (unit weights when `g` carries no lane),
/// otherwise the unweighted one. The induced subgraph keeps its weights
/// lane either way. A query node outside the pool is an error, which
/// ends the enumeration.
fn search_within_scored(
    g: &Graph,
    pool: &[NodeId],
    query: &[NodeId],
    algo: &dyn CommunitySearch,
    weighted: bool,
) -> Result<SearchResult, SearchError> {
    let (sub, back) = g.induced(pool);
    let fwd: HashMap<NodeId, NodeId> = back
        .iter()
        .enumerate()
        .map(|(i, &orig)| (orig, i as NodeId))
        .collect();
    let local_query: Vec<NodeId> = query
        .iter()
        .map(|q| {
            fwd.get(q)
                .copied()
                .ok_or(SearchError::Graph(GraphError::NodeOutOfRange(*q)))
        })
        .collect::<Result<_, _>>()?;
    let mut r = algo.search(&sub, &local_query)?;
    r.community = r.community.iter().map(|&v| back[v as usize]).collect();
    r.community.sort_unstable();
    r.removal_order = r.removal_order.iter().map(|&v| back[v as usize]).collect();
    r.density_modularity = if weighted {
        g.weighted_density_modularity(&r.community)
    } else {
        crate::measure::density_modularity(g, &r.community)
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::{GraphBuilder, SubgraphView};

    /// Two 4-cliques sharing exactly the query node 0.
    fn bowtie() -> Graph {
        let mut b = GraphBuilder::new(7);
        // Left clique {0,1,2,3}, right clique {0,4,5,6}.
        for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(c[i], c[j]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn finds_both_cliques_of_the_bowtie() {
        let g = bowtie();
        let rs = top_k_communities(&g, &[0], TopKConfig { k: 3, min_dm: 0.0 }).unwrap();
        assert!(rs.len() >= 2, "expected both wings, got {}", rs.len());
        let mut wings: Vec<Vec<u32>> = rs.iter().take(2).map(|r| r.community.clone()).collect();
        wings.sort();
        assert_eq!(wings[0], vec![0, 1, 2, 3]);
        assert_eq!(wings[1], vec![0, 4, 5, 6]);
    }

    #[test]
    fn every_round_is_connected_and_holds_the_query() {
        let g = dmcs_gen::karate::karate();
        let rs = top_k_communities(&g, &[0], TopKConfig { k: 4, min_dm: 0.0 }).unwrap();
        assert!(!rs.is_empty());
        for r in &rs {
            assert!(r.community.contains(&0));
            let view = SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected());
        }
    }

    #[test]
    fn rounds_are_node_diverse() {
        let g = dmcs_gen::karate::karate();
        let rs = top_k_communities(
            &g,
            &[0],
            TopKConfig {
                k: 4,
                min_dm: f64::NEG_INFINITY,
            },
        )
        .unwrap();
        for i in 0..rs.len() {
            for j in (i + 1)..rs.len() {
                let shared: Vec<u32> = rs[i]
                    .community
                    .iter()
                    .copied()
                    .filter(|v| rs[j].community.contains(v) && *v != 0)
                    .collect();
                assert!(
                    shared.is_empty(),
                    "rounds {i} and {j} share non-query nodes {shared:?}"
                );
            }
        }
    }

    #[test]
    fn min_dm_cuts_off_weak_rounds() {
        let g = bowtie();
        let strict = top_k_communities(&g, &[0], TopKConfig { k: 5, min_dm: 1e9 }).unwrap();
        assert!(strict.is_empty());
    }

    #[test]
    fn multi_query_top_k() {
        let g = bowtie();
        // Queries in both wings: every community must span the waist.
        let rs = top_k_communities(&g, &[1, 4], TopKConfig::default()).unwrap();
        assert!(!rs.is_empty());
        for r in &rs {
            assert!(r.community.contains(&1) && r.community.contains(&4));
        }
    }

    #[test]
    fn errors_propagate() {
        let g = bowtie();
        let cfg = TopKConfig::default();
        assert_eq!(
            top_k_communities(&g, &[], cfg),
            Err(SearchError::EmptyQuery)
        );
        let out_of_range = Err(SearchError::Graph(GraphError::NodeOutOfRange(99)));
        assert_eq!(top_k_communities(&g, &[99], cfg), out_of_range);
        // Bounds come before connectivity, as in every search.
        let split = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(top_k_communities(&split, &[0, 99, 3], cfg), out_of_range);
        assert_eq!(
            top_k_communities(&split, &[1, 3], cfg),
            Err(SearchError::Graph(GraphError::QueryDisconnected))
        );
        assert!(top_k_communities(&split, &[1, 0, 1], cfg).is_ok());
    }

    #[test]
    fn the_tracker_notes_the_query_component_only() {
        use dmcs_graph::ShardLayout;
        // The bowtie in nodes 0..7 (shards 0 and 1 of 4) and an edge
        // 12-13 (shard 3).
        let mut b = GraphBuilder::new(16);
        for (u, v) in bowtie().edges() {
            b.add_edge(u, v);
        }
        b.add_edge(12, 13);
        let g = b.build();
        let cfg = TopKConfig::default();
        let mut ws = QueryWorkspace::new();
        let mut noted = |query: &[NodeId]| {
            ws.begin_shard_tracking(ShardLayout::new(16, 4));
            let rounds = top_k_communities_with(&g, query, cfg, &Fpa::default(), false, &mut ws);
            (rounds.is_ok(), ws.take_touched_shards())
        };
        assert_eq!(noted(&[0]), (true, Some(vec![0, 1])));
        assert_eq!(noted(&[13]), (true, Some(vec![3])));
        // An error found before the pool is noted notes nothing.
        assert_eq!(noted(&[0, 12]), (false, None));
    }

    #[test]
    fn explicit_searcher_matches_the_default_wrapper() {
        let g = bowtie();
        let cfg = TopKConfig { k: 3, min_dm: 0.0 };
        let via_wrapper = top_k_communities(&g, &[0], cfg).unwrap();
        let mut ws = QueryWorkspace::new();
        let via_with =
            top_k_communities_with(&g, &[0], cfg, &Fpa::default(), false, &mut ws).unwrap();
        assert_eq!(via_wrapper, via_with);
        // A different searcher drives the rounds too.
        let nca =
            top_k_communities_with(&g, &[0], cfg, &crate::Nca::default(), false, &mut ws).unwrap();
        assert!(!nca.is_empty());
        for r in &nca {
            assert!(r.community.contains(&0));
        }
    }

    #[test]
    fn weighted_rounds_score_the_weighted_objective() {
        use dmcs_graph::weighted::WeightedGraphBuilder;
        // The bowtie with the right wing triple-weighted: both wings are
        // still found, and each round's DM matches the weighted measure
        // of its community on the full graph.
        let mut b = WeightedGraphBuilder::new(7);
        for (c, w) in [([0u32, 1, 2, 3], 1.0), ([0, 4, 5, 6], 3.0)] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(c[i], c[j], w);
                }
            }
        }
        let g = b.build().into_graph();
        let cfg = TopKConfig { k: 3, min_dm: 0.0 };
        let rounds = top_k_communities_with(
            &g,
            &[0],
            cfg,
            &Fpa::default().weighted(),
            true,
            &mut QueryWorkspace::new(),
        )
        .unwrap();
        assert!(rounds.len() >= 2, "got {} rounds", rounds.len());
        for r in &rounds {
            let expect = g.weighted_density_modularity(&r.community);
            assert!(
                (r.density_modularity - expect).abs() < 1e-12,
                "round DM {} vs weighted measure {expect}",
                r.density_modularity
            );
        }
        // Both wings appear across the rounds (the round *order* is a
        // property of the peeling sequence, not of the scores), and the
        // heavy wing scores strictly higher under the weighted
        // objective.
        let mut wings: Vec<Vec<u32>> = rounds.iter().take(2).map(|r| r.community.clone()).collect();
        wings.sort();
        assert_eq!(wings, vec![vec![0, 1, 2, 3], vec![0, 4, 5, 6]]);
        assert!(
            g.weighted_density_modularity(&[0, 4, 5, 6])
                > g.weighted_density_modularity(&[0, 1, 2, 3])
        );
    }

    #[test]
    fn k_zero_returns_nothing() {
        let g = bowtie();
        let rs = top_k_communities(&g, &[0], TopKConfig { k: 0, min_dm: 0.0 }).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn search_within_rescoring_uses_full_graph_m() {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let pool: Vec<NodeId> = vec![0, 1, 2];
        let r = search_within_scored(&g, &pool, &[0], &Fpa::default(), false).unwrap();
        // DM of {0,1,2} in the FULL graph: (3 - 49/28)/3.
        let expect = crate::measure::density_modularity(&g, &[0, 1, 2]);
        assert!((r.density_modularity - expect).abs() < 1e-12);
    }

    #[test]
    fn queries_outside_ball_error() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let pool: Vec<NodeId> = vec![0, 1];
        assert!(search_within_scored(&g, &pool, &[3], &Fpa::default(), false).is_err());
    }
}
