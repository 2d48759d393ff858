//! Non-articulation Cancellation Algorithm (NCA, §5.4) and its ablation
//! variant NCA-DR (§6.2.5).
//!
//! Per iteration: compute all articulation nodes of the current subgraph
//! (Hopcroft–Tarjan, `O(|V|+|E|)`); among alive non-query non-articulation
//! nodes pick the one maximising the score — the density-modularity gain
//! `Λ` for NCA, the density ratio `Θ` for NCA-DR. On score ties the paper
//! "keeps the node that is closely located to the query nodes", i.e. the
//! *removed* node is the tied candidate farthest from the queries. Total
//! complexity `O(|V|(|V|+|E|))` — the articulation recomputation is the
//! bottleneck FPA exists to avoid.
//!
//! On edge weights (`W-NCA`, see [`Lane`]) Λ reads `−4·w_G·w_{v,S} +
//! 2·d_S·d_v − d_v²`; removability stays topological.

use crate::measure::Lane;
use crate::peel::{PeelState, TieRule};
use crate::{validate_query_in, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::articulation::articulation_nodes;
use dmcs_graph::traversal::multi_source_bfs_collect;
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, NodeId};

/// Scoring rule for choosing the best removable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Score {
    /// Density-modularity gain `Λ` (Definition 6) — the NCA rule (c).
    Gain,
    /// Density ratio `Θ` (Definition 7) — rule (d), giving NCA-DR.
    Ratio,
}

/// The Non-articulation Cancellation Algorithm: removable nodes via
/// articulation tests, best node via the density-modularity gain.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nca {
    /// Maximise the *weighted* density modularity (`W-NCA`); see
    /// [`Fpa`](crate::Fpa)'s field of the same name.
    pub weighted: bool,
}

impl Nca {
    /// The same NCA on the weighted density modularity (see the
    /// `weighted` field).
    pub fn weighted(self) -> Self {
        Nca { weighted: true }
    }
}

/// NCA-DR: NCA's removable-node rule with FPA's density-ratio scorer
/// ((a)+(d) in Figure 3) — faster to score, same articulation bottleneck.
#[derive(Debug, Clone, Copy, Default)]
pub struct NcaDr;

impl CommunitySearch for Nca {
    fn name(&self) -> &'static str {
        if self.weighted {
            "W-NCA"
        } else {
            "NCA"
        }
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        self.search_with_workspace(g, query, &mut QueryWorkspace::new())
    }

    fn search_with_workspace(
        &self,
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
    ) -> Result<SearchResult, SearchError> {
        if self.weighted {
            run_nca::<f64>(g, query, Score::Gain, ws)
        } else {
            run_nca::<u64>(g, query, Score::Gain, ws)
        }
    }
}

impl CommunitySearch for NcaDr {
    fn name(&self) -> &'static str {
        "NCA-DR"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        self.search_with_workspace(g, query, &mut QueryWorkspace::new())
    }

    fn search_with_workspace(
        &self,
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
    ) -> Result<SearchResult, SearchError> {
        run_nca::<u64>(g, query, Score::Ratio, ws)
    }
}

fn run_nca<L: Lane>(
    g: &Graph,
    query: &[NodeId],
    score: Score,
    ws: &mut QueryWorkspace,
) -> Result<SearchResult, SearchError> {
    validate_query_in(g, query, ws)?;
    // One BFS from the query set yields everything the loop needs: the
    // connected component containing the queries (the reached set), the
    // tie-break distances ("keep the node that is closely located to the
    // query nodes" = remove the farthest of the tied candidates), and the
    // query marks themselves (`dist == 0` exactly on query nodes).
    let mut dist = ws.take_dist(g.n());
    let comp = multi_source_bfs_collect(g, query, &mut dist);
    // The peel reads the rows of `comp` and m (w_G) and nothing else:
    // note them for the caller's cache fingerprint.
    ws.note_component(&comp);
    // Canonical ordering for full-tie resolution: on the identity layout
    // the ascending `iter_alive` scan with strict `better` already keeps
    // the smallest id, so the extra clause is inert there; on a mirror it
    // restores exactly that canonical winner.
    let canon = ws.canon().clone();

    let mut st = PeelState::<L>::new_in(g, &comp, TieRule::KeepEarlier, ws);
    let mut iterations = 0usize;
    loop {
        let art = articulation_nodes(st.view());
        // Candidates rank by (Λ, Θ, distance), one of Λ and Θ being
        // constant under `score`; a full tie goes to the canonical id.
        let mut best: Option<(NodeId, _)> = None;
        for v in st.view().iter_alive() {
            if dist[v as usize] == 0 || art[v as usize] {
                continue;
            }
            let key = match score {
                Score::Gain => (st.gain(v), 0.0, dist[v as usize]),
                Score::Ratio => (L::Gain::default(), st.ratio(v), dist[v as usize]),
            };
            let better = match &best {
                None => true,
                Some((bv, bkey)) => {
                    key > *bkey || (key == *bkey && canon.to_external(v) < canon.to_external(*bv))
                }
            };
            if better {
                best = Some((v, key));
            }
        }
        let Some((v, _)) = best else {
            break; // no removable node left
        };
        // Never peel below the query set itself.
        if st.size() <= query.len() {
            break;
        }
        st.remove(v);
        iterations += 1;
    }
    let (community, dm, removal_order) = st.finish_in(ws);
    ws.put_dist(dist, &comp);
    Ok(SearchResult {
        community,
        density_modularity: dm,
        removal_order,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::density_modularity;
    use dmcs_graph::{GraphBuilder, SubgraphView};

    /// Two triangles joined by a bridge 2-3.
    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn finds_query_triangle_in_barbell() {
        let g = barbell();
        let r = Nca::default().search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
        assert!((r.density_modularity - density_modularity(&g, &[0, 1, 2])).abs() < 1e-12);
    }

    #[test]
    fn result_always_contains_queries_and_is_connected() {
        let g = barbell();
        for q in 0..6u32 {
            let r = Nca::default().search(&g, &[q]).unwrap();
            assert!(r.community.contains(&q), "query {q} missing");
            let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected(), "community for {q} disconnected");
        }
    }

    #[test]
    fn multi_query_protects_both() {
        let g = barbell();
        let r = Nca::default().search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0));
        assert!(r.community.contains(&5));
        let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn nca_dr_also_finds_triangle() {
        let g = barbell();
        let r = NcaDr.search(&g, &[4]).unwrap();
        assert_eq!(r.community, vec![3, 4, 5]);
    }

    #[test]
    fn ignores_other_components() {
        // Barbell plus a far-away clique in another component.
        let mut b = GraphBuilder::new(10);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v);
        }
        for &(u, v) in &[(6, 7), (7, 8), (6, 8), (8, 9)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let r = Nca::default().search(&g, &[0]).unwrap();
        assert!(r.community.iter().all(|&v| v < 6));
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let g = barbell();
        let mut ws = QueryWorkspace::new();
        for q in 0..6u32 {
            let fresh = Nca::default().search(&g, &[q]).unwrap();
            let reused = Nca::default()
                .search_with_workspace(&g, &[q], &mut ws)
                .unwrap();
            assert_eq!(fresh, reused, "NCA query {q}");
            let fresh = NcaDr.search(&g, &[q]).unwrap();
            let reused = NcaDr.search_with_workspace(&g, &[q], &mut ws).unwrap();
            assert_eq!(fresh, reused, "NCA-DR query {q}");
        }
    }

    #[test]
    fn errors_propagate() {
        let g = barbell();
        assert!(Nca::default().search(&g, &[]).is_err());
        assert!(Nca::default().search(&g, &[99]).is_err());
    }

    /// Barbell with weights: left triangle `left`, right triangle
    /// `right`, bridge `bridge`.
    fn weighted_barbell(left: f64, right: f64, bridge: f64) -> Graph {
        let mut b = GraphBuilder::weighted(6);
        for (u, v, w) in [(0, 1, left), (1, 2, left), (0, 2, left)] {
            b.add_weighted_edge(u, v, w);
        }
        for (u, v, w) in [(3, 4, right), (4, 5, right), (3, 5, right)] {
            b.add_weighted_edge(u, v, w);
        }
        b.add_weighted_edge(2, 3, bridge);
        b.build()
    }

    #[test]
    fn weighted_nca_finds_the_query_triangle() {
        let wnca = Nca::default().weighted();
        let g = weighted_barbell(1.0, 1.0, 0.5);
        let r = wnca.search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
        assert!((r.density_modularity - g.weighted_density_modularity(&[0, 1, 2])).abs() < 1e-12);
        // A heavy triangle and a light one: from node 0, the heavy one.
        let g = weighted_barbell(5.0, 1.0, 0.5);
        assert_eq!(wnca.search(&g, &[0]).unwrap().community, vec![0, 1, 2]);
        // The right triangle massively heavier: from node 3, the right.
        let g = weighted_barbell(0.2, 10.0, 0.5);
        assert_eq!(wnca.search(&g, &[3]).unwrap().community, vec![3, 4, 5]);
        let g = weighted_barbell(1.0, 1.0, 0.5);
        let r = wnca.search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&5));
        assert!(SubgraphView::from_nodes(&g, &r.community).is_connected());
    }

    #[test]
    fn weighted_nca_on_unit_weights_is_nca() {
        let karate = dmcs_gen::karate::karate();
        for (topo, queries) in [
            (barbell(), vec![0, 1, 2, 3, 4, 5]),
            (karate, vec![0, 16, 33]),
        ] {
            let unit = topo.clone().with_unit_weights();
            for q in queries {
                let ur = Nca::default().search(&topo, &[q]).unwrap();
                let wr = Nca::default().weighted().search(&unit, &[q]).unwrap();
                assert_eq!(wr.community, ur.community, "query {q}");
                assert!((wr.density_modularity - ur.density_modularity).abs() < 1e-9);
                assert_eq!(wr, ur, "query {q}");
                // The laneless graph reads as unit weights.
                let bare = Nca::default().weighted().search(&topo, &[q]).unwrap();
                assert_eq!(bare.community, wr.community, "laneless query {q}");
            }
        }
    }

    #[test]
    fn weighted_nca_reuses_workspaces_and_rejects_bad_queries() {
        let wnca = Nca::default().weighted();
        let g = weighted_barbell(3.0, 0.5, 0.5);
        let mut ws = QueryWorkspace::new();
        for q in 0..6u32 {
            let fresh = wnca.search(&g, &[q]).unwrap();
            let reused = wnca.search_with_workspace(&g, &[q], &mut ws).unwrap();
            assert_eq!(fresh, reused, "query {q}");
        }
        assert!(wnca.search(&g, &[]).is_err());
        assert!(wnca.search(&g, &[9]).is_err());
        let mut b = GraphBuilder::weighted(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(2, 3, 1.0);
        assert!(wnca.search(&b.build(), &[0, 3]).is_err());
    }

    #[test]
    fn removal_order_covers_component_with_community() {
        // Every component node is either in the final community or was
        // removed at some point (possibly both, when the best snapshot
        // predates later removals).
        let g = barbell();
        let r = Nca::default().search(&g, &[0]).unwrap();
        let comp = dmcs_graph::traversal::component_of(&g, 0);
        for &v in &comp {
            assert!(
                r.community.contains(&v) || r.removal_order.contains(&v),
                "node {v} unaccounted for"
            );
        }
    }
}
