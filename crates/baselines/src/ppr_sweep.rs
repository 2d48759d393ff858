//! `ppr`: personalized-PageRank sweep-cut community search (the local
//! clustering recipe of Andersen, Chung & Lang 2006, in its textbook
//! power-iteration form).
//!
//! Rank all nodes by degree-normalised personalized-PageRank score from
//! the query seed, sweep prefixes of that order, and return the prefix
//! with the lowest conductance that contains every query node (restricted
//! to its connected component around the queries). This is the standard
//! "random-walk" family of local community detection — a natural
//! extension baseline: like FPA it is local and parameter-light, but it
//! optimises conductance rather than density modularity, so comparing
//! the two on DM and on NMI shows what the objective (not the search
//! strategy) buys.

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::pagerank::{personalized_pagerank, PageRankConfig};
use dmcs_graph::{Graph, NodeId, SubgraphView};

/// PPR sweep-cut community search.
#[derive(Debug, Clone, Copy, Default)]
pub struct PprSweep {
    /// Teleport probability `1 − α` is the locality knob; the default
    /// damping 0.85 matches the PageRank convention.
    pub config: PageRankConfig,
    /// Cap on the sweep prefix length (0 = no cap). Bounding the sweep is
    /// what keeps the method "local" on large graphs.
    pub max_size: usize,
}

impl CommunitySearch for PprSweep {
    fn name(&self) -> &'static str {
        "ppr"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        if g.m() == 0 {
            // Degenerate: no edges — the queries alone are the community.
            return Ok(result_from_nodes(g, query.to_vec()));
        }

        let ppr = personalized_pagerank(g, query, self.config);
        // Degree-normalised order (the sweep order of ACL); queries are
        // force-ranked first so every prefix contains them.
        let mut order: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|&v| g.degree(v) > 0 || query.contains(&v))
            .collect();
        let score = |v: NodeId| -> f64 {
            let d = g.degree(v).max(1) as f64;
            ppr[v as usize] / d
        };
        order.sort_by(|&a, &b| {
            let (qa, qb) = (query.contains(&a), query.contains(&b));
            qb.cmp(&qa)
                .then_with(|| score(b).partial_cmp(&score(a)).expect("PPR scores not NaN"))
                .then_with(|| a.cmp(&b))
        });
        let cap = if self.max_size == 0 {
            order.len()
        } else {
            self.max_size.max(query.len()).min(order.len())
        };

        // Sweep: maintain (volume, cut) incrementally; record the best
        // conductance prefix of size >= |Q|.
        let two_m = (2 * g.m()) as f64;
        let mut in_set = vec![false; g.n()];
        let (mut vol, mut cut) = (0u64, 0i64);
        let mut best = (f64::INFINITY, query.len());
        for (i, &v) in order.iter().take(cap).enumerate() {
            let deg = g.degree(v) as u64;
            let inside = g
                .neighbors(v)
                .iter()
                .filter(|&&w| in_set[w as usize])
                .count() as i64;
            vol += deg;
            cut += deg as i64 - 2 * inside;
            in_set[v as usize] = true;
            if i + 1 < query.len() {
                continue; // prefixes must contain all queries
            }
            let denom = (vol as f64).min(two_m - vol as f64);
            if denom <= 0.0 {
                continue;
            }
            let phi = cut.max(0) as f64 / denom;
            if phi < best.0 {
                best = (phi, i + 1);
            }
        }

        // The best prefix may be disconnected (PPR mass can jump hubs):
        // keep the component holding the queries.
        let members: Vec<NodeId> = order[..best.1].to_vec();
        let mut view = SubgraphView::from_nodes(g, &members);
        view.retain_component(query[0]);
        if !query.iter().all(|&q| view.contains(q)) {
            // Fall back to the full prefix component of q0 plus a Steiner
            // seed when the sweep split the queries.
            let seed = dmcs_graph::steiner::steiner_seed(g, query)?;
            let mut extended = members;
            extended.extend_from_slice(&seed);
            extended.sort_unstable();
            extended.dedup();
            let mut v2 = SubgraphView::from_nodes(g, &extended);
            v2.retain_component(query[0]);
            return Ok(result_from_nodes(g, v2.alive_nodes()));
        }
        Ok(result_from_nodes(g, view.alive_nodes()))
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
    fn finds_the_query_triangle() {
        let g = barbell();
        let r = PprSweep::default().search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn contract_holds_on_karate() {
        let g = dmcs_gen::karate::karate();
        for q in [0u32, 16, 33] {
            let r = PprSweep::default().search(&g, &[q]).unwrap();
            assert!(r.community.contains(&q), "query {q}");
            let view = SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected());
            assert!(r.community.len() < 34, "sweep should not return everything");
        }
    }

    #[test]
    fn multi_query_spans_both_sides() {
        let g = barbell();
        let r = PprSweep::default().search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&5));
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn max_size_caps_the_sweep() {
        let g = dmcs_gen::karate::karate();
        let capped = PprSweep {
            max_size: 5,
            ..Default::default()
        };
        let r = capped.search(&g, &[0]).unwrap();
        assert!(r.community.len() <= 5);
        assert!(r.community.contains(&0));
    }

    #[test]
    fn recovers_planted_block() {
        let (g, comms) = dmcs_gen::sbm::planted_partition(&[20, 20], 0.7, 0.03, 5);
        let q = comms[0][0];
        let r = PprSweep::default().search(&g, &[q]).unwrap();
        let inside = r.community.iter().filter(|&&v| (v as usize) < 20).count();
        assert!(
            inside as f64 / r.community.len() as f64 > 0.8,
            "sweep community should live in the query's block ({inside}/{})",
            r.community.len()
        );
    }

    #[test]
    fn errors_propagate() {
        let g = barbell();
        assert!(PprSweep::default().search(&g, &[]).is_err());
        assert!(PprSweep::default().search(&g, &[77]).is_err());
        let g2 = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(PprSweep::default().search(&g2, &[0, 3]).is_err());
    }

    #[test]
    fn edgeless_graph_returns_queries() {
        let g = GraphBuilder::new(3).build();
        let r = PprSweep::default().search(&g, &[1]).unwrap();
        assert_eq!(r.community, vec![1]);
    }
}
