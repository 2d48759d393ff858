//! `wu2015`: robust local community detection via query-biased density
//! (Wu, Jin, Li & Zhang, VLDB 2015) — the greedy node-deletion algorithm
//! with the decay parameter `η = 0.5` the paper uses.
//!
//! Query-biased density: `ρ(S) = l_S / Σ_{v∈S} π(v)` with the node penalty
//! `π(v) = (1/η)^{dist(v, Q)}` — nodes far from the query are exponentially
//! expensive to keep, which is exactly the bias the DMCS paper critiques
//! ("it prefers the nodes that are close to the query node" and "may find
//! a low-quality result if a query node is not in the center of a
//! community", §2.1).
//!
//! Greedy deletion: repeatedly remove the non-query, non-articulation node
//! whose removal maximises ρ; return the best intermediate subgraph.

use crate::result_from_nodes;
use dmcs_core::{query_component, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::articulation::articulation_nodes;
use dmcs_graph::traversal::multi_source_bfs;
use dmcs_graph::{Graph, NodeId, SubgraphView};

/// Query-biased density greedy node deletion.
#[derive(Debug, Clone, Copy)]
pub struct Wu2015 {
    /// Distance decay η ∈ (0, 1]; the penalty grows as `(1/η)^dist`.
    pub eta: f64,
    /// Cap on deletions (None = peel to the end).
    pub max_iterations: Option<usize>,
}

impl Default for Wu2015 {
    fn default() -> Self {
        Wu2015 {
            eta: 0.5,
            max_iterations: None,
        }
    }
}

impl CommunitySearch for Wu2015 {
    fn name(&self) -> &'static str {
        "wu2015"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        let comp = query_component(g, query)?;
        let dist = multi_source_bfs(g, query);
        // Penalties, with the exponent clamped so π stays finite.
        let decay = 1.0 / self.eta.clamp(1e-6, 1.0);
        let pi = |v: NodeId| -> f64 { decay.powi(dist[v as usize].min(64) as i32) };

        let mut is_query = vec![false; g.n()];
        for &q in query {
            is_query[q as usize] = true;
        }

        let mut view = SubgraphView::from_nodes(g, &comp);
        let mut pi_sum: f64 = comp.iter().map(|&v| pi(v)).sum();
        let rho = |l: u64, p: f64| -> f64 {
            if p <= 0.0 {
                0.0
            } else {
                l as f64 / p
            }
        };

        let mut removed: Vec<NodeId> = Vec::new();
        let mut best_rho = rho(view.m_alive(), pi_sum);
        let mut best_prefix = 0usize;
        let cap = self.max_iterations.unwrap_or(usize::MAX);

        while removed.len() < cap {
            if view.n_alive() <= query.len() {
                break;
            }
            let art = articulation_nodes(&view);
            // Best removal: maximise the post-removal ρ.
            let mut best: Option<(NodeId, f64)> = None;
            for v in view.iter_alive() {
                if is_query[v as usize] || art[v as usize] {
                    continue;
                }
                let l_after = view.m_alive() - view.local_degree(v) as u64;
                let r = rho(l_after, pi_sum - pi(v));
                if best.as_ref().is_none_or(|&(_, br)| r > br) {
                    best = Some((v, r));
                }
            }
            let Some((v, r)) = best else { break };
            view.remove(v);
            pi_sum -= pi(v);
            removed.push(v);
            if r > best_rho {
                best_rho = r;
                best_prefix = removed.len();
            }
        }

        let dead: std::collections::HashSet<NodeId> =
            removed[..best_prefix].iter().copied().collect();
        let community: Vec<NodeId> = comp.iter().copied().filter(|v| !dead.contains(v)).collect();
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
    fn keeps_query_neighbourhood() {
        let g = barbell();
        let r = Wu2015::default().search(&g, &[0]).unwrap();
        assert!(r.community.contains(&0));
        // The far triangle is penalised 4-8x: it should be peeled away.
        assert!(
            !r.community.contains(&5),
            "far node survived: {:?}",
            r.community
        );
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn query_position_bias() {
        // The documented weakness: an off-centre query node drags the
        // community towards itself. Query at the bridge keeps both sides
        // closer than a corner query does.
        let g = barbell();
        let centre = Wu2015::default().search(&g, &[2]).unwrap();
        assert!(centre.community.contains(&2));
    }

    #[test]
    fn multi_query_keeps_all() {
        let g = barbell();
        let r = Wu2015::default().search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&5));
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn eta_one_means_no_bias() {
        // η = 1 -> uniform penalties: ρ degenerates to l/|S| (plain
        // density); the denser triangle side should win from any query.
        let g = barbell();
        let r = Wu2015 {
            eta: 1.0,
            max_iterations: None,
        }
        .search(&g, &[0])
        .unwrap();
        assert!(r.community.contains(&0));
    }

    #[test]
    fn errors_on_disconnected_queries() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(Wu2015::default().search(&g, &[0, 3]).is_err());
    }
}
