//! `lpa`: label-propagation community search (Raghavan et al. 2007,
//! adapted to the query-constrained setting).
//!
//! Asynchronous label propagation with a seeded RNG: every node starts
//! with its own label; nodes are visited in random order and adopt the
//! most frequent label among their neighbours (random tie-breaks) until a
//! sweep changes nothing or the round cap is hit. The returned community
//! is the connected component — within the union of the query nodes'
//! label blocks — that contains the queries. LPA is a popular
//! parameter-free detection heuristic, which makes it a natural
//! extension baseline next to CNM/GN/Louvain: like them it must pay the
//! cost of labelling the whole graph before it can answer one query.

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::{Graph, NodeId, SubgraphView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Label-propagation community search.
#[derive(Debug, Clone, Copy)]
pub struct Lpa {
    /// RNG seed — LPA's visit order and tie-breaks are randomized, and a
    /// fixed seed keeps experiments reproducible.
    pub seed: u64,
    /// Maximum number of full propagation sweeps (default 100; LFR-scale
    /// graphs converge in well under 20).
    pub max_rounds: usize,
}

impl Default for Lpa {
    fn default() -> Self {
        Lpa {
            seed: 0x1abe1,
            max_rounds: 100,
        }
    }
}

impl Lpa {
    /// LPA with an explicit seed.
    pub fn new(seed: u64) -> Self {
        Lpa {
            seed,
            ..Lpa::default()
        }
    }

    /// Run plain label propagation over the whole graph and return the
    /// final label of every node (labels are arbitrary node ids).
    pub fn propagate(&self, g: &Graph) -> Vec<NodeId> {
        let n = g.n();
        let mut labels: Vec<NodeId> = (0..n as NodeId).collect();
        if n == 0 {
            return labels;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        // Scratch: per-label counts for the current neighbourhood, reset
        // lazily via the touched list.
        let mut count: Vec<u32> = vec![0; n];
        let mut touched: Vec<NodeId> = Vec::new();
        for _ in 0..self.max_rounds {
            order.shuffle(&mut rng);
            let mut changed = false;
            for &v in &order {
                if g.degree(v) == 0 {
                    continue;
                }
                touched.clear();
                let mut best_count = 0u32;
                let mut best: Vec<NodeId> = Vec::new();
                for &w in g.neighbors(v) {
                    let l = labels[w as usize];
                    if count[l as usize] == 0 {
                        touched.push(l);
                    }
                    count[l as usize] += 1;
                    let c = count[l as usize];
                    match c.cmp(&best_count) {
                        std::cmp::Ordering::Greater => {
                            best_count = c;
                            best.clear();
                            best.push(l);
                        }
                        std::cmp::Ordering::Equal => best.push(l),
                        std::cmp::Ordering::Less => {}
                    }
                }
                // `best` may hold stale entries whose count later grew;
                // keep only true argmax labels.
                best.retain(|&l| count[l as usize] == best_count);
                best.dedup();
                for &l in &touched {
                    count[l as usize] = 0;
                }
                let cur = labels[v as usize];
                if best.contains(&cur) {
                    continue; // keep the current label on ties (damping)
                }
                let new = if best.len() == 1 {
                    best[0]
                } else {
                    best[rng.gen_range(0..best.len())]
                };
                labels[v as usize] = new;
                changed = true;
            }
            if !changed {
                break;
            }
        }
        labels
    }
}

impl CommunitySearch for Lpa {
    fn name(&self) -> &'static str {
        "lpa"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        let labels = self.propagate(g);
        // Union of the query nodes' label blocks ...
        let mut wanted = vec![false; g.n()];
        for &q in query {
            wanted[labels[q as usize] as usize] = true;
        }
        let mut members: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|&v| wanted[labels[v as usize] as usize])
            .collect();
        // ... plus, if the union is disconnected, the bridge nodes of the
        // shortest-path Steiner seed, so the result is always connected.
        let mut view = SubgraphView::from_nodes(g, &members);
        let connected = query.iter().all(|&q| view.contains(q)) && {
            view.retain_component(query[0]);
            query.iter().all(|&q| view.contains(q))
        };
        if connected {
            members.retain(|&v| view.contains(v));
        } else {
            let seed = dmcs_graph::steiner::steiner_seed(g, query).map_err(SearchError::Graph)?;
            members.extend_from_slice(&seed);
            members.sort_unstable();
            members.dedup();
            let mut v2 = SubgraphView::from_nodes(g, &members);
            v2.retain_component(query[0]);
            members.retain(|&v| v2.contains(v));
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
    fn separates_the_barbell_triangles() {
        let g = barbell();
        let labels = Lpa::default().propagate(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
    }

    #[test]
    fn search_returns_query_block() {
        let g = barbell();
        let r = Lpa::default().search(&g, &[0]).unwrap();
        assert!(r.community.contains(&0));
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn multi_query_across_blocks_stays_connected() {
        let g = barbell();
        let r = Lpa::default().search(&g, &[0, 5]).unwrap();
        assert!(r.community.contains(&0) && r.community.contains(&5));
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = dmcs_gen::karate::karate();
        let a = Lpa::new(7).search(&g, &[0]).unwrap();
        let b = Lpa::new(7).search(&g, &[0]).unwrap();
        assert_eq!(a.community, b.community);
    }

    #[test]
    fn recovers_planted_partition_blocks() {
        // Two dense 20-node blocks with a handful of cross edges.
        let (g, _comms) = dmcs_gen::sbm::planted_partition(&[20, 20], 0.8, 0.02, 99);
        let labels = Lpa::new(3).propagate(&g);
        // Count agreement inside block 0.
        let l0 = labels[0];
        let agree = (0..20).filter(|&v| labels[v] == l0).count();
        assert!(agree >= 16, "block 0 agreement only {agree}/20");
    }

    #[test]
    fn errors_propagate() {
        let g = barbell();
        assert!(Lpa::default().search(&g, &[]).is_err());
        assert!(Lpa::default().search(&g, &[77]).is_err());
        let g2 = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(Lpa::default().search(&g2, &[0, 3]).is_err());
    }

    #[test]
    fn isolated_node_keeps_own_label() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2)]);
        let labels = Lpa::default().propagate(&g);
        assert_eq!(labels[3], 3);
    }
}
