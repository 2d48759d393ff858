//! `Louvain` (Blondel et al. 2008) — included as an extension: the paper
//! discusses it as the strongest modularity-optimisation detector (§2.2)
//! but does not benchmark it, because detection computes *all* communities.
//! For community search we run detection and return the final community
//! containing the queries.

use crate::result_from_nodes;
use dmcs_core::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::{Graph, GraphError, NodeId};
use std::collections::{BTreeMap, HashMap};

/// Louvain community detection adapted to community search.
#[derive(Debug, Clone, Copy)]
pub struct Louvain {
    /// Maximum number of aggregation levels.
    pub max_levels: usize,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
}

impl Default for Louvain {
    fn default() -> Self {
        Louvain {
            max_levels: 10,
            max_sweeps: 20,
        }
    }
}

impl CommunitySearch for Louvain {
    fn name(&self) -> &'static str {
        "louvain"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        let labels = self.detect(g);
        let target = labels[query[0] as usize];
        if query.iter().any(|&q| labels[q as usize] != target) {
            return Err(SearchError::Graph(GraphError::NoFeasibleSolution(
                "queries fall into different Louvain communities",
            )));
        }
        let community: Vec<NodeId> = g
            .nodes()
            .filter(|&v| labels[v as usize] == target)
            .collect();
        Ok(result_from_nodes(g, community))
    }
}

impl Louvain {
    /// Full detection: per-node community labels after all levels.
    pub fn detect(&self, g: &Graph) -> Vec<u32> {
        // Working multigraph: adjacency maps with edge weights, plus
        // self-loop weights (internal edges of contracted communities).
        let n0 = g.n();
        let mut adj: Vec<HashMap<u32, f64>> = vec![HashMap::new(); n0];
        for (u, v) in g.edges() {
            *adj[u as usize].entry(v).or_insert(0.0) += 1.0;
            *adj[v as usize].entry(u).or_insert(0.0) += 1.0;
        }
        let mut self_loop = vec![0.0f64; n0];
        // node_of_original[v] = current super-node of original node v.
        let mut node_of_original: Vec<u32> = (0..n0 as u32).collect();
        let two_m = (2 * g.m()) as f64;
        if two_m == 0.0 {
            return node_of_original;
        }

        for _level in 0..self.max_levels {
            let n = adj.len();
            // Local moving.
            let mut comm: Vec<u32> = (0..n as u32).collect();
            let strength: Vec<f64> = (0..n)
                .map(|v| adj[v].values().sum::<f64>() + self_loop[v])
                .collect();
            let mut comm_tot: Vec<f64> = strength.clone();
            let mut improved_any = false;
            for _sweep in 0..self.max_sweeps {
                let mut moved = false;
                for v in 0..n {
                    let cv = comm[v];
                    // Weights from v to each neighbouring community. A
                    // BTreeMap so the candidate scan below runs in id
                    // order: near-equal gains must resolve identically on
                    // every run (the batch engine guarantees bit-identical
                    // results), and HashMap iteration order is randomized
                    // per instance.
                    let mut to_comm: BTreeMap<u32, f64> = BTreeMap::new();
                    for (&w, &wt) in &adj[v] {
                        *to_comm.entry(comm[w as usize]).or_insert(0.0) += wt;
                    }
                    let k_v = strength[v];
                    comm_tot[cv as usize] -= k_v;
                    let base = to_comm.get(&cv).copied().unwrap_or(0.0)
                        - comm_tot[cv as usize] * k_v / two_m;
                    let mut best = (cv, base);
                    for (&c, &w_vc) in &to_comm {
                        if c == cv {
                            continue;
                        }
                        let gain = w_vc - comm_tot[c as usize] * k_v / two_m;
                        if gain > best.1 + 1e-12 {
                            best = (c, gain);
                        }
                    }
                    comm_tot[best.0 as usize] += k_v;
                    if best.0 != cv {
                        comm[v] = best.0;
                        moved = true;
                        improved_any = true;
                    }
                }
                if !moved {
                    break;
                }
            }
            if !improved_any {
                break;
            }
            // Aggregate: relabel communities densely and contract.
            let mut dense: HashMap<u32, u32> = HashMap::new();
            for &c in &comm {
                let next = dense.len() as u32;
                dense.entry(c).or_insert(next);
            }
            let nc = dense.len();
            if nc == n {
                break;
            }
            let mut new_adj: Vec<HashMap<u32, f64>> = vec![HashMap::new(); nc];
            let mut new_self = vec![0.0f64; nc];
            for v in 0..n {
                let cv = dense[&comm[v]];
                new_self[cv as usize] += self_loop[v];
                for (&w, &wt) in &adj[v] {
                    let cw = dense[&comm[w as usize]];
                    if cv == cw {
                        // Each internal edge visited from both endpoints.
                        new_self[cv as usize] += wt / 2.0;
                    } else {
                        *new_adj[cv as usize].entry(cw).or_insert(0.0) += wt;
                    }
                }
            }
            for label in node_of_original.iter_mut() {
                *label = dense[&comm[*label as usize]];
            }
            adj = new_adj;
            self_loop = new_self;
        }
        node_of_original
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
    fn louvain_splits_barbell() {
        let g = barbell();
        let r = Louvain::default().search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn louvain_detects_planted_blocks() {
        let (g, comms) = dmcs_gen::sbm::planted_partition(&[25, 25], 0.5, 0.02, 9);
        let labels = Louvain::default().detect(&g);
        // Most pairs within block 0 share a label.
        let mut same = 0usize;
        let mut total = 0usize;
        for i in 0..comms[0].len() {
            for j in (i + 1)..comms[0].len() {
                total += 1;
                if labels[comms[0][i] as usize] == labels[comms[0][j] as usize] {
                    same += 1;
                }
            }
        }
        assert!(same * 10 > total * 8, "only {same}/{total} intra pairs");
    }

    #[test]
    fn louvain_errors_when_queries_split() {
        let g = barbell();
        // 0 and 5 land in different communities.
        assert!(Louvain::default().search(&g, &[0, 5]).is_err());
    }
}
