//! Density-modularity based community *detection* — the paper's stated
//! future work (§7: "we can utilize our new density modularity to solve
//! the community detection problem since the density modularity can
//! mitigate the resolution limit problem").
//!
//! The detector repeatedly runs FPA from an uncovered seed node (highest
//! remaining degree first), claims the returned community, and continues
//! on the residual graph until every node is assigned. Singleton leftovers
//! are merged into the neighbouring community with the strongest
//! connection.

use crate::{CommunitySearch, Fpa};
use dmcs_graph::{Graph, NodeId};

/// Configuration for the DM-based detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectConfig {
    /// Communities smaller than this are merged into a neighbour.
    pub min_size: usize,
    /// Use the layer-pruned FPA (faster) or the exact Algorithm 2.
    pub layer_pruning: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            min_size: 3,
            layer_pruning: false,
        }
    }
}

/// Partition the whole graph into communities by iterated DMCS. Returns
/// per-node labels (dense in `0..count`) and the community list.
pub fn detect_communities(g: &Graph, cfg: DetectConfig) -> (Vec<u32>, Vec<Vec<NodeId>>) {
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut communities: Vec<Vec<NodeId>> = Vec::new();
    let fpa = Fpa {
        layer_pruning: cfg.layer_pruning,
    };

    // Residual graph handling: rebuild the induced subgraph on uncovered
    // nodes after each extraction (simple and robust; detection is run on
    // moderate graphs).
    let mut remaining: Vec<NodeId> = g.nodes().collect();
    // Seed order: highest degree first, recomputed per round on the
    // residual graph.
    while !remaining.is_empty() {
        let (sub, map) = g.induced(&remaining);
        let seed_local = (0..sub.n() as NodeId)
            .max_by_key(|&v| sub.degree(v))
            .expect("remaining non-empty");
        if sub.degree(seed_local) == 0 {
            // Only isolated nodes left: each becomes (for now) a singleton.
            for &v in &remaining {
                let id = communities.len() as u32;
                label[v as usize] = id;
                communities.push(vec![v]);
            }
            break;
        }
        let found = match fpa.search(&sub, &[seed_local]) {
            Ok(r) => r.community,
            Err(_) => vec![seed_local],
        };
        let id = communities.len() as u32;
        let mut comm: Vec<NodeId> = found.iter().map(|&lv| map[lv as usize]).collect();
        comm.sort_unstable();
        for &v in &comm {
            label[v as usize] = id;
        }
        communities.push(comm);
        remaining.retain(|&v| label[v as usize] == u32::MAX);
    }

    // Post-pass: absorb undersized communities into the neighbour
    // community they touch the most.
    loop {
        let mut moved = false;
        for ci in 0..communities.len() {
            if communities[ci].is_empty() || communities[ci].len() >= cfg.min_size {
                continue;
            }
            // Strongest neighbouring community.
            let mut counts: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for &v in &communities[ci] {
                for &w in g.neighbors(v) {
                    let lw = label[w as usize];
                    if lw != ci as u32 {
                        *counts.entry(lw).or_insert(0) += 1;
                    }
                }
            }
            let Some((&target, _)) = counts.iter().max_by_key(|(_, &c)| c) else {
                continue; // isolated: stays a singleton community
            };
            let moved_nodes = std::mem::take(&mut communities[ci]);
            for &v in &moved_nodes {
                label[v as usize] = target;
            }
            communities[target as usize].extend(moved_nodes);
            communities[target as usize].sort_unstable();
            moved = true;
        }
        if !moved {
            break;
        }
    }

    // Compact labels.
    let mut dense = vec![u32::MAX; communities.len()];
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    for (ci, comm) in communities.into_iter().enumerate() {
        if comm.is_empty() {
            continue;
        }
        dense[ci] = out.len() as u32;
        out.push(comm);
    }
    for l in label.iter_mut() {
        *l = dense[*l as usize];
    }
    (label, out)
}

/// Sum of per-community density modularities of a partition — the
/// detection objective the paper's future work implies.
pub fn partition_density_modularity(g: &Graph, communities: &[Vec<NodeId>]) -> f64 {
    communities
        .iter()
        .map(|c| crate::measure::density_modularity(g, c))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_gen::{ring, sbm};
    use dmcs_metrics::nmi_partition;

    #[test]
    fn detects_planted_blocks() {
        let (g, comms) = sbm::planted_partition(&[25, 25, 25], 0.5, 0.02, 31);
        let (labels, found) = detect_communities(&g, DetectConfig::default());
        assert!(found.len() >= 2, "degenerate detection: {}", found.len());
        // Compare against the planted labels via partition NMI.
        let mut truth = vec![0u32; g.n()];
        for (ci, c) in comms.iter().enumerate() {
            for &v in c {
                truth[v as usize] = ci as u32;
            }
        }
        let score = nmi_partition(&labels, &truth);
        assert!(score > 0.6, "detection NMI only {score}");
    }

    #[test]
    fn detects_ring_cliques_without_merging() {
        // The resolution-limit showcase: classic-modularity detectors merge
        // adjacent cliques; the DM detector must keep them separate.
        let g = ring::ring_of_cliques(8, 5);
        let (_, found) = detect_communities(&g, DetectConfig::default());
        assert_eq!(found.len(), 8, "cliques merged: {:?}", found.len());
        for c in &found {
            assert_eq!(c.len(), 5);
        }
    }

    #[test]
    fn every_node_labelled_exactly_once() {
        let (g, _) = sbm::planted_partition(&[20, 20], 0.4, 0.05, 7);
        let (labels, found) = detect_communities(&g, DetectConfig::default());
        let total: usize = found.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.n());
        for (v, &l) in labels.iter().enumerate() {
            assert!(
                found[l as usize].contains(&(v as u32)),
                "node {v} mislabelled"
            );
        }
    }

    #[test]
    fn partition_dm_prefers_true_split() {
        let g = ring::ring_of_cliques(6, 4);
        let per_clique: Vec<Vec<u32>> = (0..6).map(|i| ring::clique_nodes(i, 4)).collect();
        let merged: Vec<Vec<u32>> = (0..3)
            .map(|i| {
                let mut c = ring::clique_nodes(2 * i, 4);
                c.extend(ring::clique_nodes(2 * i + 1, 4));
                c
            })
            .collect();
        assert!(
            partition_density_modularity(&g, &per_clique)
                > partition_density_modularity(&g, &merged)
        );
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let mut b = dmcs_graph::GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let (labels, found) = detect_communities(
            &g,
            DetectConfig {
                min_size: 1,
                ..DetectConfig::default()
            },
        );
        assert_eq!(found.iter().map(|c| c.len()).sum::<usize>(), 5);
        assert_ne!(labels[3], labels[0]);
    }
}
