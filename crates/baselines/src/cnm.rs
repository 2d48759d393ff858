//! `CNM`: the Clauset–Newman–Moore agglomerative modularity algorithm
//! (2004), adapted to community search per the paper's protocol: "it
//! iteratively merges communities until there remains a single community
//! \[...\] among the intermediate subgraphs containing all the query
//! nodes, we pick the community which has the largest density modularity".

use crate::result_from_nodes;
use dmcs_core::measure::density_modularity;
use dmcs_core::{validate_query_nodes, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::{Graph, GraphError, NodeId};
use std::collections::HashMap;

/// CNM agglomerative modularity with best-DM intermediate selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cnm;

impl CommunitySearch for Cnm {
    fn name(&self) -> &'static str {
        "CNM"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query_nodes(g, query)?;
        let n = g.n();
        let m = g.m() as f64;
        if m == 0.0 {
            return Err(SearchError::Graph(GraphError::NoFeasibleSolution(
                "graph has no edges",
            )));
        }

        // Community state: `e[i][j]` = edges between communities i and j;
        // `a[i]` = degree sum; `members` via parent-pointer union.
        let mut alive = vec![true; n];
        let mut e: Vec<HashMap<u32, f64>> = vec![HashMap::new(); n];
        for (u, v) in g.edges() {
            *e[u as usize].entry(v).or_insert(0.0) += 1.0;
            *e[v as usize].entry(u).or_insert(0.0) += 1.0;
        }
        let mut a: Vec<f64> = (0..n as NodeId).map(|v| g.degree(v) as f64).collect();
        let mut members: Vec<Vec<NodeId>> = (0..n as NodeId).map(|v| vec![v]).collect();
        // Which community currently holds each node (for query tracking).
        let mut comm_of: Vec<u32> = (0..n as u32).collect();

        let delta_q =
            |e_ij: f64, a_i: f64, a_j: f64| -> f64 { e_ij / m - a_i * a_j / (2.0 * m * m) };

        // Lazy max-heap of candidate merges.
        let mut heap: std::collections::BinaryHeap<(OrdF64, u32, u32)> =
            std::collections::BinaryHeap::new();
        for i in 0..n as u32 {
            for (&j, &eij) in &e[i as usize] {
                if i < j {
                    heap.push((OrdF64(delta_q(eij, a[i as usize], a[j as usize])), i, j));
                }
            }
        }

        // Best community containing all queries (singletons only qualify
        // for single-node queries).
        let mut best: Option<(f64, Vec<NodeId>)> = None;
        let mut consider = |members: &Vec<NodeId>| {
            if query.iter().all(|q| members.contains(q)) {
                let dm = density_modularity(g, members);
                if best.as_ref().is_none_or(|(b, _)| dm > *b) {
                    best = Some((dm, members.clone()));
                }
            }
        };
        consider(&members[query[0] as usize]);

        while let Some((OrdF64(dq), i, j)) = heap.pop() {
            let (iu, ju) = (i as usize, j as usize);
            if !alive[iu] || !alive[ju] {
                continue;
            }
            let Some(&eij) = e[iu].get(&j) else { continue };
            let fresh = delta_q(eij, a[iu], a[ju]);
            if (fresh - dq).abs() > 1e-12 {
                heap.push((OrdF64(fresh), i, j));
                continue; // stale entry
            }
            // Merge j into i.
            alive[ju] = false;
            let j_edges: Vec<(u32, f64)> = e[ju].drain().collect();
            for (x, w) in j_edges {
                let xu = x as usize;
                e[xu].remove(&j);
                if x != i {
                    *e[iu].entry(x).or_insert(0.0) += w;
                    *e[xu].entry(i).or_insert(0.0) += w;
                    let nd = delta_q(e[iu][&x], a[iu] + a[ju], a[xu]);
                    let (lo, hi) = if i < x { (i, x) } else { (x, i) };
                    heap.push((OrdF64(nd), lo, hi));
                }
            }
            e[iu].remove(&j);
            a[iu] += a[ju];
            let moved = std::mem::take(&mut members[ju]);
            for &v in &moved {
                comm_of[v as usize] = i;
            }
            members[iu].extend(moved);
            // Track the community of the queries when they unite.
            if query.iter().all(|&q| comm_of[q as usize] == i) {
                consider(&members[iu]);
            }
        }

        let (_, community) = best.ok_or(SearchError::Graph(GraphError::NoFeasibleSolution(
            "queries never merged into one community",
        )))?;
        Ok(result_from_nodes(g, community))
    }
}

/// Total-ordered f64 for the merge heap (ΔQ is never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("ΔQ is never NaN")
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
    fn cnm_recovers_triangle() {
        let g = barbell();
        let r = Cnm.search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn cnm_multi_query_spanning_bridge() {
        let g = barbell();
        let r = Cnm.search(&g, &[0, 5]).unwrap();
        // Queries only unite at the top of the dendrogram.
        assert_eq!(r.community.len(), 6);
    }

    #[test]
    fn cnm_on_planted_partition_prefers_block() {
        let (g, comms) = dmcs_gen::sbm::planted_partition(&[20, 20], 0.6, 0.02, 5);
        let q = comms[0][0];
        let r = Cnm.search(&g, &[q]).unwrap();
        // The returned community should be mostly block 0.
        let inside = r.community.iter().filter(|v| comms[0].contains(v)).count();
        assert!(inside * 2 > r.community.len(), "community leaked blocks");
    }

    #[test]
    fn cnm_rejects_empty_query() {
        let g = barbell();
        assert!(Cnm.search(&g, &[]).is_err());
    }
}
