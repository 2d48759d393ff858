//! Query-set sampling per the paper's protocol (§6.1):
//!
//! > "For all the networks, we pick 20 sets (10 sets for small-sized
//! > datasets) of query nodes from the result of (k+1)-truss so that the
//! > query nodes are more likely to be located in a meaningful community.
//! > If there are over 20 ground-truth communities, we randomly choose 20
//! > communities and then randomly pick a query set from each community.
//! > If there are fewer than 20 ground-truth communities, we pick query
//! > sets such that they are most equally generated from each community."

use crate::datasets::Dataset;
use dmcs_graph::truss::{node_trussness, truss_decomposition, EdgeIndex};
use dmcs_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sample `num_sets` query sets of `set_size` nodes each. Every set is
/// drawn from one ground-truth community; within the community, nodes in
/// the `(k+1)`-truss (default `k = 4` ⇒ 5-truss) are preferred, falling
/// back to the highest-trussness nodes available. Returns the query sets
/// together with the index of the ground-truth community each came from.
pub fn sample_query_sets(
    ds: &Dataset,
    num_sets: usize,
    set_size: usize,
    truss_k: u32,
    seed: u64,
) -> Vec<(Vec<NodeId>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &ds.graph;
    let idx = EdgeIndex::new(g);
    let truss = truss_decomposition(g, &idx);
    let trussness: Vec<u32> = g
        .nodes()
        .map(|v| node_trussness(g, &idx, &truss, v))
        .collect();

    // Pick which communities to draw from.
    let eligible: Vec<usize> = (0..ds.communities.len())
        .filter(|&c| ds.communities[c].len() >= set_size)
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(num_sets);
    if eligible.len() >= num_sets {
        let mut pool = eligible.clone();
        pool.shuffle(&mut rng);
        chosen.extend(pool.into_iter().take(num_sets));
    } else {
        // Fewer communities than sets: spread as equally as possible.
        for i in 0..num_sets {
            chosen.push(eligible[i % eligible.len()]);
        }
    }

    let want = truss_k + 1;
    chosen
        .into_iter()
        .filter_map(|c| {
            let comm = &ds.communities[c];
            // Preferred pool: nodes of the (k+1)-truss inside the community.
            let mut pool: Vec<NodeId> = comm
                .iter()
                .copied()
                .filter(|&v| trussness[v as usize] >= want)
                .collect();
            if pool.len() < set_size {
                // Fallback: take the highest-trussness nodes.
                let mut by_truss: Vec<NodeId> = comm.clone();
                by_truss.sort_by_key(|&v| std::cmp::Reverse(trussness[v as usize]));
                pool = by_truss;
            }
            if pool.len() < set_size {
                return None;
            }
            pool.shuffle(&mut rng);
            let mut q: Vec<NodeId> = pool.into_iter().take(set_size).collect();
            q.sort_unstable();
            Some((q, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::karate_dataset;

    #[test]
    fn queries_come_from_their_community() {
        let ds = karate_dataset();
        let sets = sample_query_sets(&ds, 10, 1, 4, 7);
        assert!(!sets.is_empty());
        for (q, c) in &sets {
            assert_eq!(q.len(), 1);
            assert!(ds.communities[*c].contains(&q[0]));
        }
    }

    #[test]
    fn spreads_over_communities_when_few() {
        let ds = karate_dataset();
        let sets = sample_query_sets(&ds, 10, 1, 4, 7);
        let from0 = sets.iter().filter(|(_, c)| *c == 0).count();
        let from1 = sets.iter().filter(|(_, c)| *c == 1).count();
        assert_eq!(from0, 5);
        assert_eq!(from1, 5);
    }

    #[test]
    fn multi_node_sets_have_requested_size() {
        let ds = karate_dataset();
        let sets = sample_query_sets(&ds, 4, 3, 4, 9);
        for (q, _) in &sets {
            assert_eq!(q.len(), 3);
            // sorted and unique
            let mut s = q.clone();
            s.dedup();
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = karate_dataset();
        assert_eq!(
            sample_query_sets(&ds, 6, 2, 4, 5),
            sample_query_sets(&ds, 6, 2, 4, 5)
        );
    }

    #[test]
    fn oversized_sets_are_skipped() {
        let ds = karate_dataset();
        // set_size larger than both factions -> no sets.
        let sets = sample_query_sets(&ds, 5, 30, 4, 5);
        assert!(sets.is_empty());
    }
}
