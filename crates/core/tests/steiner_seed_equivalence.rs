//! The Steiner seed (§5.6) walks each query node back to the root of one
//! BFS, stepping to the neighbour one layer closer with the smallest
//! canonical id. This test pins it to the formulation it replaced: the
//! union of the root-to-query paths of a unit-weight Dijkstra, whose
//! `(distance, id)` heap and strict relaxation give every node its
//! smallest-id parent. On the bfs mirror, with the mirror's map as
//! canon, the seed translated back to external ids must equal that same
//! canonical seed. Disconnected queries must fail on both substrates.

use dmcs_gen::{lfr, sbm};
use dmcs_graph::steiner::steiner_seed_with_workspace;
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{ComputeGraph, Graph, GraphError, LayoutPolicy, NodeId};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Unit-weight Dijkstra from `source` with parent pointers: `parent[s]
/// == s` for the source, `NodeId::MAX` for unreachable nodes. The heap
/// settles equal distances in id order and relaxation is strict, so a
/// node's parent is its smallest-id neighbour one hop closer.
fn dijkstra_parents(g: &Graph, source: NodeId) -> Vec<NodeId> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut parent = vec![NodeId::MAX; g.n()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    parent[source as usize] = source;
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for &v in g.neighbors(u) {
            if d + 1 < dist[v as usize] {
                dist[v as usize] = d + 1;
                parent[v as usize] = u;
                heap.push(Reverse((d + 1, v)));
            }
        }
    }
    parent
}

/// The tree path from the source to `target`, or `None` when `target`
/// is unreachable.
fn path_to(parent: &[NodeId], target: NodeId) -> Option<Vec<NodeId>> {
    if parent[target as usize] == NodeId::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while parent[cur as usize] != cur {
        cur = parent[cur as usize];
        path.push(cur);
    }
    Some(path)
}

/// The Dijkstra-tree seed, rooted at the first query node; `None` when
/// some query node is unreachable from it.
fn oracle(g: &Graph, query: &[NodeId]) -> Option<Vec<NodeId>> {
    let parent = dijkstra_parents(g, query[0]);
    let mut seed = Vec::new();
    for &q in query {
        seed.extend(path_to(&parent, q)?);
    }
    seed.sort_unstable();
    seed.dedup();
    Some(seed)
}

/// Seed each query (indices reduced modulo `n`) on `g` under the identity
/// canon and on its bfs mirror, one warm workspace per substrate, and
/// compare both with the oracle.
fn check_both_substrates(g: &Graph, picks: &[Vec<usize>]) -> Result<(), TestCaseError> {
    let n = g.n();
    let mirror = ComputeGraph::build(g, LayoutPolicy::Bfs).expect("bfs builds a mirror");
    let map = mirror.map();
    let mut canonical_ws = QueryWorkspace::new();
    let mut mirror_ws = QueryWorkspace::new();
    mirror_ws.set_canon(map.clone());
    for p in picks {
        let query: Vec<NodeId> = p.iter().map(|&i| (i % n) as NodeId).collect();
        let want = oracle(g, &query).ok_or(GraphError::QueryDisconnected);
        let got = steiner_seed_with_workspace(g, &query, &mut canonical_ws);
        prop_assert_eq!(&got, &want, "query {:?}", query);

        let internal: Vec<NodeId> = query.iter().map(|&v| map.to_internal(v)).collect();
        let on_mirror =
            steiner_seed_with_workspace(mirror.graph(), &internal, &mut mirror_ws).map(|seed| {
                let mut external: Vec<NodeId> = seed.iter().map(|&v| map.to_external(v)).collect();
                external.sort_unstable();
                external
            });
        prop_assert_eq!(&on_mirror, &want, "query {:?} on the mirror", query);
    }
    Ok(())
}

/// 2–4 query nodes per query, as indices reduced modulo `n`.
fn query_picks() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..100_000, 2..5), 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Dense blocks give many equal-length paths, so parent ties are
    // common; a zero `p_out` draw leaves the blocks disconnected.
    #[test]
    fn steiner_seed_matches_dijkstra_oracle_on_sbm(
        seed in 0u64..10_000,
        p_out_permille in 0u32..30,
        picks in query_picks(),
    ) {
        let p_out = f64::from(p_out_permille) / 1000.0;
        let (g, _) = sbm::planted_partition(&[18, 14, 12, 9, 7], 0.35, p_out, seed);
        check_both_substrates(&g, &picks)?;
    }

    #[test]
    fn steiner_seed_matches_dijkstra_oracle_on_lfr(seed in 0u64..10_000, picks in query_picks()) {
        let cfg = lfr::LfrConfig {
            n: 120,
            avg_degree: 5.0,
            max_degree: 20,
            min_community: 8,
            max_community: 30,
            seed,
            ..lfr::LfrConfig::default()
        };
        check_both_substrates(&lfr::generate(&cfg).graph, &picks)?;
    }
}
