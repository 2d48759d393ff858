//! Shortest-path-union Steiner approximation (§5.6).
//!
//! With multiple query nodes, FPA cannot guarantee that removing a farthest
//! node keeps the queries connected. The paper's remedy: compute a small
//! connected subgraph containing all queries (a Steiner-tree approximation)
//! and protect those nodes during peeling. The procedure is exactly the
//! paper's five steps: pick a query node, run single-source shortest paths,
//! keep the paths ending at the other queries, and return the union.

use crate::traversal::UNREACHABLE;
use crate::view::QueryWorkspace;
use crate::{Graph, GraphError, NodeId};

/// Steiner seed: a connected node set containing every query node, built by
/// the shortest-path-union heuristic of §5.6. The first query acts as the
/// root (the paper picks it "randomly"; we take the first for determinism —
/// callers can shuffle `query` if they want the randomized variant).
///
/// [`steiner_seed_with_workspace`] on a fresh workspace, so ties break by
/// node id.
pub fn steiner_seed(g: &Graph, query: &[NodeId]) -> Result<Vec<NodeId>, GraphError> {
    steiner_seed_with_workspace(g, query, &mut QueryWorkspace::new())
}

/// [`steiner_seed`] over a workspace's pooled BFS buffers. A BFS from
/// the root layers its neighbourhood until it has found every query
/// node; each other query node then walks back to the root, stepping at
/// each hop to the neighbour one layer closer with the smallest
/// *canonical* id ([`QueryWorkspace::canon`]). The path therefore
/// depends only on the graph up to isomorphism and the canonical order:
/// a seed grown on a renumbered compute mirror with the mirror's map as
/// canon is, translated back, the seed grown on the canonical graph.
/// Returns the seed in ascending (substrate) id order.
///
/// `O(Σ deg)` over the nodes closer to the root than the farthest query
/// node (the whole component when the query is disconnected), plus
/// `O(Σ deg)` over the walked paths.
pub fn steiner_seed_with_workspace(
    g: &Graph,
    query: &[NodeId],
    ws: &mut QueryWorkspace,
) -> Result<Vec<NodeId>, GraphError> {
    steiner_seed_visiting(g, query, ws, |_, _| {})
}

/// Marks a query node the root's BFS has not found yet. Any `dist` at or
/// above it means "not found", so the BFS tests one comparison per edge.
const PENDING: u32 = UNREACHABLE - 1;

/// [`steiner_seed_with_workspace`] that also hands `visited` the
/// workspace and every node the root's BFS found, before the BFS
/// buffers go back to the pool. With D the distance of the farthest
/// query node, the BFS stops once it has scanned every node closer than
/// D, so it has found exactly the nodes within distance D of the root
/// (whatever the id order): the seed depends only on their distances
/// and on the rows of the nodes it scanned. `visited` runs only when a
/// seed is grown by that BFS: not for a one-node query, whose seed is
/// the node itself, and not on an error (a disconnected query walks the
/// root's whole component first).
pub fn steiner_seed_visiting(
    g: &Graph,
    query: &[NodeId],
    ws: &mut QueryWorkspace,
    visited: impl FnOnce(&mut QueryWorkspace, &[NodeId]),
) -> Result<Vec<NodeId>, GraphError> {
    for &q in query {
        if q as usize >= g.n() {
            return Err(GraphError::NodeOutOfRange(q));
        }
    }
    let Some(&root) = query.first() else {
        return Ok(Vec::new());
    };
    if query.len() == 1 {
        return Ok(vec![root]);
    }
    let (mut dist, mut order) = ws.take_dist_order(g.n());
    dist[root as usize] = 0;
    order.push(root);
    // Each distinct query node other than the root is pending until found.
    let mut pending = 0usize;
    for &q in query {
        if dist[q as usize] == UNREACHABLE {
            dist[q as usize] = PENDING;
            pending += 1;
        }
    }
    // One layer per pass: the layer that finds the last pending node is
    // scanned to its end, so the next layer is complete before the stop.
    let mut start = 0usize;
    while pending > 0 && start < order.len() {
        let end = order.len();
        for head in start..end {
            let u = order[head];
            let du = dist[u as usize];
            for &w in g.neighbors(u) {
                let dw = dist[w as usize];
                if dw >= PENDING {
                    pending -= usize::from(dw == PENDING);
                    dist[w as usize] = du + 1;
                    order.push(w);
                }
            }
        }
        start = end;
    }
    if pending > 0 {
        // Unfound query nodes are not in `order`, the reset list.
        for &q in query {
            if dist[q as usize] == PENDING {
                dist[q as usize] = UNREACHABLE;
            }
        }
        ws.put_dist_order(dist, order);
        return Err(GraphError::QueryDisconnected);
    }
    let ext = ws.canon().external_ids();
    let canon_key = |v: NodeId| ext.map_or(v, |e| e[v as usize]);
    let mut seed: Vec<NodeId> = Vec::new();
    for &q in query {
        let mut v = q;
        seed.push(v);
        while dist[v as usize] > 0 {
            let closer = dist[v as usize] - 1;
            let Some(parent) = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| dist[w as usize] == closer)
                .min_by_key(|&w| canon_key(w))
            else {
                break; // unreachable: every BFS node has a parent one layer up
            };
            v = parent;
            seed.push(v);
        }
    }
    visited(ws, &order);
    ws.put_dist_order(dist, order);
    seed.sort_unstable();
    seed.dedup();
    Ok(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs_distances;
    use crate::{GraphBuilder, SubgraphView};

    #[test]
    fn single_query_is_itself() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(steiner_seed(&g, &[2]).unwrap(), vec![2]);
    }

    #[test]
    fn seed_connects_queries_on_path() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let seed = steiner_seed(&g, &[0, 4]).unwrap();
        assert_eq!(seed, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seed_is_connected_and_contains_queries() {
        // Grid-ish graph with three spread-out queries.
        let g = GraphBuilder::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (0, 3),
                (3, 6),
                (1, 4),
                (4, 7),
                (2, 5),
                (5, 8),
            ],
        );
        let query = [0, 8, 2];
        let seed = steiner_seed(&g, &query).unwrap();
        for q in query {
            assert!(seed.contains(&q));
        }
        let view = SubgraphView::from_nodes(&g, &seed);
        assert!(view.is_connected());
    }

    #[test]
    fn ties_break_by_canonical_id() {
        // Two shortest 0→3 paths, through 1 or through 2.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(steiner_seed(&g, &[0, 3]).unwrap(), vec![0, 1, 3]);
        // A canon that ranks 2 before 1 takes the other path.
        let mut ws = QueryWorkspace::new();
        ws.set_canon(crate::layout::NodeMap::from_order(&[0, 2, 1, 3]));
        assert_eq!(
            steiner_seed_with_workspace(&g, &[0, 3], &mut ws).unwrap(),
            vec![0, 2, 3]
        );
    }

    /// The nodes `steiner_seed_visiting` hands its callback for `query`,
    /// sorted; `None` when it does not call it.
    fn found(g: &Graph, query: &[NodeId]) -> Option<Vec<NodeId>> {
        let mut got = None;
        let _ = steiner_seed_visiting(g, query, &mut QueryWorkspace::new(), |_, nodes| {
            let mut nodes = nodes.to_vec();
            nodes.sort_unstable();
            got = Some(nodes);
        });
        got
    }

    /// The nodes within distance D of `query[0]`, D being the distance
    /// of the farthest query node.
    fn ball(g: &Graph, query: &[NodeId]) -> Vec<NodeId> {
        let dist = bfs_distances(g, query[0]);
        let reach = query.iter().map(|&q| dist[q as usize]).max().unwrap();
        (0..g.n() as NodeId)
            .filter(|&v| dist[v as usize] <= reach)
            .collect()
    }

    #[test]
    fn the_walk_finds_exactly_the_nodes_within_the_farthest_query_distance() {
        let edges: Vec<(NodeId, NodeId)> = (0..9).map(|v| (v, v + 1)).collect();
        let path = GraphBuilder::from_edges(10, &edges);
        assert_eq!(found(&path, &[0, 3]), Some(vec![0, 1, 2, 3]));
        assert_eq!(found(&path, &[5, 3, 7]), Some(vec![3, 4, 5, 6, 7]));
        // A ladder: rails 0..6 and 6..12, rungs i–(i + 6). From 0, node
        // 2 finds 3 before 8, which lies at the same distance 3.
        let mut edges: Vec<(NodeId, NodeId)> = (0..6).map(|i| (i, i + 6)).collect();
        edges.extend((0..5).flat_map(|i| [(i, i + 1), (i + 6, i + 7)]));
        let ladder = GraphBuilder::from_edges(12, &edges);
        for query in [&[0, 3][..], &[0, 8], &[2, 11], &[7, 5, 1]] {
            assert_eq!(
                found(&ladder, query),
                Some(ball(&ladder, query)),
                "{query:?}"
            );
        }
        assert_eq!(found(&ladder, &[0, 3]), Some(vec![0, 1, 2, 3, 6, 7, 8]));
        // A repeated query node counts once.
        assert_eq!(found(&path, &[0, 3, 3]), Some(vec![0, 1, 2, 3]));
        assert_eq!(found(&path, &[0, 0, 2]), Some(vec![0, 1, 2]));
        assert_eq!(found(&path, &[4, 4]), Some(vec![4]));
        assert_eq!(steiner_seed(&path, &[4, 4]).unwrap(), vec![4]);
    }

    #[test]
    fn disconnected_queries_error() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            steiner_seed(&g, &[0, 3]),
            Err(GraphError::QueryDisconnected)
        );
        // No callback, and the pooled distance buffer comes back clean
        // (checked in debug builds), unfound query nodes included.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut ws = QueryWorkspace::new();
        let mut called = false;
        let got = steiner_seed_visiting(&g, &[0, 4, 5, 4], &mut ws, |_, _| called = true);
        assert_eq!(got, Err(GraphError::QueryDisconnected));
        assert!(!called);
        assert_eq!(
            steiner_seed_with_workspace(&g, &[3, 5], &mut ws),
            Ok(vec![3, 4, 5])
        );
    }

    #[test]
    fn out_of_range_error() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        assert_eq!(
            steiner_seed(&g, &[0, 9]),
            Err(GraphError::NodeOutOfRange(9))
        );
    }

    #[test]
    fn empty_query_is_empty_seed() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        assert_eq!(steiner_seed(&g, &[]).unwrap(), Vec::<NodeId>::new());
    }
}
