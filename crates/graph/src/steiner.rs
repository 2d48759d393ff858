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

/// [`steiner_seed`] over a workspace's pooled BFS buffers. One BFS from
/// the root layers its component; each other query node then walks back
/// to the root, stepping at each hop to the neighbour one layer closer
/// with the smallest *canonical* id ([`QueryWorkspace::canon`]). The
/// path therefore depends only on the graph up to isomorphism and the
/// canonical order: a seed grown on a renumbered compute mirror with the
/// mirror's map as canon is, translated back, the seed grown on the
/// canonical graph. Returns the seed in ascending (substrate) id order.
///
/// `O(|E|)` for the BFS plus `O(Σ deg)` over the walked paths.
pub fn steiner_seed_with_workspace(
    g: &Graph,
    query: &[NodeId],
    ws: &mut QueryWorkspace,
) -> Result<Vec<NodeId>, GraphError> {
    steiner_seed_visiting(g, query, ws, |_, _| {})
}

/// [`steiner_seed_with_workspace`] that also hands `visited` the
/// workspace and every node the root's BFS reached — the root's whole
/// connected component, whose distances the seed depends on — before
/// the BFS buffers go back to the pool. `visited` runs only when a seed
/// is grown by that BFS: not for a one-node query, whose seed is the
/// node itself, and not on an error.
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
    let mut head = 0usize;
    while head < order.len() {
        let u = order[head];
        head += 1;
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                order.push(w);
            }
        }
    }
    let ext = ws.canon().external_ids();
    let canon_key = |v: NodeId| ext.map_or(v, |e| e[v as usize]);
    let mut seed: Vec<NodeId> = Vec::new();
    let mut disconnected = false;
    for &q in query {
        if dist[q as usize] == UNREACHABLE {
            disconnected = true;
            break;
        }
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
    if !disconnected {
        visited(ws, &order);
    }
    // The buffers go back to the pool on the error path too.
    ws.put_dist_order(dist, order);
    if disconnected {
        return Err(GraphError::QueryDisconnected);
    }
    seed.sort_unstable();
    seed.dedup();
    Ok(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn disconnected_queries_error() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            steiner_seed(&g, &[0, 3]),
            Err(GraphError::QueryDisconnected)
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
