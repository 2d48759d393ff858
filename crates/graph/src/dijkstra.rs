//! Weighted single- and multi-source shortest paths (binary-heap Dijkstra).
//!
//! The DMCS paper's graphs are unweighted (BFS suffices and is what the
//! peeling algorithms use), but Definition 2 states density modularity for
//! *weighted* graphs, and the §5.5 complexity analysis is phrased in terms
//! of Dijkstra, so the substrate provides the weighted machinery too.

use crate::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-edge weight lookup. Implemented for closures.
pub trait EdgeWeights {
    /// Weight of edge `(u, v)`; must be symmetric and non-negative.
    fn weight(&self, u: NodeId, v: NodeId) -> f64;
}

impl<F: Fn(NodeId, NodeId) -> f64> EdgeWeights for F {
    fn weight(&self, u: NodeId, v: NodeId) -> f64 {
        self(u, v)
    }
}

/// Uniform weight 1.0 on every edge — makes Dijkstra agree with BFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitWeights;

impl EdgeWeights for UnitWeights {
    fn weight(&self, _: NodeId, _: NodeId) -> f64 {
        1.0
    }
}

/// Ordered f64 wrapper so distances can live in a `BinaryHeap`. Weights are
/// finite and non-negative by contract, so total ordering via
/// `partial_cmp().unwrap()` is safe.
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
        self.0.partial_cmp(&other.0).expect("NaN edge weight")
    }
}

/// Multi-source Dijkstra. Returns `dist[v] = min_{s} d(s, v)`;
/// unreachable nodes get `f64::INFINITY`.
pub fn multi_source_dijkstra<W: EdgeWeights>(g: &Graph, sources: &[NodeId], w: &W) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.n()];
    let mut heap: BinaryHeap<Reverse<(OrdF64, NodeId)>> = BinaryHeap::new();
    for &s in sources {
        if dist[s as usize] > 0.0 {
            dist[s as usize] = 0.0;
            heap.push(Reverse((OrdF64(0.0), s)));
        }
    }
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for &v in g.neighbors(u) {
            let nd = d + w.weight(u, v);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    dist
}

/// Single-source Dijkstra with parent pointers, for path extraction.
/// `parent[s] == s` for the source; unreachable nodes keep
/// `NodeId::MAX`. Under [`UnitWeights`] a node's parent is its
/// smallest-id neighbour one hop closer to the source: the heap settles
/// equal distances in id order and relaxation is strict.
pub fn dijkstra_with_parents<W: EdgeWeights>(
    g: &Graph,
    source: NodeId,
    w: &W,
) -> (Vec<f64>, Vec<NodeId>) {
    let mut dist = vec![f64::INFINITY; g.n()];
    let mut parent = vec![NodeId::MAX; g.n()];
    let mut heap: BinaryHeap<Reverse<(OrdF64, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    parent[source as usize] = source;
    heap.push(Reverse((OrdF64(0.0), source)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &v in g.neighbors(u) {
            let nd = d + w.weight(u, v);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                parent[v as usize] = u;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    (dist, parent)
}

/// Reconstruct the path `source .. target` from a parent array produced by
/// [`dijkstra_with_parents`]. Returns `None` if `target` is unreachable.
pub fn path_from_parents(parent: &[NodeId], target: NodeId) -> Option<Vec<NodeId>> {
    if parent[target as usize] == NodeId::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while parent[cur as usize] != cur {
        cur = parent[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn unit_weights_match_bfs() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let d = multi_source_dijkstra(&g, &[0], &UnitWeights);
        let bfs = crate::traversal::bfs_distances(&g, 0);
        for v in 0..5 {
            assert_eq!(d[v] as u32, bfs[v]);
        }
    }

    #[test]
    fn weighted_shortest_path_prefers_light_route() {
        // 0-1-2 with light edges vs direct heavy 0-2.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let w = |u: NodeId, v: NodeId| {
            if (u, v) == (0, 2) || (v, u) == (0, 2) {
                10.0
            } else {
                1.0
            }
        };
        let d = multi_source_dijkstra(&g, &[0], &w);
        assert_eq!(d[2], 2.0);
    }

    #[test]
    fn parents_reconstruct_path() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (_, parent) = dijkstra_with_parents(&g, 0, &UnitWeights);
        assert_eq!(path_from_parents(&parent, 4), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let d = multi_source_dijkstra(&g, &[0], &UnitWeights);
        assert!(d[2].is_infinite());
        let (_, parent) = dijkstra_with_parents(&g, 0, &UnitWeights);
        assert_eq!(path_from_parents(&parent, 2), None);
    }

    #[test]
    fn multi_source_minimum() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d = multi_source_dijkstra(&g, &[0, 4], &UnitWeights);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 1.0);
    }
}
