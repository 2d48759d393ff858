//! Breadth-first traversals: distances, multi-source BFS (FPA's distance
//! layers, §5.2.2), eccentricity and diameter (community-diameter study,
//! Fig 4), plus the one connected-component labelling, union-find's
//! [`ComponentIndex`] (which [`connected_components`] returns).

use crate::view::QueryWorkspace;
use crate::{Graph, NodeId, SubgraphView};
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances over the full graph.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    multi_source_bfs(g, std::slice::from_ref(&source))
}

/// Multi-source BFS over the full graph: `dist(v) = min_{q in sources}
/// dist(q, v)` — exactly the §5.6 distance used by FPA for multiple query
/// nodes. Unreachable nodes get [`UNREACHABLE`].
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        if dist[s as usize] != 0 {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// [`multi_source_bfs`] into a caller-provided buffer that is already
/// sized to `g.n()` and reset to [`UNREACHABLE`] (the
/// [`crate::view::QueryWorkspace::take_dist`] contract), also returning
/// every reached node in ascending id order — when `sources` lie in one
/// component this *is* that component, saving batched query loops a
/// separate `O(n)` [`component_of`] pass.
pub fn multi_source_bfs_collect(g: &Graph, sources: &[NodeId], dist: &mut [u32]) -> Vec<NodeId> {
    debug_assert_eq!(dist.len(), g.n());
    debug_assert!(dist.iter().all(|&d| d == UNREACHABLE), "buffer not reset");
    let mut queue = VecDeque::with_capacity(sources.len());
    let mut visited = Vec::new();
    for &s in sources {
        if dist[s as usize] != 0 {
            dist[s as usize] = 0;
            visited.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                visited.push(w);
                queue.push_back(w);
            }
        }
    }
    visited.sort_unstable();
    visited
}

/// Multi-source BFS restricted to the alive nodes of a view. Dead nodes get
/// [`UNREACHABLE`]; sources that are not alive are ignored.
pub fn multi_source_bfs_view(view: &SubgraphView<'_>, sources: &[NodeId]) -> Vec<u32> {
    let g = view.graph();
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        if view.contains(s) && dist[s as usize] != 0 {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for w in view.alive_neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Connected-component labelling. Returns `(labels, component_count)`;
/// labels are dense in `0..count`, numbered by each component's smallest
/// node id: [`ComponentIndex`]'s labels, without the sizes.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let ComponentIndex { labels, sizes } = ComponentIndex::compute(g);
    (labels, sizes.len())
}

/// Nodes of the connected component containing `seed`.
pub fn component_of(g: &Graph, seed: NodeId) -> Vec<NodeId> {
    let mut seen = crate::bits::BitMask::with_len(g.n());
    let mut stack = vec![seed];
    seen.set(seed as usize);
    let mut comp = vec![seed];
    while let Some(u) = stack.pop() {
        for &w in g.neighbors(u) {
            if !seen.get(w as usize) {
                seen.set(w as usize);
                comp.push(w);
                stack.push(w);
            }
        }
    }
    comp.sort_unstable();
    comp
}

/// True if all of `nodes` lie in one connected component of `g`.
pub fn same_component(g: &Graph, nodes: &[NodeId]) -> bool {
    match nodes {
        // Trivial sets skip the BFS — single-query community searches hit
        // this on every call, and the BFS would cost O(n + m) each.
        [] | [_] => true,
        [first, rest @ ..] => {
            let dist = bfs_distances(g, *first);
            rest.iter().all(|&v| dist[v as usize] != UNREACHABLE)
        }
    }
}

/// [`same_component`] over the workspace's pooled bitset frontier: the
/// visited mask is a `u64`-word [`crate::bits::BitMask`] and the
/// frontier vector doubles as the visited list for the sparse reset, so
/// the steady-state connectivity check performs **zero allocations** —
/// previously every first-in-component multi-node query paid a fresh
/// `O(n)` distance array here even when a component memo was armed.
pub fn same_component_with_workspace(g: &Graph, nodes: &[NodeId], ws: &mut QueryWorkspace) -> bool {
    same_component_visiting(g, nodes, ws, |_, _| {})
}

/// [`same_component_with_workspace`] that also hands `on_component` the
/// workspace and the component it walked, the first node's whole
/// connected component in any order, before the buffers go back to the
/// pool. `on_component` runs only when the BFS ran and found every
/// node: not for zero or one node, and not for a disconnected set.
pub fn same_component_visiting(
    g: &Graph,
    nodes: &[NodeId],
    ws: &mut QueryWorkspace,
    on_component: impl FnOnce(&mut QueryWorkspace, &[NodeId]),
) -> bool {
    let (first, rest) = match nodes {
        [] | [_] => return true,
        [first, rest @ ..] => (*first, rest),
    };
    let (mut visited, mut queue) = ws.take_visit(g.n());
    visited.set(first as usize);
    queue.push(first);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &w in g.neighbors(u) {
            if !visited.get(w as usize) {
                visited.set(w as usize);
                queue.push(w);
            }
        }
    }
    let connected = rest.iter().all(|&v| visited.get(v as usize));
    if connected {
        on_component(ws, &queue);
    }
    ws.put_visit(visited, queue);
    connected
}

/// Eccentricity of `source` within the induced subgraph on `nodes`
/// (maximum finite BFS distance). Returns `None` when the induced subgraph
/// is disconnected from `source`'s side — callers treat that as "no valid
/// diameter".
pub fn eccentricity_within(g: &Graph, nodes: &[NodeId], source: NodeId) -> Option<u32> {
    let view = SubgraphView::from_nodes(g, nodes);
    let dist = multi_source_bfs_view(&view, &[source]);
    let mut ecc = 0u32;
    for &v in nodes {
        let d = dist[v as usize];
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Exact diameter of the induced subgraph on `nodes` (max eccentricity over
/// all its nodes). `O(|nodes| * (|nodes| + edges))` — ground-truth
/// communities in the paper's Fig 4 study are small, so the exact
/// computation is affordable.
///
/// Returns `None` if the induced subgraph is disconnected.
pub fn diameter_within(g: &Graph, nodes: &[NodeId]) -> Option<u32> {
    if nodes.is_empty() {
        return Some(0);
    }
    let view = SubgraphView::from_nodes(g, nodes);
    let mut diam = 0u32;
    for &s in nodes {
        let dist = multi_source_bfs_view(&view, &[s]);
        for &v in nodes {
            let d = dist[v as usize];
            if d == UNREACHABLE {
                return None;
            }
            diam = diam.max(d);
        }
    }
    Some(diam)
}

/// Dense connected-component labels plus per-component sizes — the
/// cheap per-snapshot structure the batch scheduler groups queries by
/// and the query planner reads its skew statistics from.
///
/// Built by union-find (union by size, path halving) over the edge
/// list: `O(m α(n))` with no queue allocation, then relabeled densely
/// so that label `k` is the component whose smallest node id is the
/// `k`-th smallest among component minima. It is the workspace's one
/// component labelling: [`connected_components`] returns its labels.
#[derive(Debug, Clone)]
pub struct ComponentIndex {
    labels: Vec<u32>,
    sizes: Vec<u32>,
}

impl ComponentIndex {
    /// Compute the index for `g`.
    pub fn compute(g: &Graph) -> ComponentIndex {
        let n = g.n();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut rank: Vec<u32> = vec![1; n];

        fn find(parent: &mut [u32], mut v: u32) -> u32 {
            while parent[v as usize] != v {
                // Path halving: point v at its grandparent as we climb.
                let grand = parent[parent[v as usize] as usize];
                parent[v as usize] = grand;
                v = grand;
            }
            v
        }

        for (u, v) in g.edges() {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru == rv {
                continue;
            }
            // Union by size.
            let (big, small) = if rank[ru as usize] >= rank[rv as usize] {
                (ru, rv)
            } else {
                (rv, ru)
            };
            parent[small as usize] = big;
            rank[big as usize] += rank[small as usize];
        }

        // Dense relabel in ascending order of each root's smallest
        // member — node 0's component gets label 0, and so on.
        let mut labels = vec![0u32; n];
        let mut dense: Vec<u32> = vec![u32::MAX; n];
        let mut sizes: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            let root = find(&mut parent, v);
            let label = if dense[root as usize] == u32::MAX {
                let l = sizes.len() as u32;
                dense[root as usize] = l;
                sizes.push(rank[root as usize]);
                l
            } else {
                dense[root as usize]
            };
            labels[v as usize] = label;
        }
        ComponentIndex { labels, sizes }
    }

    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// The dense component label of node `v` (`v` must be in range).
    #[inline]
    pub fn label(&self, v: NodeId) -> u32 {
        self.labels[v as usize]
    }

    /// Per-node labels, indexed by node id.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Per-component node counts, indexed by label.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Node count of the largest component (0 on the empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path5() -> Graph {
        GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let g = path5();
        assert_eq!(multi_source_bfs(&g, &[0, 4]), vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn unreachable_marked() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn components_counted() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1}, {2,3,4}, {5}
        assert_eq!(labels, [0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn component_of_collects_sorted() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        assert_eq!(component_of(&g, 4), vec![2, 3, 4]);
    }

    #[test]
    fn same_component_checks() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(same_component(&g, &[0, 1]));
        assert!(!same_component(&g, &[0, 2]));
        assert!(same_component(&g, &[]));
    }

    #[test]
    fn bfs_respects_view() {
        let g = path5();
        let mut view = crate::SubgraphView::full(&g);
        view.remove(2);
        let d = multi_source_bfs_view(&view, &[0]);
        assert_eq!(d[1], 1);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        let g = path5();
        assert_eq!(diameter_within(&g, &[0, 1, 2, 3, 4]), Some(4));
        assert_eq!(diameter_within(&g, &[1, 2, 3]), Some(2));
        let c = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(diameter_within(&c, &[0, 1, 2, 3]), Some(2));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter_within(&g, &[0, 2]), None);
    }

    #[test]
    fn eccentricity_within_subgraph() {
        let g = path5();
        assert_eq!(eccentricity_within(&g, &[0, 1, 2], 0), Some(2));
        assert_eq!(eccentricity_within(&g, &[0, 1, 2], 1), Some(1));
    }

    #[test]
    fn component_index_labels_by_smallest_member() {
        // Components {0,1,2}, {3,4,7} and {5,6}: labels follow each
        // component's smallest node, so 7 shares label 1 with 3.
        let g = GraphBuilder::from_edges(8, &[(6, 5), (4, 3), (1, 2), (2, 0), (7, 3)]);
        let idx = ComponentIndex::compute(&g);
        assert_eq!(idx.labels(), &[0, 0, 0, 1, 1, 2, 2, 1]);
        assert_eq!(idx.count(), 3);
        assert_eq!(idx.sizes(), &[3, 3, 2]);
        assert_eq!(idx.largest(), 3);
        assert_eq!(idx.label(7), idx.label(3));
    }

    #[test]
    fn component_index_on_degenerate_graphs() {
        let empty = GraphBuilder::new(0).build();
        let idx = ComponentIndex::compute(&empty);
        assert_eq!(idx.count(), 0);
        assert_eq!(idx.largest(), 0);
        let isolated = GraphBuilder::new(3).build();
        let idx = ComponentIndex::compute(&isolated);
        assert_eq!(idx.count(), 3);
        assert_eq!(idx.sizes(), &[1, 1, 1]);
    }
}
