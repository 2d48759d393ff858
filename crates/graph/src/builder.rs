//! Incremental construction of [`Graph`]s.
//!
//! The builder accepts edges in any order, tolerates duplicates and
//! self-loops (both are dropped — the paper's model is an undirected
//! *simple* graph, §3), and produces sorted CSR adjacency in `O(n + m)`
//! time without a comparison sort: two stable counting sorts put the
//! normalised pairs in `(u, v)` order (pairs added in that order skip
//! them), and one scatter then writes every row already ascending.

use crate::{Graph, NodeId};

/// Builder for [`Graph`]. See the crate-level docs for an example.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Edge list as (u, v) pairs; normalised to u < v on insert.
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Create a builder for a graph with at least `n` nodes. Adding an edge
    /// with a larger endpoint grows the node count automatically.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Create a builder pre-sized for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes currently declared.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add an undirected edge. Self-loops are ignored. Duplicates are
    /// de-duplicated at `build` time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.n = self.n.max(b as usize + 1);
        self.edges.push((a, b));
    }

    /// Add every edge from an iterator of pairs.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, it: I) {
        for (u, v) in it {
            self.add_edge(u, v);
        }
    }

    /// Raise the node count to at least `n` (nodes without edges are
    /// isolated).
    pub(crate) fn reserve_nodes(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Consume the builder and produce the CSR graph, in `O(n + m)`
    /// time with `O(n + m)` scratch (see the module docs).
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut pairs = sorted_pairs(n, self.edges);
        pairs.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &pairs {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Row x receives its smaller neighbours u from pairs (u, x) in
        // ascending u, all before its larger neighbours from pairs
        // (x, v) in ascending v: pairs are in (u, v) order and u < x.
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeId; offsets[n]];
        for &(u, v) in &pairs {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Graph::from_csr(offsets, neighbors)
    }

    /// Build directly from an edge list.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        b.build()
    }
}

/// `pairs` (every endpoint below `n`) in ascending `(u, v)` order:
/// a stable counting sort by `v`, then one by `u`, unless they already
/// are.
fn sorted_pairs(n: usize, mut pairs: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
    if pairs.is_sorted() {
        return pairs;
    }
    let mut by_v = vec![(0, 0); pairs.len()];
    counting_sort(n, &pairs, &mut by_v, |(_, v)| v);
    counting_sort(n, &by_v, &mut pairs, |(u, _)| u);
    pairs
}

/// Stable counting sort of `src` into `dst` by `key`, whose values are
/// below `n`.
fn counting_sort(
    n: usize,
    src: &[(NodeId, NodeId)],
    dst: &mut [(NodeId, NodeId)],
    key: impl Fn((NodeId, NodeId)) -> NodeId,
) {
    let mut next = vec![0usize; n + 1];
    for &p in src {
        next[key(p) as usize + 1] += 1;
    }
    for k in 0..n {
        next[k + 1] += next[k];
    }
    for &p in src {
        let k = key(p) as usize;
        dst[next[k]] = p;
        next[k] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate, reversed
        b.add_edge(0, 1); // duplicate
        b.add_edge(2, 2); // self loop
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn grows_node_count() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 2);
        let g = b.build();
        assert_eq!(g.n(), 6);
        assert!(g.has_edge(2, 5));
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = GraphBuilder::from_edges(6, &[(3, 1), (3, 5), (3, 0), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn from_edges_roundtrip() {
        let edges = vec![(0, 1), (1, 2), (0, 2), (2, 3)];
        let g = GraphBuilder::from_edges(4, &edges);
        assert_eq!(g.m(), 4);
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        let mut want = edges;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
