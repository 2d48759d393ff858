//! Incremental construction of [`Graph`]s.
//!
//! The builder accepts edges in any order, tolerates duplicates and
//! self-loops (both are dropped — the paper's model is an undirected
//! *simple* graph, §3), and produces sorted CSR adjacency in
//! `O(n + m log deg_max)`.

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

    /// Consume the builder and produce the CSR graph.
    pub fn build(mut self) -> Graph {
        // Sort + dedup the normalised edge list, then do a counting pass.
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each adjacency list is already sorted: edges were globally sorted
        // by (u, v), so positions written for a fixed u ascend in v; for the
        // reverse direction v receives u values in ascending u order, but
        // interleaved with forward writes — sort defensively per list.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
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
