//! Incremental construction of [`Graph`]s, with or without a weights lane.
//!
//! The builder accepts edges in any order, tolerates duplicates and
//! self-loops (both are dropped — the paper's model is an undirected
//! *simple* graph, §3), and produces sorted CSR adjacency in `O(n + m)`
//! time without a comparison sort: two stable counting sorts put the
//! normalised pairs in `(u, v)` order (pairs added in that order skip
//! them), and one scatter then writes every row already ascending. A
//! [`GraphBuilder::weighted`] builder carries each pair's weight through
//! the same sorts and scatter; the sorts are stable, so the weights of
//! a pair's copies sum in the order they were added.

use crate::weighted::valid_weight;
use crate::{Graph, NodeId};

/// Builder for [`Graph`]. See the crate-level docs for an example.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Edge list as (u, v) pairs; normalised to u < v on insert.
    edges: Vec<(NodeId, NodeId)>,
    /// On a weighted builder, the weight of each pair of `edges`.
    weights: Option<Vec<f64>>,
}

impl GraphBuilder {
    /// Create a builder for a graph with at least `n` nodes. Adding an edge
    /// with a larger endpoint grows the node count automatically.
    pub fn new(n: usize) -> Self {
        GraphBuilder::with_capacity(n, 0)
    }

    /// Create a builder pre-sized for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            weights: None,
        }
    }

    /// Create a builder whose graph has a weights lane, even with no edges.
    pub fn weighted(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        b.weights = Some(Vec::new());
        b
    }

    /// Number of nodes currently declared.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add an undirected edge. Self-loops are ignored. Duplicates are
    /// de-duplicated at `build` time (on a weighted builder, this edge
    /// weighs 1.0).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.add(u, v, 1.0);
    }

    /// Add an undirected edge of weight `w` to a weighted builder.
    /// Self-loops are ignored; copies of an edge sum their weights. Panics
    /// if `w` fails [`valid_weight`] or the builder is not weighted.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(valid_weight(w), "edge weight must be positive and finite");
        assert!(self.weights.is_some(), "not a weighted builder");
        self.add(u, v, w);
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

    fn add(&mut self, u: NodeId, v: NodeId, w: f64) {
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.n = self.n.max(b as usize + 1);
        self.edges.push((a, b));
        if let Some(weights) = &mut self.weights {
            weights.push(w);
        }
    }

    /// Consume the builder and produce the CSR graph, in `O(n + m)`
    /// time with `O(n + m)` scratch (see the module docs).
    pub fn build(self) -> Graph {
        let Some(weights) = self.weights else {
            let pairs = self.edges.into_iter().map(|pair| (pair, ())).collect();
            return csr(self.n, pairs, |_, _| {}).0;
        };
        let edges = self.edges.into_iter().zip(weights).collect();
        let (graph, slot_weight) = csr(self.n, edges, |kept, copy| *kept += copy);
        graph.attach_weights(slot_weight)
    }

    /// Build directly from an edge list.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        b.build()
    }
}

/// The CSR graph on `n` nodes of `edges`, normalised pairs with a value
/// each, and the value of every CSR slot. Two stable counting sorts, by
/// `v` then by `u` (skipped when the pairs already are in order), keep
/// a pair's copies in insertion order, and `merge(kept, copy)` folds
/// each later copy into the first.
fn csr<W: Copy + Default>(
    n: usize,
    mut edges: Vec<((NodeId, NodeId), W)>,
    merge: impl Fn(&mut W, W),
) -> (Graph, Vec<W>) {
    if !edges.is_sorted_by_key(|&(pair, _)| pair) {
        let mut by_v = vec![Default::default(); edges.len()];
        counting_sort(n, &edges, &mut by_v, |((_, v), _)| v);
        counting_sort(n, &by_v, &mut edges, |((u, _), _)| u);
    }
    // `copy` comes after `kept` in insertion order.
    edges.dedup_by(|copy, kept| {
        let same = copy.0 == kept.0;
        if same {
            merge(&mut kept.1, copy.1);
        }
        same
    });
    let mut offsets = vec![0usize; n + 1];
    for &((u, v), _) in &edges {
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
    let mut values = vec![W::default(); offsets[n]];
    for &((u, v), value) in &edges {
        neighbors[cursor[u as usize]] = v;
        values[cursor[u as usize]] = value;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize]] = u;
        values[cursor[v as usize]] = value;
        cursor[v as usize] += 1;
    }
    (Graph::from_csr(offsets, neighbors), values)
}

/// Stable counting sort of `src` into `dst` by `key`, whose values are
/// below `n`.
fn counting_sort<E: Copy>(n: usize, src: &[E], dst: &mut [E], key: impl Fn(E) -> NodeId) {
    let mut next = vec![0usize; n + 1];
    for &e in src {
        next[key(e) as usize + 1] += 1;
    }
    for k in 0..n {
        next[k + 1] += next[k];
    }
    for &e in src {
        let k = key(e) as usize;
        dst[next[k]] = e;
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

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = GraphBuilder::weighted(2);
        b.add_weighted_edge(0, 1, 1.5);
        b.add_weighted_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4.0));
    }

    #[test]
    fn weighted_builders_always_carry_a_lane() {
        let empty = GraphBuilder::weighted(3).build();
        assert!(empty.is_weighted());
        assert_eq!((empty.n(), empty.m(), empty.total_weight()), (3, 0, 0.0));
        let mut b = GraphBuilder::weighted(0);
        b.add_edge(0, 1); // weight 1.0
        b.add_weighted_edge(2, 1, 2.5);
        b.add_weighted_edge(4, 4, 7.0); // self-loop: dropped, n unchanged
        let g = b.build();
        assert_eq!(g.n(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.strength(1), 3.5);
        assert!(!GraphBuilder::new(3).build().is_weighted());
    }

    #[test]
    #[should_panic(expected = "not a weighted builder")]
    fn weighted_edges_need_a_weighted_builder() {
        GraphBuilder::new(2).add_weighted_edge(0, 1, 1.0);
    }
}
