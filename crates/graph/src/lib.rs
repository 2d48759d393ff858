//! # dmcs-graph — graph substrate for the DMCS reproduction
//!
//! A self-contained, allocation-conscious graph library providing every
//! graph primitive the DMCS paper (SIGMOD 2022) relies on:
//!
//! - [`Graph`] — an immutable, undirected, simple graph in compressed
//!   sparse row (CSR) form with sorted adjacency, built via
//!   [`GraphBuilder`].
//! - [`SubgraphView`] — a mutable *alive-mask* over a [`Graph`] supporting
//!   `O(deg)` node removal, the workhorse of the top-down peeling framework.
//! - [`traversal`] — BFS (single- and multi-source), connected components,
//!   eccentricity and diameter.
//! - [`articulation`] — iterative Hopcroft–Tarjan articulation points over a
//!   view (NCA's removable-node test, §5.2.1).
//! - [`cores`] — k-core peeling and core decomposition (kc / highcore
//!   baselines).
//! - [`truss`] — triangle support, truss decomposition and
//!   triangle-connected k-truss communities (kt / hightruss / huang2015).
//! - [`betweenness`] — Brandes betweenness centrality (GN baseline, Fig 20
//!   case study).
//! - [`eigen`] — eigenvector centrality by power iteration (Fig 20).
//! - [`mincut`] — Stoer–Wagner global min-cut with early cut splitting and
//!   the k-edge-connected-component extraction used by the kecc baseline.
//! - [`cliques`] — Bron–Kerbosch maximal cliques and k-clique percolation
//!   (clique baseline).
//! - [`steiner`] — shortest-path-union Steiner approximation (§5.6).
//!
//! The representation follows the Rust Performance Book guidance used across
//! this workspace: flat `Vec` storage, `u32` node ids, no per-node
//! allocations, and iterative (non-recursive) DFS so multi-million-node
//! graphs cannot overflow the stack.

#![warn(missing_docs)]

pub mod articulation;
pub mod betweenness;
pub mod bits;
pub mod builder;
pub mod cliques;
pub mod clustering;
pub mod cores;
pub mod diameter;
pub mod dot;
pub mod eigen;
pub mod io;
pub mod layout;
pub mod mincut;
pub mod pagerank;
pub mod stats;
pub mod steiner;
pub mod store;
pub mod traversal;
pub mod truss;
pub mod view;
pub mod weighted;

pub use builder::GraphBuilder;
pub use layout::{ComputeGraph, LayoutPolicy, NodeMap};
pub use store::{GraphStore, RebuildStats, ShardLayout, Snapshot, DEFAULT_SHARD_COUNT};
pub use traversal::ComponentIndex;
pub use view::SubgraphView;

/// Node identifier. `u32` keeps adjacency arrays half the size of `usize`
/// indices and comfortably covers the paper's largest graph (LiveJournal,
/// ~4M nodes).
pub type NodeId = u32;

/// An immutable, undirected, simple graph in compressed sparse row form.
///
/// Each undirected edge `{u, v}` is stored twice (once per endpoint), so
/// `neighbors.len() == 2 * m`. Adjacency lists are sorted, enabling
/// `O(log deg)` membership tests via [`Graph::has_edge`].
///
/// A graph optionally carries a **weights lane** — one `f64` per CSR
/// slot, plus precomputed node strengths and the total edge weight (see
/// the [`weighted`] module). Unweighted graphs pay nothing for the lane
/// (a single `None` pointer), and the unweighted accessors never consult
/// it; the weighted accessors fall back to unit weights when it is
/// absent, so weight-aware algorithms run on any graph.
///
/// Build one with [`GraphBuilder`]:
///
/// ```
/// use dmcs_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 3);
/// let g = b.build();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(!g.is_weighted());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<NodeId>,
    /// Number of undirected edges.
    m: usize,
    /// Optional per-slot edge weights (see [`weighted`]). `None` for
    /// unweighted graphs — boxed so the unweighted representation stays
    /// one pointer wide and the hot path never touches weight state.
    pub(crate) weights: Option<Box<weighted::WeightsLane>>,
}

impl Graph {
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());
        debug_assert_eq!(neighbors.len() % 2, 0);
        let m = neighbors.len() / 2;
        Graph {
            offsets,
            neighbors,
            m,
            weights: None,
        }
    }

    /// Whether this graph carries a weights lane. Weighted accessors
    /// ([`Graph::strength`], [`Graph::total_weight`],
    /// [`Graph::weighted_neighbors`], …) work either way — without a
    /// lane every edge counts as weight 1.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Number of nodes (including isolated ones declared to the builder).
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of `v` in the full graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Start of `v`'s slot range in the flat CSR neighbour array. Slot `i`
    /// of `v` is `csr_offset(v) + i` for `i < degree(v)`; edge-indexed
    /// overlays ([`truss::EdgeIndex`]) use this to map slots to edge ids.
    #[inline]
    pub fn csr_offset(&self, v: NodeId) -> usize {
        self.offsets[v as usize]
    }

    /// `O(log deg(u))` membership test on the sorted adjacency list.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.n() || v as usize >= self.n() {
            return false;
        }
        // Probe the smaller list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterate every undirected edge exactly once as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterate all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n() as NodeId
    }

    /// Sum of degrees of `nodes` in the **full** graph — the `d_C` term of
    /// both the classic and density modularity (Definitions 1 and 2).
    pub fn degree_sum(&self, nodes: &[NodeId]) -> u64 {
        nodes.iter().map(|&v| self.degree(v) as u64).sum()
    }

    /// Number of edges of the induced subgraph `G[nodes]` — the `l_C` term.
    ///
    /// `O(sum deg log deg)`; intended for validation and measure evaluation,
    /// not inner loops (the peeling algorithms maintain `l_S`
    /// incrementally).
    pub fn internal_edges(&self, nodes: &[NodeId]) -> u64 {
        let mut mask = vec![false; self.n()];
        for &v in nodes {
            mask[v as usize] = true;
        }
        let mut l = 0u64;
        for &v in nodes {
            for &w in self.neighbors(v) {
                if v < w && mask[w as usize] {
                    l += 1;
                }
            }
        }
        l
    }

    /// Heap + inline bytes of the CSR representation — the per-dataset
    /// resident footprint a serving deployment must budget for
    /// (`~ 8n + 8·2m` bytes: one `usize` offset per node, one `u32`
    /// neighbour entry per edge direction). A weights lane adds its own
    /// `8·2m` slot weights plus `8n` strengths, so capacity planning for
    /// weighted datasets stays honest.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<NodeId>()
            + self.weights.as_deref().map_or(0, |w| w.memory_bytes())
    }

    /// The subgraph induced by `nodes`, which must be distinct: `nodes[i]`
    /// becomes node `i`, so a permutation of `0..n` renumbers the graph.
    /// Each row is translated through a new-id table and sorted. When this
    /// graph carries a weights lane the subgraph carries one too, each
    /// surviving edge keeping its weight.
    pub fn induced(&self, nodes: &[NodeId]) -> Graph {
        let mut new_id = vec![NodeId::MAX; self.n()];
        for (i, &v) in nodes.iter().enumerate() {
            debug_assert_eq!(new_id[v as usize], NodeId::MAX, "node {v} given twice");
            new_id[v as usize] = i as NodeId;
        }
        let lane = self.weights.as_deref();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(self.degree_sum(nodes) as usize);
        let mut slot_weight = Vec::with_capacity(lane.map_or(0, |_| neighbors.capacity()));
        let mut row: Vec<(NodeId, f64)> = Vec::new();
        for &v in nodes {
            if lane.is_some() {
                let kept = self
                    .weighted_neighbors(v)
                    .map(|(u, w)| (new_id[u as usize], w));
                row.clear();
                row.extend(kept.filter(|&(u, _)| u != NodeId::MAX));
                row.sort_unstable_by_key(|&(u, _)| u);
                neighbors.extend(row.iter().map(|&(u, _)| u));
                slot_weight.extend(row.iter().map(|&(_, w)| w));
            } else {
                let start = neighbors.len();
                let kept = self.neighbors(v).iter().map(|&u| new_id[u as usize]);
                neighbors.extend(kept.filter(|&u| u != NodeId::MAX));
                neighbors[start..].sort_unstable();
            }
            offsets.push(neighbors.len());
        }
        let sub = Graph::from_csr(offsets, neighbors);
        match lane {
            Some(_) => sub.attach_weights(slot_weight),
            None => sub,
        }
    }
}

/// Errors shared by the graph algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A query node id is `>= n`.
    NodeOutOfRange(NodeId),
    /// The query nodes are not all in one connected component.
    QueryDisconnected,
    /// An algorithm-specific structural requirement failed
    /// (e.g. no k-truss contains the query).
    NoFeasibleSolution(&'static str),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            GraphError::QueryDisconnected => {
                write!(f, "query nodes are not in the same connected component")
            }
            GraphError::NoFeasibleSolution(why) => write!(f, "no feasible solution: {why}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path4();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_sum_and_internal_edges() {
        let g = path4();
        assert_eq!(g.degree_sum(&[1, 2]), 4);
        assert_eq!(g.internal_edges(&[1, 2]), 1);
        assert_eq!(g.internal_edges(&[0, 1, 2, 3]), 3);
        assert_eq!(g.internal_edges(&[0, 3]), 0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = path4();
        let sub = g.induced(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert!(sub.has_edge(0, 1)); // old (1,2)
        assert!(sub.has_edge(1, 2)); // old (2,3)
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_preserves_weights() {
        let mut b = GraphBuilder::weighted(4);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 2, 3.0);
        b.add_weighted_edge(0, 2, 1.5);
        b.add_weighted_edge(2, 3, 0.5);
        let g = b.build();
        // Keep nodes out of id order: the relabelling must still land
        // every weight on the right subgraph slot.
        let sub = g.induced(&[2, 0, 1]);
        assert!(sub.is_weighted());
        assert_eq!(sub.m(), 3);
        assert_eq!(sub.edge_weight(1, 2), Some(2.0)); // old (0,1)
        assert_eq!(sub.edge_weight(0, 2), Some(3.0)); // old (2,1)
        assert_eq!(sub.edge_weight(0, 1), Some(1.5)); // old (2,0)
        assert!((sub.total_weight() - 6.5).abs() < 1e-12);
        // The unweighted host stays laneless through induced().
        assert!(!path4().induced(&[1, 2, 3]).is_weighted());
    }

    #[test]
    fn induced_on_a_permutation_carries_weights() {
        let mut b = GraphBuilder::weighted(4);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 2, 3.0);
        b.add_weighted_edge(2, 3, 0.5);
        let g = b.build();
        let order = vec![3, 2, 1, 0];
        let p = g.induced(&order);
        let map = NodeMap::from_order(&order);
        assert!(p.is_weighted());
        assert_eq!(
            p.edge_weight(map.to_internal(1), map.to_internal(2)),
            Some(3.0)
        );
        assert!((p.total_weight() - g.total_weight()).abs() < 1e-12);
        for v in 0..4 {
            assert!((p.strength(map.to_internal(v)) - g.strength(v)).abs() < 1e-12);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "given twice")]
    fn induced_nodes_must_be_distinct() {
        path4().induced(&[1, 2, 1]);
    }

    #[test]
    fn memory_bytes_covers_csr_storage() {
        let g = path4();
        // At least the offsets (n+1 usizes) and both edge directions.
        let floor =
            (g.n() + 1) * std::mem::size_of::<usize>() + 2 * g.m() * std::mem::size_of::<NodeId>();
        assert!(g.memory_bytes() >= floor);
        // And no wild overestimate: within 4x of the floor for this tiny graph.
        assert!(g.memory_bytes() < 4 * floor + std::mem::size_of::<Graph>());
    }

    #[test]
    fn isolated_nodes_are_kept() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[NodeId]);
    }
}
