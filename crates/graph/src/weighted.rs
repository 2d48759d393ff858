//! Weighted undirected graphs — the general setting of Definition 2.
//!
//! The paper states density modularity for *weighted* graphs
//! (`DM(G,C) = (w_C − d_C²/(4 w_G)) / |C|`, where a node weight is the sum
//! of its adjacent edge weights) and evaluates on unweighted social
//! networks. Weights are a first-class citizen of the CSR substrate: a
//! [`Graph`] optionally carries a **weights lane** ([`WeightsLane`] —
//! one `f64` per CSR slot, parallel to the neighbour array, plus
//! precomputed node strengths and the total edge weight). The weighted
//! accessors on [`Graph`] in this module fall back to unit weights when
//! the lane is absent, so weight-aware algorithms run on any graph while
//! the unweighted hot path never touches weight state.
//!
//! [`WeightedGraph`] survives as a thin wrapper whose invariant is
//! "the lane is present": it [`Deref`](std::ops::Deref)s to [`Graph`],
//! so all topology *and* weighted accessors come from the underlying
//! graph, and [`WeightedGraph::into_graph`] hands the lane-carrying
//! graph to anything expecting a plain [`Graph`] (snapshots, stores,
//! engines).

use crate::{Graph, GraphBuilder, NodeId};

/// Is `w` an admissible edge weight (finite and strictly positive)?
/// The single weight-domain predicate of the workspace — the builder,
/// the store's mutators, the edge-list reader and the CLI update
/// grammar all enforce exactly this.
pub fn valid_weight(w: f64) -> bool {
    w.is_finite() && w > 0.0
}

/// The human-readable constraint [`valid_weight`] enforces, for error
/// messages (`"weight {w} {WEIGHT_CONSTRAINT}"`).
pub const WEIGHT_CONSTRAINT: &str = "must be finite and strictly positive";

/// The per-slot weight overlay of a weighted [`Graph`]: each undirected
/// edge stores its weight twice (once per CSR direction), node strengths
/// and the total weight are precomputed so the measures get `O(1)`
/// access.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightsLane {
    /// Weight of CSR slot `i` (parallel to the neighbour array).
    pub(crate) slot_weight: Vec<f64>,
    /// Node strengths: sum of adjacent edge weights (`d_v`).
    pub(crate) strength: Vec<f64>,
    /// Sum of all edge weights (`w_G`).
    pub(crate) total_weight: f64,
}

impl WeightsLane {
    /// Heap bytes of the lane (slot weights + strengths).
    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slot_weight.capacity() * std::mem::size_of::<f64>()
            + self.strength.capacity() * std::mem::size_of::<f64>()
    }
}

/// A node's strength from its row's slot weights, summed in row order.
pub(crate) fn row_strength(row: &[f64]) -> f64 {
    row.iter().sum()
}

impl Graph {
    /// Attach a weights lane given per-slot weights (strengths and the
    /// total are derived). `slot_weight` must be parallel to the CSR
    /// neighbour array and symmetric (both directions of an edge carry
    /// the same weight).
    pub(crate) fn attach_weights(self, slot_weight: Vec<f64>) -> Graph {
        debug_assert_eq!(slot_weight.len(), self.neighbors.len());
        let strength = self
            .offsets
            .windows(2)
            .map(|w| row_strength(&slot_weight[w[0]..w[1]]))
            .collect();
        self.attach_lane(slot_weight, strength)
    }

    /// [`Graph::attach_weights`] with the strengths already known:
    /// `strength[v]` must be [`row_strength`] of `v`'s slot weights, so
    /// the lane is bit for bit the one `attach_weights` derives. The
    /// total is derived.
    pub(crate) fn attach_lane(mut self, slot_weight: Vec<f64>, strength: Vec<f64>) -> Graph {
        debug_assert_eq!(strength.len(), self.n());
        let total_weight = strength.iter().sum::<f64>() / 2.0;
        self.weights = Some(Box::new(WeightsLane {
            slot_weight,
            strength,
            total_weight,
        }));
        self
    }

    /// Attach a unit weights lane (every edge weighs 1). The weighted
    /// measures then coincide exactly with their unweighted forms — the
    /// bridge that lets `--weighted` serve inputs without a weight
    /// column (e.g. the demo graph).
    pub fn with_unit_weights(self) -> Graph {
        let slots = self.neighbors.len();
        self.attach_weights(vec![1.0; slots])
    }

    /// Node strength `d_v` (sum of adjacent edge weights); the plain
    /// degree when no weights lane is attached.
    #[inline]
    pub fn strength(&self, v: NodeId) -> f64 {
        match &self.weights {
            Some(w) => w.strength[v as usize],
            None => self.degree(v) as f64,
        }
    }

    /// Sum of all edge weights (`w_G`); `m` when unweighted.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.total_weight,
            None => self.m() as f64,
        }
    }

    /// Weight of edge `(u, v)`, if the edge exists (1.0 per edge when
    /// unweighted).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if u as usize >= self.n() {
            return None;
        }
        let pos = self.neighbors(u).binary_search(&v).ok()?;
        Some(match &self.weights {
            Some(w) => w.slot_weight[self.csr_offset(u) + pos],
            None => 1.0,
        })
    }

    /// Iterate `(neighbor, weight)` pairs of `v` (unit weights when no
    /// lane is attached).
    pub fn weighted_neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let base = self.csr_offset(v);
        let lane = self.weights.as_deref();
        self.neighbors(v)
            .iter()
            .enumerate()
            .map(move |(i, &u)| (u, lane.map_or(1.0, |l| l.slot_weight[base + i])))
    }

    /// Sum of internal edge weights of the node set (`w_C`).
    pub fn internal_weight(&self, nodes: &[NodeId]) -> f64 {
        let mut mask = vec![false; self.n()];
        for &v in nodes {
            mask[v as usize] = true;
        }
        let mut w_c = 0.0;
        for &v in nodes {
            for (u, w) in self.weighted_neighbors(v) {
                if v < u && mask[u as usize] {
                    w_c += w;
                }
            }
        }
        w_c
    }

    /// Sum of node strengths of the set (`d_C`).
    pub fn strength_sum(&self, nodes: &[NodeId]) -> f64 {
        nodes.iter().map(|&v| self.strength(v)).sum()
    }

    /// Weighted density modularity of `nodes` (Definition 2, weighted
    /// form), `w_C/|C| − d_C²/(4·w_G·|C|)`: the operation order of the
    /// unweighted DM, so with unit weights (or no lane), where every sum
    /// is an exact integer, it equals the unweighted DM bit for bit.
    pub fn weighted_density_modularity(&self, nodes: &[NodeId]) -> f64 {
        let w_g = self.total_weight();
        if nodes.is_empty() || w_g == 0.0 {
            return f64::NEG_INFINITY;
        }
        let w_c = self.internal_weight(nodes);
        let d_c = self.strength_sum(nodes);
        let s = nodes.len() as f64;
        w_c / s - d_c * d_c / (4.0 * w_g * s)
    }
}

/// An immutable, undirected, simple graph with positive edge weights —
/// a [`Graph`] whose weights lane is guaranteed present. Dereferences to
/// [`Graph`], so every topology and weighted accessor is available, and
/// a `&WeightedGraph` coerces wherever a `&Graph` is expected (the
/// weighted search algorithms, snapshots, stores).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    graph: Graph,
}

/// Builder for [`WeightedGraph`]: duplicate edges accumulate weight.
#[derive(Debug, Clone, Default)]
pub struct WeightedGraphBuilder {
    n: usize,
    edges: std::collections::BTreeMap<(NodeId, NodeId), f64>,
}

impl WeightedGraphBuilder {
    /// Create a builder for at least `n` nodes.
    pub fn new(n: usize) -> Self {
        WeightedGraphBuilder {
            n,
            edges: std::collections::BTreeMap::new(),
        }
    }

    /// Add an undirected edge with weight `w > 0`. Parallel additions of
    /// the same edge sum their weights; self-loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(valid_weight(w), "edge weight must be positive and finite");
        if u == v {
            return;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        self.n = self.n.max(key.1 as usize + 1);
        *self.edges.entry(key).or_insert(0.0) += w;
    }

    /// Build the weighted graph.
    pub fn build(self) -> WeightedGraph {
        let mut b = GraphBuilder::with_capacity(self.n, self.edges.len());
        for &(u, v) in self.edges.keys() {
            b.add_edge(u, v);
        }
        let graph = b.build();
        let mut slot_weight = vec![0.0f64; 2 * graph.m()];
        for (&(u, v), &w) in &self.edges {
            let su = graph.csr_offset(u) + graph.neighbors(u).binary_search(&v).unwrap();
            let sv = graph.csr_offset(v) + graph.neighbors(v).binary_search(&u).unwrap();
            slot_weight[su] = w;
            slot_weight[sv] = w;
        }
        WeightedGraph {
            graph: graph.attach_weights(slot_weight),
        }
    }
}

impl WeightedGraph {
    /// Wrap a graph, attaching a unit weights lane when it has none.
    pub fn from_graph(graph: Graph) -> WeightedGraph {
        WeightedGraph {
            graph: if graph.is_weighted() {
                graph
            } else {
                graph.with_unit_weights()
            },
        }
    }

    /// The underlying lane-carrying [`Graph`] — hand this to anything
    /// expecting a plain graph (snapshots, stores, engines); the weights
    /// travel with it.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Weighted density modularity of `nodes` (Definition 2).
    pub fn density_modularity(&self, nodes: &[NodeId]) -> f64 {
        self.graph.weighted_density_modularity(nodes)
    }
}

impl std::ops::Deref for WeightedGraph {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.graph
    }
}

impl AsRef<Graph> for WeightedGraph {
    fn as_ref(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_triangle_tail() -> WeightedGraph {
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 3.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 3, 0.5);
        b.build()
    }

    #[test]
    fn strengths_and_totals() {
        let g = weighted_triangle_tail();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.is_weighted());
        assert!((g.total_weight() - 6.5).abs() < 1e-12);
        assert!((g.strength(0) - 3.0).abs() < 1e-12);
        assert!((g.strength(2) - 4.5).abs() < 1e-12);
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4.0));
    }

    #[test]
    fn weighted_dm_matches_manual_computation() {
        let g = weighted_triangle_tail();
        let c = vec![0, 1, 2];
        // w_C = 6.0, d_C = 3 + 5 + 4.5 = 12.5, w_G = 6.5.
        let expect = (6.0 - 12.5 * 12.5 / (4.0 * 6.5)) / 3.0;
        assert!((g.density_modularity(&c) - expect).abs() < 1e-12);
    }

    #[test]
    fn unit_weights_reduce_to_unweighted_dm() {
        let mut b = WeightedGraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let wg = b.build();
        let c = vec![0, 1, 2];
        let l = wg.internal_edges(&c) as f64;
        let d = wg.degree_sum(&c) as f64;
        let m = wg.m() as f64;
        let unweighted = (l - d * d / (4.0 * m)) / c.len() as f64;
        assert!((wg.density_modularity(&c) - unweighted).abs() < 1e-12);
    }

    #[test]
    fn laneless_graph_reads_as_unit_weighted() {
        // The weighted accessors on a plain Graph use unit weights.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(!g.is_weighted());
        assert_eq!(g.total_weight(), 4.0);
        assert_eq!(g.strength(2), 3.0);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 3), None);
        let pairs: Vec<(NodeId, f64)> = g.weighted_neighbors(2).collect();
        assert_eq!(pairs, vec![(0, 1.0), (1, 1.0), (3, 1.0)]);
        // ... and the weighted DM equals the unweighted one.
        let c = vec![0, 1, 2];
        let unit = g.clone().with_unit_weights();
        assert!(unit.is_weighted());
        assert!(
            (g.weighted_density_modularity(&c) - unit.weighted_density_modularity(&c)).abs()
                < 1e-12
        );
    }

    #[test]
    fn weights_lane_counts_in_memory_bytes() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let bare = g.memory_bytes();
        let weighted = g.clone().with_unit_weights().memory_bytes();
        // Lane floor: 2m slot weights + n strengths, 8 bytes each.
        let lane_floor = (2 * g.m() + g.n()) * std::mem::size_of::<f64>();
        assert!(
            weighted >= bare + lane_floor,
            "weighted {weighted} vs bare {bare} + lane {lane_floor}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_infinite_weight() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, f64::INFINITY);
    }

    #[test]
    fn parallel_edges_sum_their_weights() {
        let mut b = WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 0, 2.5); // reversed orientation, same edge
        let wg = b.build();
        assert_eq!(wg.m(), 1);
        assert_eq!(wg.edge_weight(0, 1), Some(4.0));
        assert_eq!(wg.edge_weight(1, 0), Some(4.0));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(1, 1, 5.0);
        b.add_edge(0, 1, 1.0);
        let wg = b.build();
        assert_eq!(wg.m(), 1);
        assert!((wg.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_grows_to_fit_node_ids() {
        let mut b = WeightedGraphBuilder::new(1);
        b.add_edge(0, 9, 2.0);
        let wg = b.build();
        assert_eq!(wg.n(), 10);
        assert!((wg.strength(9) - 2.0).abs() < 1e-12);
        assert_eq!(wg.strength(5), 0.0);
    }

    #[test]
    fn strength_sums_incident_weights() {
        let mut b = WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 2.5);
        let wg = b.build();
        assert!((wg.strength(0) - 3.5).abs() < 1e-12);
        assert!((wg.strength_sum(&[0, 1, 2]) - 7.0).abs() < 1e-12);
        // Total weight = half the strength sum.
        assert!((wg.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn into_graph_keeps_the_lane() {
        let g = weighted_triangle_tail().into_graph();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
        assert!((g.total_weight() - 6.5).abs() < 1e-12);
        // Round trip through the wrapper preserves the lane untouched.
        let back = WeightedGraph::from_graph(g.clone());
        assert_eq!(back.edge_weight(1, 2), Some(3.0));
    }
}
