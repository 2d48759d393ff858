//! A mutable adjacency-list graph for streaming updates.
//!
//! The CSR [`Graph`] is deliberately immutable — peeling works on
//! [`crate::SubgraphView`]s, never by rebuilding. Streaming scenarios
//! (the co-authorship network gains papers, the social network gains
//! follows) need a mutable representation: [`DynamicGraph`] keeps sorted
//! adjacency vectors, supports edge insertion/removal in `O(deg)`, node
//! growth in `O(1)`, and snapshots to CSR in `O(|V| + |E|)` for the
//! search algorithms. A monotonically increasing [`version`] tells a
//! reader exactly when the graph has moved since it last looked (the
//! engine re-pins its sessions on it).
//!
//! The node-id space is additionally partitioned into `P` range
//! **shards** (a fixed [`ShardLayout`], default [`DEFAULT_SHARD_COUNT`]),
//! each with its own mutation counter: an effective edge op bumps the
//! shards of both endpoints, `add_node` bumps the shard of the new
//! node. Shard counters are what make snapshot rebuilds *incremental*
//! (clean shards' CSR segments are reused; see
//! [`GraphStore`](crate::GraphStore)) and cache invalidation
//! *shard-scoped* (a cached answer dies when a shard its component
//! touches moves, or when the graph's edge count does).
//!
//! A dynamic graph is **weighted** when it carries a per-edge weight
//! lane (see [`DynamicGraph::new_weighted`]); weighted mutators
//! ([`insert_edge_w`](DynamicGraph::insert_edge_w),
//! [`set_weight`](DynamicGraph::set_weight)) bump the version like any
//! other effective mutation — a weight change invalidates version-keyed
//! caches exactly like a topology change, because the weighted density
//! modularity depends on every edge weight through `w_G`. On an
//! unweighted graph the weighted mutators refuse (return
//! `false`/`None`) rather than silently inventing a lane.
//!
//! [`version`]: DynamicGraph::version

use crate::weighted::valid_weight;
use crate::{Graph, GraphBuilder, NodeId};

/// Default shard count for sharded dynamic graphs (see [`ShardLayout`]).
///
/// Sixteen node-id-range shards keep per-shard versioning cheap (one
/// `u64` each) while making a single-edge update dirty at most 2/16 of
/// the graph on the next snapshot rebuild.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// Node-id-range partitioning of a graph into `P` shards.
///
/// The layout is fixed when the graph is created: `shard_size` is
/// `ceil(n / P)` for the *initial* node count `n`, and
/// [`shard_of`](ShardLayout::shard_of) maps node `v` to shard
/// `min(v / shard_size, P - 1)`. Nodes added later land in the last
/// shard once they run past `shard_size * P`, so shard indices recorded
/// in cache fingerprints never go stale.
///
/// ```
/// use dmcs_graph::dynamic::ShardLayout;
///
/// let layout = ShardLayout::new(100, 4); // shard_size = 25
/// assert_eq!(layout.shards(), 4);
/// assert_eq!(layout.shard_of(0), 0);
/// assert_eq!(layout.shard_of(99), 3);
/// assert_eq!(layout.shard_of(1_000), 3, "late nodes clamp to the last shard");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    shards: usize,
    shard_size: usize,
}

impl ShardLayout {
    /// Layout of `shards` node-id-range shards over an initial `n` nodes.
    /// A `shards` of 0 is treated as 1.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardLayout {
            shards,
            shard_size: n.div_ceil(shards).max(1),
        }
    }

    /// The trivial one-shard layout (used by
    /// [`Snapshot::freeze`](crate::Snapshot::freeze), where there is no
    /// store to shard).
    pub fn single() -> Self {
        ShardLayout {
            shards: 1,
            shard_size: usize::MAX,
        }
    }

    /// Number of shards `P`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard owning node `v`: `min(v / shard_size, P - 1)`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        ((v as usize) / self.shard_size).min(self.shards - 1)
    }

    /// Node-id range `[start, end)` of shard `s` for a graph currently
    /// holding `n` nodes. The ranges of all shards partition `0..n`, and
    /// growing `n` by one (an `add_node`) changes exactly the range of
    /// the shard owning the new node.
    pub fn node_range(&self, s: usize, n: usize) -> (usize, usize) {
        debug_assert!(s < self.shards);
        let start = self.shard_size.saturating_mul(s).min(n);
        let end = if s + 1 == self.shards {
            n
        } else {
            self.shard_size.saturating_mul(s + 1).min(n)
        };
        (start, end)
    }
}

impl Default for ShardLayout {
    fn default() -> Self {
        ShardLayout::single()
    }
}

/// A mutable, undirected simple graph (no self-loops, no multi-edges),
/// optionally weighted.
///
/// ```
/// use dmcs_graph::dynamic::DynamicGraph;
///
/// let mut g = DynamicGraph::new(3);
/// assert!(g.insert_edge(0, 1));
/// assert!(!g.insert_edge(0, 1), "duplicates rejected");
/// let v = g.add_node();
/// g.insert_edge(1, v);
/// assert_eq!(g.snapshot().m(), 2);
/// assert_eq!(g.version(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    adj: Vec<Vec<NodeId>>,
    /// Weight of `adj[u][i]`'s edge, parallel to `adj`; `None` for
    /// unweighted graphs.
    wadj: Option<Vec<Vec<f64>>>,
    m: usize,
    version: u64,
    layout: ShardLayout,
    /// Per-shard mutation counters, parallel to the layout: an edge op
    /// bumps the shards of *both* endpoints, `add_node` bumps the shard
    /// of the new node. `sum` relates to [`version`](Self::version) but
    /// is not equal to it (cross-shard ops bump two shard counters and
    /// the global counter once).
    shard_versions: Vec<u64>,
}

impl Default for DynamicGraph {
    fn default() -> Self {
        DynamicGraph::new(0)
    }
}

impl DynamicGraph {
    /// Empty unweighted graph on `n` nodes with the
    /// [`DEFAULT_SHARD_COUNT`] layout.
    pub fn new(n: usize) -> Self {
        DynamicGraph::with_shards(n, DEFAULT_SHARD_COUNT)
    }

    /// Empty unweighted graph on `n` nodes partitioned into `shards`
    /// node-id-range shards (see [`ShardLayout`]).
    pub fn with_shards(n: usize, shards: usize) -> Self {
        let layout = ShardLayout::new(n, shards);
        DynamicGraph {
            adj: vec![Vec::new(); n],
            wadj: None,
            m: 0,
            version: 0,
            shard_versions: vec![0; layout.shards()],
            layout,
        }
    }

    /// Empty *weighted* graph on `n` nodes: edges carry weights,
    /// [`DynamicGraph::set_weight`] works, and snapshots produce
    /// lane-carrying [`Graph`]s.
    pub fn new_weighted(n: usize) -> Self {
        DynamicGraph::new_weighted_with_shards(n, DEFAULT_SHARD_COUNT)
    }

    /// Empty weighted graph on `n` nodes with an explicit shard count.
    pub fn new_weighted_with_shards(n: usize, shards: usize) -> Self {
        let mut d = DynamicGraph::with_shards(n, shards);
        d.wadj = Some(vec![Vec::new(); n]);
        d
    }

    /// Start from a CSR snapshot. A weights lane on `g` carries over —
    /// the dynamic graph is weighted iff `g` is.
    pub fn from_graph(g: &Graph) -> Self {
        DynamicGraph::from_graph_with_shards(g, DEFAULT_SHARD_COUNT)
    }

    /// Start from a CSR snapshot with an explicit shard count.
    pub fn from_graph_with_shards(g: &Graph, shards: usize) -> Self {
        let mut d = if g.is_weighted() {
            DynamicGraph::new_weighted_with_shards(g.n(), shards)
        } else {
            DynamicGraph::with_shards(g.n(), shards)
        };
        for (u, v) in g.edges() {
            if d.is_weighted() {
                // Every iterated edge of a weighted graph has a weight;
                // 1.0 is the unweighted convention, not a new policy.
                let w = g.edge_weight(u, v).unwrap_or(1.0);
                d.insert_edge_w(u, v, w);
            } else {
                d.insert_edge(u, v);
            }
        }
        // Construction does not count as mutation.
        d.version = 0;
        d.shard_versions.iter_mut().for_each(|v| *v = 0);
        d
    }

    /// Whether this graph carries per-edge weights.
    pub fn is_weighted(&self) -> bool {
        self.wadj.is_some()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Mutation counter: bumped by every successful `insert_edge`,
    /// `insert_edge_w`, `remove_edge`, `set_weight` and `add_node`.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The node-id-range shard layout (fixed at construction).
    pub fn shard_layout(&self) -> ShardLayout {
        self.layout
    }

    /// Per-shard mutation counters: an effective edge op bumps the
    /// shards of *both* endpoints (once, if they coincide); `add_node`
    /// bumps the shard of the new node. A shard whose counter is
    /// unchanged since a snapshot has bitwise-identical adjacency (and
    /// weight) rows in it — that is the contract the incremental
    /// rebuild in [`GraphStore`](crate::GraphStore) relies on.
    pub fn shard_versions(&self) -> &[u64] {
        &self.shard_versions
    }

    /// Bump the global version plus the shard counters of both endpoints
    /// of an effective edge op (once if they share a shard).
    fn touch_edge(&mut self, u: NodeId, v: NodeId) {
        let su = self.layout.shard_of(u);
        let sv = self.layout.shard_of(v);
        self.shard_versions[su] += 1;
        if sv != su {
            self.shard_versions[sv] += 1;
        }
        self.version += 1;
    }

    /// The live adjacency rows (sorted, duplicate-free) — the
    /// incremental CSR rebuild serializes dirty shards straight from
    /// these.
    pub(crate) fn adj_rows(&self) -> &[Vec<NodeId>] {
        &self.adj
    }

    /// The live per-row weight lanes, parallel to
    /// [`adj_rows`](Self::adj_rows); `None` on unweighted graphs.
    pub(crate) fn weight_rows(&self) -> Option<&[Vec<f64>]> {
        self.wadj.as_deref()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Sorted neighbours of `v`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// Edge test in `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj
            .get(u as usize)
            .is_some_and(|a| a.binary_search(&v).is_ok())
    }

    /// Weight of edge `(u, v)`: `Some(w)` when present (1.0 per edge on
    /// an unweighted graph), `None` when absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let pos = self
            .adj
            .get(u as usize)
            .and_then(|a| a.binary_search(&v).ok())?;
        Some(match &self.wadj {
            Some(w) => w[u as usize][pos],
            None => 1.0,
        })
    }

    /// Append a fresh isolated node; returns its id. Dirties exactly the
    /// shard the new node lands in (late nodes clamp to the last shard).
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        if let Some(w) = &mut self.wadj {
            w.push(Vec::new());
        }
        let id = (self.adj.len() - 1) as NodeId;
        self.shard_versions[self.layout.shard_of(id)] += 1;
        self.version += 1;
        id
    }

    /// Insert the undirected edge `{u, v}`. Returns `false` (and changes
    /// nothing) for self-loops, out-of-range endpoints, or existing
    /// edges. On a weighted graph the edge gets weight 1.0.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.insert_with(u, v, 1.0)
    }

    /// Insert the undirected edge `{u, v}` with weight `w`. Returns
    /// `false` (and changes nothing) under the [`insert_edge`] rules,
    /// and additionally when the graph is unweighted or `w` is
    /// non-finite or not strictly positive.
    ///
    /// [`insert_edge`]: DynamicGraph::insert_edge
    pub fn insert_edge_w(&mut self, u: NodeId, v: NodeId, w: f64) -> bool {
        if !self.is_weighted() || !valid_weight(w) {
            return false;
        }
        self.insert_with(u, v, w)
    }

    fn insert_with(&mut self, u: NodeId, v: NodeId, w: f64) -> bool {
        if u == v || u as usize >= self.n() || v as usize >= self.n() {
            return false;
        }
        let pos_u = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.adj[u as usize].insert(pos_u, v);
        let pos_v = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("symmetric edge cannot exist one-sided");
        self.adj[v as usize].insert(pos_v, u);
        if let Some(wa) = &mut self.wadj {
            wa[u as usize].insert(pos_u, w);
            wa[v as usize].insert(pos_v, w);
        }
        self.m += 1;
        self.touch_edge(u, v);
        true
    }

    /// Remove the undirected edge `{u, v}`. Returns `false` when absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.n() || v as usize >= self.n() {
            return false;
        }
        let Ok(pos_u) = self.adj[u as usize].binary_search(&v) else {
            return false;
        };
        // Both positions are resolved before either row is touched, so a
        // (by-construction impossible) asymmetric adjacency is left
        // intact and reported as "absent" instead of half-removed.
        let Ok(pos_v) = self.adj[v as usize].binary_search(&u) else {
            debug_assert!(false, "adjacency must be symmetric");
            return false;
        };
        self.adj[u as usize].remove(pos_u);
        self.adj[v as usize].remove(pos_v);
        if let Some(wa) = &mut self.wadj {
            wa[u as usize].remove(pos_u);
            wa[v as usize].remove(pos_v);
        }
        self.m -= 1;
        self.touch_edge(u, v);
        true
    }

    /// Set the weight of the existing edge `{u, v}` to `w`, returning
    /// the previous weight. `None` (nothing changes) when the graph is
    /// unweighted, the edge is absent, or `w` is invalid. The version
    /// bumps only when the stored weight actually changes — re-setting
    /// the current weight is a no-op, matching the effective-mutation
    /// discipline of the other mutators.
    pub fn set_weight(&mut self, u: NodeId, v: NodeId, w: f64) -> Option<f64> {
        if !valid_weight(w) || u as usize >= self.n() || v as usize >= self.n() {
            return None;
        }
        let wa = self.wadj.as_mut()?;
        let pos_u = self.adj[u as usize].binary_search(&v).ok()?;
        let Ok(pos_v) = self.adj[v as usize].binary_search(&u) else {
            debug_assert!(false, "adjacency must be symmetric");
            return None;
        };
        let old = wa[u as usize][pos_u];
        if old != w {
            wa[u as usize][pos_u] = w;
            wa[v as usize][pos_v] = w;
            self.touch_edge(u, v);
        }
        Some(old)
    }

    /// Snapshot to the immutable CSR representation the search algorithms
    /// take. A weighted dynamic graph produces a lane-carrying [`Graph`].
    pub fn snapshot(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n());
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                if (u as NodeId) < v {
                    b.add_edge(u as NodeId, v);
                }
            }
        }
        let g = b.build();
        match &self.wadj {
            // The CSR adjacency of a simple graph built from sorted
            // duplicate-free lists is exactly those lists, so the slot
            // weights are the concatenated weight rows.
            Some(wa) => {
                let mut slot_weight = Vec::with_capacity(2 * g.m());
                for row in wa {
                    slot_weight.extend_from_slice(row);
                }
                debug_assert_eq!(slot_weight.len(), 2 * g.m());
                g.attach_weights(slot_weight)
            }
            None => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynamicGraph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(0, 1), "duplicate rejected");
        assert!(!g.insert_edge(2, 2), "self-loop rejected");
        assert!(!g.insert_edge(0, 9), "out of range rejected");
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 0), "undirected");
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1), "already gone");
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn shard_layout_partitions_the_id_space() {
        let l = ShardLayout::new(10, 4); // shard_size = 3
        assert_eq!(l.shards(), 4);
        assert_eq!(l.shard_of(0), 0);
        assert_eq!(l.shard_of(2), 0);
        assert_eq!(l.shard_of(3), 1);
        assert_eq!(l.shard_of(9), 3);
        assert_eq!(l.shard_of(500), 3, "late nodes clamp to the last shard");
        // Ranges partition 0..n, for the original n and after growth.
        for n in [10usize, 11, 13, 40] {
            let mut covered = 0usize;
            for s in 0..l.shards() {
                let (start, end) = l.node_range(s, n);
                assert_eq!(start, covered, "contiguous at n={n}");
                assert!(end >= start);
                covered = end;
            }
            assert_eq!(covered, n);
        }
        // Degenerate layouts stay well-formed.
        assert_eq!(ShardLayout::new(0, 16).shard_of(0), 0);
        assert_eq!(ShardLayout::new(5, 0).shards(), 1);
        assert_eq!(ShardLayout::single().shard_of(NodeId::MAX), 0);
    }

    #[test]
    fn shard_versions_bump_per_endpoint_shard() {
        // shard_size = 2: nodes {0,1} shard 0, {2,3} shard 1, {4,5} shard 2.
        let mut g = DynamicGraph::with_shards(6, 3);
        assert_eq!(g.shard_versions(), &[0, 0, 0]);
        g.insert_edge(0, 1); // intra-shard: one bump
        assert_eq!(g.shard_versions(), &[1, 0, 0]);
        g.insert_edge(1, 4); // cross-shard: both endpoint shards
        assert_eq!(g.shard_versions(), &[2, 0, 1]);
        g.insert_edge(1, 4); // no-op: nothing moves
        assert_eq!(g.shard_versions(), &[2, 0, 1]);
        g.remove_edge(1, 4);
        assert_eq!(g.shard_versions(), &[3, 0, 2]);
        assert_eq!(g.version(), 3, "global counter still one per effective op");
    }

    #[test]
    fn add_node_dirties_its_own_shard_only() {
        let mut g = DynamicGraph::with_shards(4, 2); // shard_size = 2
        let v = g.add_node(); // id 4 -> clamps to last shard (1)
        assert_eq!(v, 4);
        assert_eq!(g.shard_versions(), &[0, 1]);
        assert_eq!(g.shard_layout().shard_of(v), 1);
        assert_eq!(g.version(), 1);
    }

    #[test]
    fn weighted_set_weight_touches_both_shards() {
        let mut g = DynamicGraph::new_weighted_with_shards(4, 2); // {0,1} | {2,3}
        g.insert_edge_w(0, 3, 2.0);
        assert_eq!(g.shard_versions(), &[1, 1]);
        assert_eq!(g.set_weight(0, 3, 5.0), Some(2.0));
        assert_eq!(g.shard_versions(), &[2, 2]);
        assert_eq!(g.set_weight(0, 3, 5.0), Some(5.0), "no-op re-set");
        assert_eq!(g.shard_versions(), &[2, 2]);
    }

    #[test]
    fn version_counts_mutations_only() {
        let mut g = DynamicGraph::new(3);
        assert_eq!(g.version(), 0);
        g.insert_edge(0, 1);
        g.insert_edge(0, 1); // no-op
        g.remove_edge(1, 2); // no-op
        assert_eq!(g.version(), 1);
        g.add_node();
        assert_eq!(g.version(), 2);
    }

    #[test]
    fn snapshot_matches_builder() {
        let mut d = DynamicGraph::new(5);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)] {
            d.insert_edge(u, v);
        }
        let s = d.snapshot();
        let b = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(s.n(), b.n());
        assert_eq!(s.m(), b.m());
        for v in 0..5u32 {
            assert_eq!(s.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn from_graph_then_snapshot_is_identity() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let d = DynamicGraph::from_graph(&g);
        assert_eq!(d.version(), 0);
        assert!(!d.is_weighted());
        let s = d.snapshot();
        for v in 0..4u32 {
            assert_eq!(s.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn node_growth() {
        let mut d = DynamicGraph::new(1);
        let v = d.add_node();
        assert_eq!(v, 1);
        assert!(d.insert_edge(0, v));
        assert_eq!(d.snapshot().m(), 1);
    }

    #[test]
    fn weighted_insert_and_set_weight() {
        let mut d = DynamicGraph::new_weighted(3);
        assert!(d.is_weighted());
        assert!(d.insert_edge_w(0, 1, 2.5));
        assert!(!d.insert_edge_w(0, 1, 9.0), "duplicate rejected");
        assert!(d.insert_edge(1, 2), "plain insert defaults to weight 1");
        assert_eq!(d.edge_weight(0, 1), Some(2.5));
        assert_eq!(d.edge_weight(1, 2), Some(1.0));
        assert_eq!(d.edge_weight(0, 2), None);
        assert_eq!(d.version(), 2);

        // set_weight: effective change bumps, same value does not.
        assert_eq!(d.set_weight(0, 1, 4.0), Some(2.5));
        assert_eq!(d.version(), 3);
        assert_eq!(d.set_weight(0, 1, 4.0), Some(4.0), "no-op re-set");
        assert_eq!(d.version(), 3, "same weight: version frozen");
        assert_eq!(d.set_weight(0, 2, 1.0), None, "absent edge");
        assert_eq!(d.set_weight(0, 1, 0.0), None, "non-positive weight");
        assert_eq!(d.set_weight(0, 1, f64::NAN), None, "non-finite weight");
        assert_eq!(d.version(), 3);
    }

    #[test]
    fn weighted_mutators_refuse_on_unweighted_graphs() {
        let mut d = DynamicGraph::new(3);
        assert!(d.insert_edge(0, 1));
        assert!(!d.insert_edge_w(1, 2, 2.0), "no lane, no weighted insert");
        assert_eq!(d.set_weight(0, 1, 2.0), None);
        assert_eq!(d.m(), 1);
        assert_eq!(d.version(), 1);
    }

    #[test]
    fn weighted_remove_keeps_lanes_aligned() {
        let mut d = DynamicGraph::new_weighted(4);
        d.insert_edge_w(0, 1, 1.5);
        d.insert_edge_w(0, 2, 2.5);
        d.insert_edge_w(0, 3, 3.5);
        assert!(d.remove_edge(0, 2));
        assert_eq!(d.edge_weight(0, 1), Some(1.5));
        assert_eq!(d.edge_weight(0, 3), Some(3.5));
        assert_eq!(d.edge_weight(0, 2), None);
        let s = d.snapshot();
        assert!(s.is_weighted());
        assert_eq!(s.edge_weight(0, 3), Some(3.5));
        assert!((s.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_from_graph_round_trips() {
        let mut b = crate::weighted::WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 0.5);
        b.add_edge(2, 3, 7.0);
        let g = b.build().into_graph();
        let d = DynamicGraph::from_graph(&g);
        assert!(d.is_weighted());
        assert_eq!(d.version(), 0);
        let s = d.snapshot();
        assert_eq!(s.edge_weight(0, 1), Some(2.0));
        assert_eq!(s.edge_weight(1, 2), Some(0.5));
        assert!((s.total_weight() - g.total_weight()).abs() < 1e-12);
        assert!((s.strength(2) - 7.5).abs() < 1e-12);
    }
}
