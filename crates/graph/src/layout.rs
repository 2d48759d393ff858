//! Locality-aware CSR node renumbering.
//!
//! The CSR substrate serves queries whose working set is one connected
//! component, but nothing guarantees that a component's rows sit near
//! each other in the neighbour array — real edge lists arrive in
//! arbitrary id order, and a BFS over a scattered component touches one
//! cache line per node. This module renumbers nodes so that topological
//! neighbours become memory neighbours: [`LayoutPolicy::Bfs`] lays each
//! component out in breadth-first visitation order, so frontier
//! neighbours land in adjacent rows and the BFS and peeling loops
//! stream the neighbour array nearly sequentially.
//!
//! A renumbered graph is **internal only**. Every public surface of the
//! engine — queries, updates, shard assignment, JSON output, cache keys
//! — speaks stable *external* ids; the [`NodeMap`] carried by a
//! [`ComputeGraph`] translates in both directions and is
//! identity-optimized so stores that never opt in pay nothing.
//!
//! How the serving search path runs on the permuted graph without
//! changing a byte of output: the peeling algorithms break density
//! ties by node id, so executing naively on permuted ids could select
//! a *different* equally-dense community. Instead, the kernels carry
//! the mirror's [`NodeMap`] as a **canonical tie-break shim** — every
//! id-based tie compares *canonical external ids*
//! ([`NodeMap::to_external`]) even while the traversal streams the
//! renumbered CSR, and results are translated back to external ids at
//! the session boundary. Density values themselves are derived from
//! integer edge/degree counts, which are isomorphism-invariant, so the
//! full removal sequence (and therefore the response JSON) is
//! byte-identical under either layout policy. The multi-node Steiner
//! seed breaks its path ties by the same canonical ids. The planner
//! (`dmcs-engine`'s `QueryPlan`) decides per snapshot whether serving
//! uses the mirror; weighted kernels accumulate floating-point sums in
//! traversal order and stay on the canonical CSR.

use crate::bits::BitMask;
use crate::{Graph, NodeId};
use std::sync::Arc;

/// Node renumbering policy of a store or snapshot. `Identity` is the
/// default and costs nothing; `Bfs` builds a permuted compute mirror at
/// snapshot-build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutPolicy {
    /// Keep external ids as internal ids (no mirror is built).
    #[default]
    Identity,
    /// Per-component breadth-first visitation order.
    Bfs,
}

impl LayoutPolicy {
    /// All policies, in the order the CLI documents them.
    pub const ALL: [LayoutPolicy; 2] = [LayoutPolicy::Identity, LayoutPolicy::Bfs];

    /// The canonical lowercase name (`identity`, `bfs`).
    pub fn as_str(self) -> &'static str {
        match self {
            LayoutPolicy::Identity => "identity",
            LayoutPolicy::Bfs => "bfs",
        }
    }
}

impl std::str::FromStr for LayoutPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "identity" => Ok(LayoutPolicy::Identity),
            "bfs" => Ok(LayoutPolicy::Bfs),
            other => Err(format!(
                "unknown layout policy '{other}' (expected identity or bfs)"
            )),
        }
    }
}

impl std::fmt::Display for LayoutPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bidirectional external↔internal id translation for one renumbered
/// graph. Identity maps carry no allocation and translate in `O(1)`
/// with no memory traffic, so un-renumbered stores pay nothing.
#[derive(Debug, Clone, Default)]
pub struct NodeMap {
    inner: Option<Arc<MapInner>>,
}

#[derive(Debug)]
struct MapInner {
    /// `to_internal[external] = internal`.
    to_internal: Vec<NodeId>,
    /// `to_external[internal] = external`.
    to_external: Vec<NodeId>,
}

impl NodeMap {
    /// The identity map (every id maps to itself).
    pub fn identity() -> NodeMap {
        NodeMap { inner: None }
    }

    /// Build a map from an ordering where `order[internal] = external`.
    /// `order` must be a permutation of `0..order.len()`.
    pub fn from_order(order: &[NodeId]) -> NodeMap {
        let mut to_internal = vec![0 as NodeId; order.len()];
        for (internal, &external) in order.iter().enumerate() {
            to_internal[external as usize] = internal as NodeId;
        }
        NodeMap {
            inner: Some(Arc::new(MapInner {
                to_internal,
                to_external: order.to_vec(),
            })),
        }
    }

    /// Whether this is the allocation-free identity map.
    pub fn is_identity(&self) -> bool {
        self.inner.is_none()
    }

    /// Translate an external (public, stable) id to the internal
    /// (permuted CSR) id.
    #[inline]
    pub fn to_internal(&self, external: NodeId) -> NodeId {
        match &self.inner {
            Some(m) => m.to_internal[external as usize],
            None => external,
        }
    }

    /// Translate an internal (permuted CSR) id back to the external id.
    #[inline]
    pub fn to_external(&self, internal: NodeId) -> NodeId {
        match &self.inner {
            Some(m) => m.to_external[internal as usize],
            None => internal,
        }
    }

    /// The raw internal→external table, or `None` for the identity map.
    /// Hot loops that consult the canonical order per comparison (the
    /// peeling tie-break shim) hoist this slice once instead of paying
    /// `to_external`'s `Option` + `Arc` indirection on every call.
    #[inline]
    pub fn external_ids(&self) -> Option<&[NodeId]> {
        self.inner.as_ref().map(|m| m.to_external.as_slice())
    }
}

/// A permuted compute mirror of a canonical graph: the renumbered CSR,
/// the [`NodeMap`] that translates ids, and the policy that produced
/// it. Built behind a store's layout policy at snapshot-build time;
/// see the module docs for how searches run on it with byte-identical
/// output.
#[derive(Debug)]
pub struct ComputeGraph {
    graph: Graph,
    map: NodeMap,
    policy: LayoutPolicy,
}

impl ComputeGraph {
    /// Build the mirror for `policy`. Returns `None` for
    /// [`LayoutPolicy::Identity`] (the canonical graph *is* the mirror;
    /// nothing to build or store).
    pub fn build(g: &Graph, policy: LayoutPolicy) -> Option<ComputeGraph> {
        let order = compute_order(g, policy)?;
        let graph = apply_order(g, &order);
        let map = NodeMap::from_order(&order);
        Some(ComputeGraph { graph, map, policy })
    }

    /// The renumbered CSR graph (internal ids).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The external↔internal translation map.
    pub fn map(&self) -> &NodeMap {
        &self.map
    }

    /// The policy that produced this mirror.
    pub fn policy(&self) -> LayoutPolicy {
        self.policy
    }
}

/// Compute the node ordering for `policy`: `order[internal] = external`.
/// Returns `None` for [`LayoutPolicy::Identity`].
pub fn compute_order(g: &Graph, policy: LayoutPolicy) -> Option<Vec<NodeId>> {
    match policy {
        LayoutPolicy::Identity => None,
        LayoutPolicy::Bfs => Some(bfs_order(g)),
    }
}

/// Renumber `g` by an explicit ordering (`order[internal] = external`;
/// must be a permutation of `0..g.n()`). The result is isomorphic to
/// `g` — same degrees, same edges up to relabeling — with the weights
/// lane, when present, permuted alongside the neighbour array. Public
/// so benchmarks and tests can apply custom (e.g. scrambling)
/// permutations through the same code path the store uses.
pub fn apply_order(g: &Graph, order: &[NodeId]) -> Graph {
    let n = g.n();
    assert_eq!(order.len(), n, "order must cover every node");
    let map = NodeMap::from_order(order);
    debug_assert!(
        {
            let mut seen = vec![false; n];
            order.iter().all(|&v| {
                let fresh = !seen[v as usize];
                seen[v as usize] = true;
                fresh
            })
        },
        "order must be a permutation"
    );

    let weighted = g.is_weighted();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut acc = 0usize;
    for &external in order {
        acc += g.degree(external);
        offsets.push(acc);
    }
    let mut neighbors = Vec::with_capacity(acc);
    let mut slot_weight: Option<Vec<f64>> = weighted.then(|| Vec::with_capacity(acc));
    // Per-row scratch: translate, then sort so adjacency stays sorted
    // (the CSR invariant `has_edge` and the views binary-search on).
    let mut row: Vec<(NodeId, f64)> = Vec::new();
    for &external in order {
        row.clear();
        for (u, w) in g.weighted_neighbors(external) {
            row.push((map.to_internal(u), w));
        }
        row.sort_unstable_by_key(|&(v, _)| v);
        neighbors.extend(row.iter().map(|&(v, _)| v));
        if let Some(sw) = &mut slot_weight {
            sw.extend(row.iter().map(|&(_, w)| w));
        }
    }
    let graph = Graph::from_csr(offsets, neighbors);
    match slot_weight {
        Some(sw) => graph.attach_weights(sw),
        None => graph,
    }
}

/// Per-component BFS visitation order: components in ascending order of
/// their smallest node id, frontier expanded in sorted-adjacency order.
fn bfs_order(g: &Graph) -> Vec<NodeId> {
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let mut visited = BitMask::with_len(n);
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n as NodeId {
        if visited.get(root as usize) {
            continue;
        }
        visited.set(root as usize);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in g.neighbors(v) {
                if !visited.get(u as usize) {
                    visited.set(u as usize);
                    queue.push_back(u);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::WeightedGraphBuilder;
    use crate::GraphBuilder;

    fn two_triangles() -> Graph {
        GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (2, 4)])
    }

    /// Every edge of `g` must appear, relabeled, in `p` and vice versa.
    fn assert_isomorphic(g: &Graph, p: &Graph, map: &NodeMap) {
        assert_eq!(g.n(), p.n());
        assert_eq!(g.m(), p.m());
        for v in 0..g.n() as NodeId {
            let pv = map.to_internal(v);
            assert_eq!(g.degree(v), p.degree(pv), "degree of {v}");
            let mut want: Vec<NodeId> =
                g.neighbors(v).iter().map(|&u| map.to_internal(u)).collect();
            want.sort_unstable();
            assert_eq!(p.neighbors(pv), want.as_slice(), "row of {v}");
        }
    }

    #[test]
    fn identity_policy_builds_no_mirror() {
        let g = two_triangles();
        assert!(ComputeGraph::build(&g, LayoutPolicy::Identity).is_none());
        assert!(compute_order(&g, LayoutPolicy::Identity).is_none());
        let map = NodeMap::identity();
        assert!(map.is_identity());
        assert_eq!(map.to_internal(5), 5);
        assert_eq!(map.to_external(5), 5);
    }

    #[test]
    fn bfs_policy_produces_an_isomorphic_graph() {
        let g = two_triangles();
        let mirror = ComputeGraph::build(&g, LayoutPolicy::Bfs).expect("non-identity builds");
        assert_eq!(mirror.policy(), LayoutPolicy::Bfs);
        assert_isomorphic(&g, mirror.graph(), mirror.map());
    }

    #[test]
    fn node_map_round_trips() {
        let g = two_triangles();
        let mirror = ComputeGraph::build(&g, LayoutPolicy::Bfs).unwrap();
        for v in 0..g.n() as NodeId {
            assert_eq!(mirror.map().to_external(mirror.map().to_internal(v)), v);
        }
    }

    #[test]
    fn bfs_order_keeps_components_contiguous() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let order = compute_order(&g, LayoutPolicy::Bfs).unwrap();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn apply_order_carries_weights() {
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 3.0);
        b.add_edge(2, 3, 0.5);
        let g = b.build().into_graph();
        let order = vec![3, 2, 1, 0];
        let p = apply_order(&g, &order);
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
    fn policy_names_round_trip() {
        for policy in LayoutPolicy::ALL {
            assert_eq!(policy.as_str().parse::<LayoutPolicy>(), Ok(policy));
            assert_eq!(format!("{policy}"), policy.as_str());
        }
        assert!("zcurve".parse::<LayoutPolicy>().is_err());
    }
}
