//! Fast Peeling Algorithm (FPA, §5.5 / Algorithm 2), the layer-based
//! pruning strategy (§5.7), multi-query handling (§5.6), and the FPA-DMG
//! ablation variant (§6.2.5).
//!
//! Removable nodes: the farthest BFS layer from the query seed — always
//! safe to remove, because every node at distance `d` keeps a BFS parent
//! at distance `d − 1` (§5.2.2). Best node within the layer: maximum
//! density ratio `Θ_v = d_v / k_{v,S}` (Definition 7). Θ is *stable*
//! (Lemma 5): removing `u` only changes Θ of `u`'s neighbours, so a lazy
//! max-heap per layer gives `O((|E|+|V|) log |V|)` total.
//!
//! Layer pruning picks the layers to strip from per-layer counts alone
//! (node count, degree sum, owned edges), which the one BFS that layers
//! the component also sums. The peel state is then built over the kept
//! layers only: a stripped node is never touched again, and the strip
//! is one iteration that `removal_order` does not list node by node.
//!
//! With multiple query nodes the algorithm first materialises a Steiner
//! seed (shortest-path union) and protects it throughout, exactly as §5.6
//! prescribes.

use crate::measure::{density_modularity_counts, density_ratio, dm_gain};
use crate::peel::{PeelState, TieRule};
use crate::{validate_query_nodes, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::layout::NodeMap;
use dmcs_graph::steiner::steiner_seed_with_workspace;
use dmcs_graph::traversal::{same_component_with_workspace, UNREACHABLE};
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, GraphError, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// The Fast Peeling Algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Fpa {
    /// Apply the layer-based pruning strategy of §5.7 (the paper's default
    /// FPA; Fig 13 measures the difference). When enabled, whole outer
    /// layers are bulk-removed first, the best layer prefix is selected,
    /// and node-level peeling runs only on the outermost layer of the
    /// selected subgraph.
    pub layer_pruning: bool,
}

impl Default for Fpa {
    fn default() -> Self {
        Fpa {
            layer_pruning: true,
        }
    }
}

impl Fpa {
    /// FPA without the layer-pruning strategy (the "FPA without
    /// layer-based pruning approach" arm of Fig 13).
    pub fn without_pruning() -> Self {
        Fpa {
            layer_pruning: false,
        }
    }
}

/// FPA-DMG: FPA's distance-layer removable rule scored by the *unstable*
/// density-modularity gain Λ ((b)+(c) in Figure 3). Because Λ of every
/// candidate changes whenever `d_S` changes, each removal rescans the
/// whole layer — the paper measures it ~150× slower than FPA at equal
/// accuracy (Fig 14).
#[derive(Debug, Clone, Copy, Default)]
pub struct FpaDmg;

impl CommunitySearch for Fpa {
    fn name(&self) -> &'static str {
        "FPA"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        self.search_with_workspace(g, query, &mut QueryWorkspace::new())
    }

    fn search_with_workspace(
        &self,
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
    ) -> Result<SearchResult, SearchError> {
        let mut setup = FpaSetup::prepare(g, query, ws)?;
        // The bulk strip counts as one pass. Its result is the peel
        // state's starting point: DM(kept) ≥ DM(component) whenever
        // anything is stripped, so the kept prefix is exactly the best
        // snapshot a node-by-node strip would have left behind.
        let (start_layer, mut iterations) = if self.layer_pruning {
            (prune_layers(&setup.layers, g.m() as u64), 1)
        } else {
            (setup.max_dist(), 0)
        };
        let kept = &setup.order[..setup.layers[start_layer as usize].end];
        let mut st = if kept.len() == setup.order.len() {
            PeelState::new_in_component(g, kept, TieRule::PreferLater, ws)
        } else {
            PeelState::new_in(g, kept, TieRule::PreferLater, ws)
        };

        // Node-level peeling, outermost layer first.
        for d in (1..=start_layer).rev() {
            peel_layer_by_ratio(g, &mut st, &mut setup, d, &mut iterations);
            if self.layer_pruning {
                // §5.7: node-level peeling applies only to the outermost
                // layer of the selected subgraph.
                break;
            }
        }
        let result = finish(st, iterations, ws);
        setup.release(ws);
        result
    }
}

impl CommunitySearch for FpaDmg {
    fn name(&self) -> &'static str {
        "FPA-DMG"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        self.search_with_workspace(g, query, &mut QueryWorkspace::new())
    }

    fn search_with_workspace(
        &self,
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
    ) -> Result<SearchResult, SearchError> {
        let setup = FpaSetup::prepare(g, query, ws)?;
        let mut st = PeelState::new_in_component(g, &setup.order, TieRule::PreferLater, ws);
        let mut iterations = 0usize;
        for d in (1..=setup.max_dist()).rev() {
            // Candidates: the nodes at distance d, all alive (removals so
            // far were deeper). Λ is unstable, so we rescan for the
            // maximum after every removal.
            let mut cand = setup.order[setup.layer(d)].to_vec();
            while !cand.is_empty() {
                let (pos, _) = cand
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let k = st.view().local_degree(v) as u64;
                        let dv = g.degree(v) as u64;
                        // Tie-break towards the smallest *canonical* node
                        // id, matching FPA's heap order and keeping the
                        // removal sequence layout-invariant.
                        (
                            i,
                            (
                                dm_gain(st.m(), k, st.d_s(), dv),
                                std::cmp::Reverse(setup.canon.to_external(v)),
                            ),
                        )
                    })
                    .max_by_key(|&(_, key)| key)
                    .expect("cand non-empty");
                let v = cand.swap_remove(pos);
                st.remove(v);
                iterations += 1;
            }
        }
        let result = finish(st, iterations, ws);
        setup.release(ws);
        result
    }
}

/// One BFS distance layer: where it ends in the visit order, plus the
/// counts §5.7 pruning reads.
#[derive(Debug, Clone, Copy, Default)]
struct Layer {
    /// One past the layer's last position in [`FpaSetup::order`].
    end: usize,
    /// Sum of the full-graph degrees of the layer's nodes.
    degree_sum: u64,
    /// Edges from a layer node to a shallower one (each seen once).
    up: u64,
    /// Edges inside the layer (each seen once from either endpoint).
    within_twice: u64,
}

impl Layer {
    /// Edges whose deeper endpoint lies in this layer — the edges that
    /// stripping the layer removes.
    fn owned_edges(&self) -> u64 {
        self.up + self.within_twice / 2
    }
}

/// Shared preparation: validation, Steiner seed, and one BFS that layers
/// the seed's connected component and counts each layer.
struct FpaSetup {
    /// Every node of the seed's connected component in BFS visit order,
    /// so each distance layer is one contiguous run (see
    /// [`FpaSetup::layer`]).
    order: Vec<NodeId>,
    /// `dist[v]` = BFS distance from the seed (UNREACHABLE outside the
    /// component).
    dist: Vec<u32>,
    /// `layers[d]` describes the nodes at BFS distance `d`.
    layers: Vec<Layer>,
    /// Canonical external ordering for id tie-breaks (identity unless
    /// the workspace serves from a renumbered mirror — then every tie
    /// compares external ids so the removal sequence stays byte-
    /// identical to canonical-order execution).
    canon: NodeMap,
}

impl FpaSetup {
    fn prepare(g: &Graph, query: &[NodeId], ws: &mut QueryWorkspace) -> Result<Self, SearchError> {
        validate_query_nodes(g, query)?;
        // Last-component memo: when every query node is a member of the
        // component the previous query explored (same graph epoch — the
        // session layer arms the memo), that membership already proves
        // the query connected, so the validation BFS is skipped.
        let memo_hit = ws.memo_covers(query);
        if !memo_hit && !same_component_with_workspace(g, query, ws) {
            return Err(SearchError::Graph(GraphError::QueryDisconnected));
        }
        // §5.6: merge multiple queries into a protected connected seed.
        let seed = steiner_seed_with_workspace(g, query, ws)?;
        let (mut dist, mut order) = ws.take_dist_order(g.n());
        let layers = layered_bfs(g, &seed, &mut dist, &mut order);
        if !memo_hit {
            ws.memoize_component(&order, g.n());
        }
        // Shard-scoped caching: the answer reads only this component and
        // the graph's edge count m, and the caller's fingerprint pins
        // both — record which shards the component intersects.
        ws.note_component(&order);
        Ok(FpaSetup {
            order,
            dist,
            layers,
            canon: ws.canon().clone(),
        })
    }

    /// Largest BFS distance in the component.
    fn max_dist(&self) -> u32 {
        self.layers.len() as u32 - 1
    }

    /// Positions of layer `d` in [`FpaSetup::order`].
    fn layer(&self, d: u32) -> Range<usize> {
        let d = d as usize;
        let start = if d == 0 { 0 } else { self.layers[d - 1].end };
        start..self.layers[d].end
    }

    /// Hand the BFS buffers back to the workspace pool.
    fn release(self, ws: &mut QueryWorkspace) {
        ws.put_dist_order(self.dist, self.order);
    }
}

/// Multi-source BFS from `seed` into the clean `dist` buffer. Every
/// reached node is appended to `order`, which doubles as the queue; BFS
/// visits layer by layer, so each layer is one contiguous run of it.
/// The same pass sums each layer's degrees and the edges it owns: an
/// edge belongs to the layer of its deeper endpoint, the layer whose
/// strip removes it. A neighbour read as UNREACHABLE is being found
/// right now, one layer deeper, and counts for neither comparison. The
/// comparisons are added as integers rather than branched on: their
/// outcome varies edge by edge, so a branch would mispredict often.
fn layered_bfs(
    g: &Graph,
    seed: &[NodeId],
    dist: &mut [u32],
    order: &mut Vec<NodeId>,
) -> Vec<Layer> {
    for &s in seed {
        if dist[s as usize] != 0 {
            dist[s as usize] = 0;
            order.push(s);
        }
    }
    let mut layers = Vec::new();
    let mut cur = Layer::default();
    let mut head = 0usize;
    while head < order.len() {
        let u = order[head];
        let du = dist[u as usize];
        if du as usize > layers.len() {
            // First node of the next layer: close the current one.
            cur.end = head;
            layers.push(std::mem::take(&mut cur));
        }
        head += 1;
        let (mut up, mut within) = (0u64, 0u64);
        for &w in g.neighbors(u) {
            let dw = dist[w as usize];
            if dw == UNREACHABLE {
                dist[w as usize] = du + 1;
                order.push(w);
            }
            up += u64::from(dw < du);
            within += u64::from(dw == du);
        }
        cur.degree_sum += g.degree(u) as u64;
        cur.up += up;
        cur.within_twice += within;
    }
    cur.end = order.len();
    layers.push(cur);
    layers
}

/// §5.7 bulk phase, on the per-layer counts alone: simulate stripping
/// whole outermost layers and return the outermost layer of the prefix
/// with the largest DM (ties prefer the smaller subgraph, matching
/// [`TieRule::PreferLater`]; the last layer means "strip nothing"). The
/// caller peels that prefix and never touches the stripped layers.
fn prune_layers(layers: &[Layer], m: u64) -> u32 {
    let mut l: u64 = layers.iter().map(Layer::owned_edges).sum();
    let mut dsum: u64 = layers.iter().map(|x| x.degree_sum).sum();
    let last = layers.len() - 1;
    let mut best_dm = density_modularity_counts(l, dsum, layers[last].end, m);
    let mut target = last;
    for d in (1..=last).rev() {
        l -= layers[d].owned_edges();
        dsum -= layers[d].degree_sum;
        let dm = density_modularity_counts(l, dsum, layers[d - 1].end, m);
        if dm >= best_dm {
            best_dm = dm;
            target = d - 1;
        }
    }
    target as u32
}

/// Peel one distance layer with the stable density-ratio scorer and a
/// lazy max-heap, snapshotting after every removal (Algorithm 2 lines
/// 7–14).
fn peel_layer_by_ratio(
    g: &Graph,
    st: &mut PeelState<'_>,
    setup: &mut FpaSetup,
    d: u32,
    iterations: &mut usize,
) {
    let layer = &setup.order[setup.layer(d)];
    // Canonical tie-break key, hoisted to a plain slice read (identity
    // maps translate for free).
    let ext = setup.canon.external_ids();
    let canon_key = |v: NodeId| match ext {
        Some(e) => e[v as usize],
        None => v,
    };
    // Layer membership rides the distance array instead of a hash set:
    // `dist[v] == d` means "still in the layer" (every layer-`d` node is
    // alive when its layer comes up — removals so far were in deeper
    // layers), and an accepted removal retires the entry to UNREACHABLE.
    // The layers beyond `d` were already stripped or peeled and `dist` is
    // sparse-reset wholesale on release, so the mutation is private to
    // this pass.
    let dist = &mut setup.dist;
    // Heap entries order by (Θ, canonical external id descending-Reverse);
    // the trailing internal id is the node to operate on and never decides
    // the order (canonical ids are unique), so pop order — and therefore
    // the removal sequence — is identical across layout policies.
    let mut heap: BinaryHeap<(OrdF64, Reverse<NodeId>, NodeId)> =
        BinaryHeap::with_capacity(layer.len());
    for &v in layer {
        debug_assert!(st.view().contains(v));
        let theta = density_ratio(g.degree(v) as u64, st.view().local_degree(v) as u64);
        heap.push((OrdF64(theta), Reverse(canon_key(v)), v));
    }
    let mut neighbors: Vec<NodeId> = Vec::new();
    while let Some((OrdF64(theta), _, v)) = heap.pop() {
        if dist[v as usize] != d {
            continue; // already removed
        }
        let current = density_ratio(g.degree(v) as u64, st.view().local_degree(v) as u64);
        if theta != current && !(theta.is_infinite() && current.is_infinite()) {
            heap.push((OrdF64(current), Reverse(canon_key(v)), v));
            continue; // stale entry; re-queue with the fresh Θ
        }
        dist[v as usize] = UNREACHABLE;
        // Stability (Lemma 5): only neighbours' Θ changed; re-queue the
        // same-layer ones. The scratch vec is reused across removals —
        // the borrow on the view ends before `remove` needs it mutably.
        neighbors.clear();
        neighbors.extend(st.view().alive_neighbors(v));
        st.remove(v);
        *iterations += 1;
        for &w in &neighbors {
            if dist[w as usize] == d {
                let t = density_ratio(g.degree(w) as u64, st.view().local_degree(w) as u64);
                heap.push((OrdF64(t), Reverse(canon_key(w)), w));
            }
        }
    }
}

fn finish(
    st: PeelState<'_>,
    iterations: usize,
    ws: &mut QueryWorkspace,
) -> Result<SearchResult, SearchError> {
    let (community, dm, removal_order) = st.finish_in(ws);
    Ok(SearchResult {
        community,
        density_modularity: dm,
        removal_order,
        iterations,
    })
}

/// Total-ordered f64 for the Θ heap (Θ is never NaN: degrees are finite
/// and `k = 0` maps to +∞). Shared with the weighted FPA's layer scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("Θ is never NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::density_modularity;
    use dmcs_graph::{GraphBuilder, SubgraphView};

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn fpa_finds_query_triangle() {
        let g = barbell();
        for fpa in [Fpa::default(), Fpa::without_pruning()] {
            let r = fpa.search(&g, &[0]).unwrap();
            assert_eq!(r.community, vec![0, 1, 2], "pruning={}", fpa.layer_pruning);
            assert!((r.density_modularity - density_modularity(&g, &[0, 1, 2])).abs() < 1e-12);
        }
    }

    #[test]
    fn fpa_dmg_finds_query_triangle() {
        let g = barbell();
        let r = FpaDmg.search(&g, &[5]).unwrap();
        assert_eq!(r.community, vec![3, 4, 5]);
    }

    #[test]
    fn results_are_connected_and_contain_queries() {
        let g = barbell();
        for q in 0..6u32 {
            for alg in [
                &Fpa::default() as &dyn CommunitySearch,
                &Fpa::without_pruning(),
                &FpaDmg,
            ] {
                let r = alg.search(&g, &[q]).unwrap();
                assert!(r.community.contains(&q), "{} lost query {q}", alg.name());
                let view = SubgraphView::from_nodes(&g, &r.community);
                assert!(view.is_connected(), "{} disconnected for {q}", alg.name());
            }
        }
    }

    #[test]
    fn multi_query_seed_is_protected() {
        let g = barbell();
        let r = Fpa::default().search(&g, &[0, 5]).unwrap();
        // The Steiner path 0..5 passes through 2 and 3: all must survive.
        for v in [0, 2, 3, 5] {
            assert!(r.community.contains(&v), "seed node {v} was peeled");
        }
        let view = SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn whole_component_when_query_spans_it() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let r = Fpa::default().search(&g, &[0, 1, 2]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn other_components_excluded() {
        let mut b = GraphBuilder::new(9);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            b.add_edge(u, v);
        }
        for &(u, v) in &[(4, 5), (5, 6), (4, 6), (6, 7), (7, 8)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let r = Fpa::default().search(&g, &[5]).unwrap();
        assert!(r.community.iter().all(|&v| (4..9).contains(&v)));
    }

    #[test]
    fn pruning_and_nonpruning_agree_on_small_graphs() {
        // On the barbell both find the exact triangle; pruning only
        // changes *which* snapshots are examined.
        let g = barbell();
        let a = Fpa::default().search(&g, &[1]).unwrap();
        let b = Fpa::without_pruning().search(&g, &[1]).unwrap();
        assert_eq!(a.community, b.community);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let g = barbell();
        let mut ws = QueryWorkspace::new();
        for alg in [
            &Fpa::default() as &dyn CommunitySearch,
            &Fpa::without_pruning(),
            &FpaDmg,
        ] {
            for q in 0..6u32 {
                let fresh = alg.search(&g, &[q]).unwrap();
                let reused = alg.search_with_workspace(&g, &[q], &mut ws).unwrap();
                assert_eq!(fresh, reused, "{} query {q}", alg.name());
            }
        }
    }

    #[test]
    fn component_memo_reuse_is_bit_identical() {
        // Two disjoint triangles with tails: consecutive same-component
        // queries hit the memo; a query in the other component replaces
        // it. Results must match a memo-free workspace bit for bit.
        let g = GraphBuilder::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (4, 6),
                (6, 7),
            ],
        );
        let queries: &[&[NodeId]] = &[&[0], &[1], &[0, 3], &[4], &[7, 5], &[6], &[2], &[0, 1, 2]];
        for alg in [
            &Fpa::default() as &dyn CommunitySearch,
            &Fpa::without_pruning(),
            &FpaDmg,
        ] {
            let mut plain = QueryWorkspace::new();
            let mut memoed = QueryWorkspace::new();
            memoed.arm_component_memo((u64::MAX, 0));
            for q in queries {
                let want = alg.search_with_workspace(&g, q, &mut plain).unwrap();
                let got = alg.search_with_workspace(&g, q, &mut memoed).unwrap();
                assert_eq!(want, got, "{} query {q:?}", alg.name());
            }
            assert!(
                memoed.memo_hits() >= 4,
                "{}: consecutive same-component queries must hit, got {}",
                alg.name(),
                memoed.memo_hits()
            );
            // Disconnected queries still error with the memo armed.
            assert!(alg.search_with_workspace(&g, &[0, 4], &mut memoed).is_err());
        }
    }

    #[test]
    fn errors_propagate() {
        let g = barbell();
        assert!(Fpa::default().search(&g, &[]).is_err());
        assert!(Fpa::default().search(&g, &[42]).is_err());
        let disconnected = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(Fpa::default().search(&disconnected, &[0, 3]).is_err());
    }

    #[test]
    fn removal_order_nonempty_when_peeling_happens() {
        let g = barbell();
        let r = Fpa::without_pruning().search(&g, &[0]).unwrap();
        assert!(!r.removal_order.is_empty());
        assert!(r.iterations >= r.removal_order.len());
    }
}
