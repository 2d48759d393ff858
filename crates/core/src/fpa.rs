//! Fast Peeling Algorithm (FPA, §5.5 / Algorithm 2), the layer-based
//! pruning strategy (§5.7), multi-query handling (§5.6), and the FPA-DMG
//! ablation variant (§6.2.5).
//!
//! FPA sums on either [`Lane`]: edge counts, or edge weights (`W-FPA`).
//! Layers stay hop-distance layers, as removal safety is topological;
//! Θ, Lemma 5 and §5.7 carry over with strengths and `w_G`.
//!
//! Removable nodes: the farthest BFS layer from the query seed — always
//! safe to remove, because every node at distance `d` keeps a BFS parent
//! at distance `d − 1` (§5.2.2). Best node within the layer: maximum
//! density ratio `Θ_v = d_v / k_{v,S}` (Definition 7). Θ is *stable*
//! (Lemma 5): removing `u` only changes Θ of `u`'s neighbours, so an
//! indexed max-heap per layer, one entry per alive layer node whose key
//! moves in place, gives `O((|E|+|V|) log |V|)` total.
//!
//! Layer pruning picks the layers to strip from counts alone: the BFS
//! that layers the seed's neighbourhood sums each closed prefix's node
//! count, degree sum and internal edges, and keeps the prefix with the
//! largest DM. It stops at the first closed layer after which a bound
//! from those counts proves that no deeper prefix can win, so it walks
//! the whole component only when the bound never fires (or when
//! pruning is off). The peel state is then built over the kept layers
//! only: a stripped node is never touched again, and the strip is one
//! iteration that `removal_order` does not list node by node.
//!
//! With multiple query nodes the algorithm first materialises a Steiner
//! seed (shortest-path union) and protects it throughout, exactly as §5.6
//! prescribes. The seed's BFS stops once it has found every query node.

use crate::measure::{density_modularity_sums, Lane};
use crate::peel::{PeelState, TieRule};
use crate::{validate_query_nodes, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::layout::NodeMap;
use dmcs_graph::steiner::steiner_seed_visiting;
use dmcs_graph::traversal::{same_component_visiting, UNREACHABLE};
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, GraphError, NodeId};
use std::cmp::Reverse;
use std::ops::Range;

/// The Fast Peeling Algorithm.
///
/// ```
/// use dmcs_core::{CommunitySearch, Fpa};
/// use dmcs_graph::weighted::WeightedGraphBuilder;
///
/// // Heavy triangle, light triangle, light bridge.
/// let mut b = WeightedGraphBuilder::new(6);
/// for (u, v, w) in [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0),
///                   (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 0.5)] {
///     b.add_edge(u, v, w);
/// }
/// let r = Fpa::default().weighted().search(&b.build(), &[0]).unwrap();
/// assert_eq!(r.community, vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fpa {
    /// Apply the layer-based pruning strategy of §5.7 (the paper's default
    /// FPA; Fig 13 measures the difference). When enabled, whole outer
    /// layers are bulk-removed first, the best layer prefix is selected,
    /// and node-level peeling runs only on the outermost layer of the
    /// selected subgraph. The BFS that layers the component then stops
    /// as soon as no deeper prefix can be selected.
    pub layer_pruning: bool,
    /// Maximise the *weighted* density modularity (`W-FPA`): sum edge
    /// weights (unit weights when the graph carries none) instead of
    /// counting edges. On unit weights the answer is the unweighted one.
    pub weighted: bool,
}

impl Default for Fpa {
    fn default() -> Self {
        Fpa {
            layer_pruning: true,
            weighted: false,
        }
    }
}

impl Fpa {
    /// FPA without the layer-pruning strategy (the "FPA without
    /// layer-based pruning approach" arm of Fig 13).
    pub fn without_pruning() -> Self {
        Fpa {
            layer_pruning: false,
            ..Fpa::default()
        }
    }

    /// The same FPA on the weighted density modularity (see the
    /// `weighted` field).
    pub fn weighted(self) -> Self {
        Fpa {
            weighted: true,
            ..self
        }
    }

    fn run<L: Lane>(
        &self,
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
    ) -> Result<SearchResult, SearchError> {
        let mut setup = FpaSetup::prepare::<L>(g, query, ws, self.layer_pruning)?;
        // The bulk strip counts as one pass. Its result is the peel
        // state's starting point: DM(kept) ≥ DM(component) whenever
        // anything is stripped, so the kept prefix is exactly the best
        // snapshot a node-by-node strip would have left behind.
        let (start_layer, mut iterations) = if self.layer_pruning {
            (setup.target, 1)
        } else {
            (setup.max_dist(), 0)
        };
        let kept = &setup.order[..setup.layer_ends[start_layer as usize]];
        let mut st = if kept.len() == setup.order.len() {
            PeelState::<L>::new_in_component(g, kept, TieRule::PreferLater, ws)
        } else {
            PeelState::<L>::new_in(g, kept, TieRule::PreferLater, ws)
        };

        // Node-level peeling, outermost layer first.
        for d in (1..=start_layer).rev() {
            peel_layer_by_ratio(&mut st, &mut setup, d, &mut iterations);
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

/// FPA-DMG: FPA's distance-layer removable rule scored by the *unstable*
/// density-modularity gain Λ ((b)+(c) in Figure 3). Because Λ of every
/// candidate changes whenever `d_S` changes, each removal rescans the
/// whole layer — the paper measures it ~150× slower than FPA at equal
/// accuracy (Fig 14).
#[derive(Debug, Clone, Copy, Default)]
pub struct FpaDmg;

impl CommunitySearch for Fpa {
    fn name(&self) -> &'static str {
        if self.weighted {
            "W-FPA"
        } else {
            "FPA"
        }
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
        if self.weighted {
            self.run::<f64>(g, query, ws)
        } else {
            self.run::<u64>(g, query, ws)
        }
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
        let setup = FpaSetup::prepare::<u64>(g, query, ws, false)?;
        let mut st = PeelState::<u64>::new_in_component(g, &setup.order, TieRule::PreferLater, ws);
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
                        // Tie-break towards the smallest *canonical* node
                        // id, matching FPA's heap order and keeping the
                        // removal sequence layout-invariant.
                        (i, (st.gain(v), Reverse(setup.canon.to_external(v))))
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

/// Shared preparation: validation, Steiner seed, and the BFS that layers
/// the seed's neighbourhood, summed on the peel's lane.
struct FpaSetup {
    /// Every node the layered walk discovered, in BFS visit order, so
    /// each distance layer is one contiguous run (see
    /// [`FpaSetup::layer`]). A walk that ran to the end holds the seed's
    /// whole connected component; a stopped one holds the closed layers
    /// plus the layer after them.
    order: Vec<NodeId>,
    /// `dist[v]` = BFS distance from the seed (UNREACHABLE for nodes
    /// the walk never discovered). Peeling layer `d` overwrites its
    /// nodes' entries with their heap slots (see [`LayerHeap`]).
    dist: Vec<u32>,
    /// `layer_ends[d]` is one past the last position of layer `d` in
    /// `order`, for every layer the walk closed.
    layer_ends: Vec<usize>,
    /// The outermost layer of the §5.7 target prefix (see
    /// [`layered_walk`]).
    target: u32,
    /// Canonical external ordering for id tie-breaks (identity unless
    /// the workspace serves from a renumbered mirror — then every tie
    /// compares external ids so the removal sequence stays byte-
    /// identical to canonical-order execution).
    canon: NodeMap,
}

impl FpaSetup {
    /// `stop` lets the layered walk end once no deeper prefix can
    /// become the §5.7 target (layer pruning); without it the walk
    /// layers the whole component.
    fn prepare<L: Lane>(
        g: &Graph,
        query: &[NodeId],
        ws: &mut QueryWorkspace,
        stop: bool,
    ) -> Result<Self, SearchError> {
        validate_query_nodes(g, query)?;
        // Last-component memo: when every query node is a member of the
        // last whole component a query walked (same graph epoch — the
        // session layer arms the memo), that membership already proves
        // the query connected, so the validation BFS is skipped. On a
        // miss the validation BFS walks the first node's whole component
        // and memoizes it.
        let memo_hit = ws.memo_covers(query);
        if !memo_hit
            && !same_component_visiting(g, query, ws, |ws, component| {
                ws.memoize_component(component, g.n())
            })
        {
            return Err(SearchError::Graph(GraphError::QueryDisconnected));
        }
        // §5.6: merge multiple queries into a protected connected seed.
        // Its BFS stops once it has found every query node, and the seed
        // reads the distances of the nodes it found and the rows of the
        // nodes it scanned: note them for the caller's cache fingerprint.
        let seed = steiner_seed_visiting(g, query, ws, |ws, found| ws.note_component(found))?;
        let (mut dist, mut order) = ws.take_dist_order(g.n());
        let (layer_ends, target) = layered_walk::<L>(g, &seed, &mut dist, &mut order, stop);
        // Given the seed, the answer reads m (w_G), the rows of the
        // layers the walk closed and the degrees of the layer after them:
        // the nodes in `order`, which can reach past the Steiner walk's.
        // With those, their shards are an exact certificate.
        ws.note_component(&order);
        // A one-node query ran no validation BFS; only a walk that
        // reached the end of the component may fill the memo instead.
        if query.len() == 1 && !memo_hit && layer_ends.last() == Some(&order.len()) {
            ws.memoize_component(&order, g.n());
        }
        Ok(FpaSetup {
            order,
            dist,
            layer_ends,
            target,
            canon: ws.canon().clone(),
        })
    }

    /// Largest BFS distance the walk closed (the component's largest
    /// distance when the walk was not stopped).
    fn max_dist(&self) -> u32 {
        self.layer_ends.len() as u32 - 1
    }

    /// Positions of layer `d` in [`FpaSetup::order`].
    fn layer(&self, d: u32) -> Range<usize> {
        let d = d as usize;
        let start = if d == 0 { 0 } else { self.layer_ends[d - 1] };
        start..self.layer_ends[d]
    }

    /// Hand the BFS buffers back to the workspace pool.
    fn release(self, ws: &mut QueryWorkspace) {
        ws.put_dist_order(self.dist, self.order);
    }
}

/// Relative margin by which the deeper-prefix bound must undercut the
/// best prefix DM before the layered walk stops, so float rounding in
/// either value cannot drop a prefix that would have won.
const STOP_MARGIN: f64 = 1e-9;

/// Multi-source BFS from `seed` into the clean `dist` buffer, one layer
/// at a time. Every reached node is appended to `order`, which doubles
/// as the queue, so each layer is one contiguous run of it. Returns
/// where each closed layer ends, and the §5.7 target: the outermost
/// layer of the closed prefix (layers `0..=d`) with the largest DM, the
/// first on ties, so ties go to the smaller subgraph as with
/// [`TieRule::PreferLater`].
///
/// A prefix's DM comes from its node count, degree sum and internal
/// edges, summed on the lane `L`. An edge is internal to the prefix of
/// its deeper endpoint's layer: scanning a node adds its edges to
/// shallower layers (`up`) and to its own layer (`within`, seen from
/// both ends). A neighbour read as UNREACHABLE is being discovered right
/// now, one layer deeper, and counts for neither comparison. On counts
/// the comparisons select 1 or 0, which compiles to adding them as
/// integers rather than branching on them: their outcome varies edge by
/// edge, so a branch would mispredict often. Each node's degree is read
/// once, when it is discovered, so the next layer's degree sum is known
/// when the current one closes.
///
/// With `stop`, the walk ends at the first closed layer after which
/// [`deeper_prefix_bound`] proves that no deeper prefix can beat the
/// best one so far. The target is then the one a full walk would find,
/// and the walk has read only the rows of the closed layers and the
/// degrees of the layer after them.
fn layered_walk<L: Lane>(
    g: &Graph,
    seed: &[NodeId],
    dist: &mut [u32],
    order: &mut Vec<NodeId>,
    stop: bool,
) -> (Vec<usize>, u32) {
    let m = L::total(g);
    let mut layer_degrees = L::default();
    for &s in seed {
        if dist[s as usize] != 0 {
            dist[s as usize] = 0;
            order.push(s);
            layer_degrees += L::node(g, s);
        }
    }
    let mut layer_ends = Vec::new();
    // The closed prefix: internal edges and degree sum.
    let (mut edges, mut degree_sum) = (L::default(), L::default());
    let (mut best_dm, mut target) = (f64::NEG_INFINITY, 0u32);
    let mut start = 0usize;
    loop {
        let depth = layer_ends.len() as u32;
        let end = order.len();
        let (mut up, mut within, mut next_degrees) = (L::default(), L::default(), L::default());
        for head in start..end {
            let u = order[head];
            for (w, x) in L::row(g, u) {
                let dw = dist[w as usize];
                if dw == UNREACHABLE {
                    dist[w as usize] = depth + 1;
                    order.push(w);
                    next_degrees += L::node(g, w);
                }
                up += if dw < depth { x } else { L::default() };
                within += if dw == depth { x } else { L::default() };
            }
        }
        layer_ends.push(end);
        edges += up;
        edges += within / L::count(2);
        degree_sum += layer_degrees;
        let (l, d, m) = (edges.to_f64(), degree_sum.to_f64(), m.to_f64());
        let dm = density_modularity_sums(l, d, end, m);
        if dm > best_dm {
            best_dm = dm;
            target = depth;
        }
        let next = order.len() - end;
        if next == 0
            || (stop
                && best_dm > 0.0
                && deeper_prefix_bound(l, d, end, next, next_degrees.to_f64(), m)
                    < best_dm * (1.0 - STOP_MARGIN))
        {
            return (layer_ends, target);
        }
        start = end;
        layer_degrees = next_degrees;
    }
}

/// Upper bound on the DM of every prefix deeper than a closed prefix P
/// of `size` nodes, `edges` internal edges and degree sum D =
/// `degree_sum`, whose next layer holds `next` nodes with degree sum
/// `next_degrees`, in a graph of `m` edges. On weights the same argument
/// reads edge weight for edges, strengths for degrees and `w_G` for `m`.
///
/// P's c = D − 2·edges cut edges all end in the next layer. A deeper
/// prefix adds a node set X that contains the next layer, so X's degree
/// sum x is at least `next_degrees`, and the prefix gains the c cut
/// edges plus at most (x − c)/2 edges inside X. Its DM (Definition 2)
/// is therefore at most f(x) / (size + next), where
/// f(x) = edges + (x + c)/2 − (D + x)²/(4m). f is concave and peaks at
/// x = m − D, so f(max(next_degrees, m − D)) bounds it; when that is
/// not positive, 0 bounds every deeper DM.
fn deeper_prefix_bound(
    edges: f64,
    degree_sum: f64,
    size: usize,
    next: usize,
    next_degrees: f64,
    m: f64,
) -> f64 {
    let x = next_degrees.max(m - degree_sum);
    let (l, d) = (edges, degree_sum);
    let c = d - 2.0 * l;
    let f = l + (x + c) / 2.0 - (d + x) * (d + x) / (4.0 * m);
    f.max(0.0) / (size + next) as f64
}

/// Peel one distance layer with the stable density-ratio scorer and an
/// indexed max-heap, snapshotting after every removal (Algorithm 2
/// lines 7–14).
fn peel_layer_by_ratio<L: Lane>(
    st: &mut PeelState<'_, L>,
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
    let mut heap = LayerHeap {
        entries: layer
            .iter()
            .map(|&v| {
                debug_assert!(st.view().contains(v));
                Entry {
                    theta: st.ratio(v),
                    canon: canon_key(v),
                    node: v,
                }
            })
            .collect(),
        base: d,
        slots: &mut setup.dist,
    };
    heap.heapify();
    let mut changed: Vec<NodeId> = Vec::new();
    while let Some(v) = heap.pop() {
        // Stability (Lemma 5): only the neighbours' Θ changed. An alive
        // neighbour lies in layer d − 1 (`dist` d − 1) or in layer d,
        // whose alive nodes hold their heap slot as `dist` ≥ d.
        changed.clear();
        st.remove_visiting(v, |w| {
            if heap.slots[w as usize] >= d {
                changed.push(w);
            }
        });
        *iterations += 1;
        for &w in &changed {
            heap.set_theta(w, st.ratio(w));
        }
    }
}

/// A heap entry: the node's Θ, its canonical id for ties, and the node.
#[derive(Debug, Clone, Copy)]
struct Entry {
    theta: f64,
    canon: NodeId,
    node: NodeId,
}

impl Entry {
    /// Whether `self` pops before `other`: larger Θ first, then the
    /// smaller canonical id. Canonical ids are unique, so the pop order
    /// (and with it the removal sequence) is the same on every layout.
    /// Θ is never NaN: degrees are finite and `k = 0` maps to +∞.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        self.theta > other.theta || (self.theta == other.theta && self.canon < other.canon)
    }
}

/// One layer's max-heap with one entry per alive layer node, whose keys
/// change in place. Each entry's slot lives in its node's `dist` entry
/// as `base + slot`: the layer's `dist` entries belong to this pass
/// alone (the deeper layers are gone and `dist` is sparse-reset on
/// release), and a removed node's entry is never read again, since only
/// alive neighbours are looked up.
struct LayerHeap<'a> {
    entries: Vec<Entry>,
    /// The layer's distance.
    base: u32,
    /// The layered walk's `dist`, overwritten for the layer's nodes.
    slots: &'a mut [u32],
}

impl LayerHeap<'_> {
    fn heapify(&mut self) {
        debug_assert!((self.base as usize + self.entries.len()) < UNREACHABLE as usize);
        for (i, e) in self.entries.iter().enumerate() {
            self.slots[e.node as usize] = self.base + i as u32;
        }
        for i in (0..self.entries.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Remove and return the node that pops first.
    fn pop(&mut self) -> Option<NodeId> {
        let last = self.entries.pop()?;
        let Some(&top) = self.entries.first() else {
            return Some(last.node);
        };
        self.entries[0] = last;
        self.sift_down(0);
        Some(top.node)
    }

    /// Give the alive layer node `v` the key `theta`.
    fn set_theta(&mut self, v: NodeId, theta: f64) {
        let i = (self.slots[v as usize] - self.base) as usize;
        let old = self.entries[i].theta;
        self.entries[i].theta = theta;
        if theta > old {
            self.sift_up(i);
        } else if theta < old {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.entries[parent];
            if !e.before(&p) {
                break;
            }
            self.entries[i] = p;
            self.slots[p.node as usize] = self.base + i as u32;
            i = parent;
        }
        self.entries[i] = e;
        self.slots[e.node as usize] = self.base + i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let len = self.entries.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.entries[right].before(&self.entries[left]) {
                right
            } else {
                left
            };
            let c = self.entries[child];
            if !c.before(&e) {
                break;
            }
            self.entries[i] = c;
            self.slots[c.node as usize] = self.base + i as u32;
            i = child;
        }
        self.entries[i] = e;
        self.slots[e.node as usize] = self.base + i as u32;
    }
}

fn finish<L: Lane>(
    st: PeelState<'_, L>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::density_modularity;
    use dmcs_graph::weighted::WeightedGraphBuilder;
    use dmcs_graph::{GraphBuilder, ShardLayout, SubgraphView};

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

    /// The nodes `alg` noted for `query` on `g`, through a layout with
    /// one node per shard.
    fn noted_nodes(alg: &dyn CommunitySearch, g: &Graph, query: &[NodeId]) -> Vec<u32> {
        let mut ws = QueryWorkspace::new();
        ws.begin_shard_tracking(ShardLayout::new(g.n(), g.n()));
        alg.search_with_workspace(g, query, &mut ws).unwrap();
        ws.take_touched_shards().expect("FPA notes what it read")
    }

    #[test]
    fn layer_pruning_stops_the_walk_short_of_the_component() {
        // From 0 the triangle {0,1,2} closes at layer 1 with DM 5/12,
        // and the bound on any deeper prefix, f(3)/4 = (5 − 100/28)/4,
        // is below it: the walk stops with {3} discovered and {4,5}
        // never reached.
        let g = barbell();
        let whole: Vec<u32> = (0..6).collect();
        assert_eq!(noted_nodes(&Fpa::default(), &g, &[0]), vec![0, 1, 2, 3]);
        // A multi-node query also notes what its Steiner walk found,
        // every node within the farthest query node's distance of the
        // first: node 5 lies 3 hops from 0, and so does all of the
        // barbell.
        assert_eq!(noted_nodes(&Fpa::default(), &g, &[0, 5]), whole);
        // From 0 to 1 the Steiner walk stops one hop out, at {0,1,2},
        // and the layered walk from the seed {0,1} stops with {3}.
        assert_eq!(noted_nodes(&Fpa::default(), &g, &[0, 1]), vec![0, 1, 2, 3]);
        // Without pruning, and in FPA-DMG, the walk never stops.
        assert_eq!(noted_nodes(&Fpa::without_pruning(), &g, &[0]), whole);
        assert_eq!(noted_nodes(&FpaDmg, &g, &[0]), whole);
    }

    #[test]
    fn errors_propagate() {
        let g = barbell();
        assert!(Fpa::default().search(&g, &[]).is_err());
        assert!(Fpa::default().search(&g, &[42]).is_err());
        let disconnected = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(Fpa::default().search(&disconnected, &[0, 3]).is_err());
    }

    /// Barbell with weights: left triangle `left`, right triangle
    /// `right`, bridge 0.5.
    fn weighted_barbell(left: f64, right: f64) -> Graph {
        let mut b = WeightedGraphBuilder::new(6);
        for (u, v, w) in [(0, 1, left), (1, 2, left), (0, 2, left)] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [(3, 4, right), (4, 5, right), (3, 5, right)] {
            b.add_edge(u, v, w);
        }
        b.add_edge(2, 3, 0.5);
        b.build().into_graph()
    }

    #[test]
    fn weighted_fpa_finds_query_triangle() {
        let g = weighted_barbell(1.0, 1.0);
        for fpa in [Fpa::default(), Fpa::without_pruning()] {
            let r = fpa.weighted().search(&g, &[0]).unwrap();
            assert_eq!(r.community, vec![0, 1, 2]);
            assert!(
                (r.density_modularity - g.weighted_density_modularity(&[0, 1, 2])).abs() < 1e-12
            );
            // Unit triangles, but the 0.5 bridge: weights still count.
            for q in 0..6u32 {
                let wr = fpa.weighted().search(&g, &[q]).unwrap();
                let ur = Fpa::without_pruning().search(&g, &[q]).unwrap();
                assert_eq!(wr.community, ur.community, "query {q}");
            }
        }
    }

    #[test]
    fn weighted_fpa_on_a_laneless_graph_reads_unit_weights() {
        let topo = dmcs_gen::karate::karate();
        let unit = topo.clone().with_unit_weights();
        for q in [0u32, 16, 33] {
            let bare = Fpa::default().weighted().search(&topo, &[q]).unwrap();
            let lane = Fpa::default().weighted().search(&unit, &[q]).unwrap();
            assert_eq!(bare, lane, "query {q}");
        }
    }

    #[test]
    fn weights_steer_the_community() {
        // The right triangle massively heavier: from the bridge node 3
        // the community is its heavy triangle, and from node 2 (light
        // side) peeling keeps node 2.
        let g = weighted_barbell(0.2, 10.0);
        let r = Fpa::default().weighted().search(&g, &[3]).unwrap();
        assert_eq!(r.community, vec![3, 4, 5]);
        let r2 = Fpa::default().weighted().search(&g, &[2]).unwrap();
        assert!(r2.community.contains(&2));
        let r = Fpa::default().weighted().search(&g, &[0, 5]).unwrap();
        for v in [0, 2, 3, 5] {
            assert!(r.community.contains(&v));
        }
    }

    #[test]
    fn weighted_workspace_reuse_is_bit_identical() {
        let g = weighted_barbell(0.5, 4.0);
        let mut ws = QueryWorkspace::new();
        for fpa in [Fpa::default().weighted(), Fpa::without_pruning().weighted()] {
            for q in 0..6u32 {
                let fresh = fpa.search(&g, &[q]).unwrap();
                let reused = fpa.search_with_workspace(&g, &[q], &mut ws).unwrap();
                assert_eq!(fresh, reused, "query {q}");
            }
            assert!(fpa.search(&g, &[]).is_err());
            assert!(fpa.search(&g, &[9]).is_err());
        }
    }

    #[test]
    fn removal_order_nonempty_when_peeling_happens() {
        let g = barbell();
        let r = Fpa::without_pruning().search(&g, &[0]).unwrap();
        assert!(!r.removal_order.is_empty());
        assert!(r.iterations >= r.removal_order.len());
    }
}
