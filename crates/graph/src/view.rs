//! Mutable *alive-mask* views over an immutable [`Graph`].
//!
//! The DMCS peeling framework (Algorithm 1) removes one node per iteration.
//! Rebuilding a graph per removal would cost `O(n + m)` each time; a
//! [`SubgraphView`] instead keeps a boolean alive-mask plus per-node *local
//! degree* `k_{v,S}` (the number of alive neighbours — exactly the `k_{v,S}`
//! of Definitions 5–7), so removal is `O(deg(v))` and all peeling state the
//! measures need is maintained incrementally.

use crate::bits::BitMask;
use crate::layout::NodeMap;
use crate::store::ShardLayout;
use crate::{Graph, NodeId};

/// A node-induced subgraph of a [`Graph`] supporting cheap node removal.
#[derive(Debug, Clone)]
pub struct SubgraphView<'g> {
    graph: &'g Graph,
    /// Alive mask, one bit per node (see [`BitMask`]).
    alive: BitMask,
    /// `k_{v,S}`: number of alive neighbours of `v` (meaningful only while
    /// `alive[v]`, but kept consistent for dead nodes too).
    local_deg: Vec<u32>,
    n_alive: usize,
    /// Number of edges with both endpoints alive (`l_S`).
    m_alive: u64,
}

impl<'g> SubgraphView<'g> {
    /// View containing every node of `graph`.
    pub fn full(graph: &'g Graph) -> Self {
        let n = graph.n();
        let local_deg = (0..n as NodeId).map(|v| graph.degree(v) as u32).collect();
        let mut alive = BitMask::with_len(n);
        for v in 0..n {
            alive.set(v);
        }
        SubgraphView {
            graph,
            alive,
            local_deg,
            n_alive: n,
            m_alive: graph.m() as u64,
        }
    }

    /// View containing exactly `nodes`.
    pub fn from_nodes(graph: &'g Graph, nodes: &[NodeId]) -> Self {
        let n = graph.n();
        let mut alive = BitMask::with_len(n);
        for &v in nodes {
            alive.set(v as usize);
        }
        let mut local_deg = vec![0u32; n];
        let mut m_alive = 0u64;
        for &v in nodes {
            let mut d = 0u32;
            for &w in graph.neighbors(v) {
                if alive.get(w as usize) {
                    d += 1;
                    if v < w {
                        m_alive += 1;
                    }
                }
            }
            local_deg[v as usize] = d;
        }
        SubgraphView {
            graph,
            alive,
            local_deg,
            n_alive: nodes.len(),
            m_alive,
        }
    }

    /// The underlying immutable graph.
    #[inline]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Is `v` in the view?
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.alive.get(v as usize)
    }

    /// Number of alive nodes (`|S|`).
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// Number of alive edges (`l_S`).
    #[inline]
    pub fn m_alive(&self) -> u64 {
        self.m_alive
    }

    /// `k_{v,S}`: degree of `v` counting only alive neighbours.
    #[inline]
    pub fn local_degree(&self, v: NodeId) -> u32 {
        self.local_deg[v as usize]
    }

    /// Remove `v` from the view. Returns the number of alive edges that were
    /// incident to `v` (i.e. `k_{v,S}` at removal time).
    ///
    /// Panics in debug builds if `v` is already removed.
    pub fn remove(&mut self, v: NodeId) -> u32 {
        let row = self.graph.neighbors(v).iter().map(|&w| (w, ()));
        self.remove_visiting(v, row, |_, _| {})
    }

    /// [`SubgraphView::remove`] in one scan of `row`, which must be `v`'s
    /// row in CSR order with any per-slot payload (such as the edge
    /// weight): `visit(w, x)` runs for each neighbour `w` still alive,
    /// after its local degree dropped, so a caller learns the neighbours
    /// whose `k_{w,S}` changed without scanning the row again.
    #[inline]
    pub fn remove_visiting<T>(
        &mut self,
        v: NodeId,
        row: impl Iterator<Item = (NodeId, T)>,
        mut visit: impl FnMut(NodeId, T),
    ) -> u32 {
        debug_assert!(self.alive.get(v as usize), "removing dead node {v}");
        self.alive.clear(v as usize);
        let k = self.local_deg[v as usize];
        for (w, x) in row {
            if self.alive.get(w as usize) {
                self.local_deg[w as usize] -= 1;
                visit(w, x);
            }
        }
        self.n_alive -= 1;
        self.m_alive -= k as u64;
        k
    }

    /// Re-insert a previously removed node (used by algorithms that undo
    /// speculative removals). `O(deg(v))`.
    pub fn restore(&mut self, v: NodeId) {
        debug_assert!(!self.alive.get(v as usize), "restoring alive node {v}");
        self.alive.set(v as usize);
        let mut k = 0u32;
        for &w in self.graph.neighbors(v) {
            if self.alive.get(w as usize) {
                self.local_deg[w as usize] += 1;
                k += 1;
            }
        }
        self.local_deg[v as usize] = k;
        self.n_alive += 1;
        self.m_alive += k as u64;
    }

    /// Iterate alive nodes in ascending id order. `O(n/64 + |S|)` per
    /// full pass — the bitset skips dead regions a word at a time.
    pub fn iter_alive(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive.iter_ones().map(|v| v as NodeId)
    }

    /// Collect alive nodes into a vector.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.iter_alive().collect()
    }

    /// Iterate alive neighbours of `v`.
    #[inline]
    pub fn alive_neighbors<'a>(&'a self, v: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(move |&w| self.alive.get(w as usize))
    }

    /// Restrict the view to the connected component containing `seed`,
    /// removing all other alive nodes. Returns the component size, or 0 if
    /// `seed` itself is not alive.
    pub fn retain_component(&mut self, seed: NodeId) -> usize {
        if !self.contains(seed) {
            return 0;
        }
        let n = self.graph.n();
        let mut in_comp = BitMask::with_len(n);
        let mut queue = std::collections::VecDeque::new();
        in_comp.set(seed as usize);
        queue.push_back(seed);
        let mut size = 1usize;
        while let Some(u) = queue.pop_front() {
            for w in self.alive_neighbors(u).collect::<Vec<_>>() {
                if !in_comp.get(w as usize) {
                    in_comp.set(w as usize);
                    size += 1;
                    queue.push_back(w);
                }
            }
        }
        let to_remove: Vec<NodeId> = self
            .iter_alive()
            .filter(|&v| !in_comp.get(v as usize))
            .collect();
        for v in to_remove {
            self.remove(v);
        }
        size
    }

    /// True if the alive subgraph is connected (an empty view counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        let Some(seed) = self.iter_alive().next() else {
            return true;
        };
        let mut seen = BitMask::with_len(self.graph.n());
        let mut stack = vec![seed];
        seen.set(seed as usize);
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for w in self.alive_neighbors(u) {
                if !seen.get(w as usize) {
                    seen.set(w as usize);
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n_alive
    }
}

/// Recyclable per-query allocations for repeated community searches.
///
/// Building a [`SubgraphView`] costs two `O(n)` allocations (alive mask +
/// local degrees), and distance-layered algorithms add an `O(n)` BFS
/// array. A serving workload runs thousands of queries over one shared
/// graph, so a `QueryWorkspace` pools those buffers: take them with
/// [`QueryWorkspace::view`] / [`QueryWorkspace::take_dist`], give them
/// back with [`QueryWorkspace::recycle`] / [`QueryWorkspace::put_dist`],
/// and the next query reuses the capacity instead of re-allocating.
///
/// The alive mask is reset *sparsely* (only the entries the previous
/// query touched), so recycling costs `O(|component|)`, not `O(n)`.
/// Workspaces are plain owned state: keep one per worker thread.
///
/// A workspace can additionally **track the shards a query touches**
/// (see [`QueryWorkspace::begin_shard_tracking`]): the search algorithms
/// call [`note_component`](QueryWorkspace::note_component) on the nodes
/// their answer depends on, and the caller collects the touched shard
/// set afterwards — the ingredient of shard-scoped cache fingerprints.
///
/// When a workspace serves queries **on a renumbered compute mirror**
/// (see [`crate::layout::ComputeGraph`]), the session installs the
/// mirror's [`NodeMap`] as the workspace's *canonical order* via
/// [`QueryWorkspace::set_canon`]. The peeling kernels then break every
/// node-id tie by canonical external id, and
/// [`note_component`](QueryWorkspace::note_component) translates the
/// internal component back to external ids before mapping shard indices
/// — so shard fingerprints keep external semantics whatever substrate
/// executed the query. The default canon is the identity map, which
/// costs nothing and leaves canonical-substrate behaviour untouched.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    alive: Option<BitMask>,
    local_deg: Option<Vec<u32>>,
    dist: Option<Vec<u32>>,
    /// Pooled BFS visit-order list paired with `dist` (see
    /// [`QueryWorkspace::take_dist_order`]).
    order: Option<Vec<NodeId>>,
    /// Canonical external ordering of the graph this workspace queries
    /// (identity unless serving from a renumbered mirror).
    canon: NodeMap,
    /// Pooled visited mask for validation BFS
    /// ([`crate::traversal::same_component_with_workspace`]).
    visited: Option<BitMask>,
    /// Pooled BFS frontier/visited-list paired with `visited` (doubles
    /// as the sparse-reset list, so recycling is `O(|reached|)`).
    visit_queue: Option<Vec<NodeId>>,
    /// Pooled `f64` per-node scratch (the weighted algorithms' local
    /// incident-weight array `w_{v,S}`).
    weights: Option<Vec<f64>>,
    /// Present between `begin_shard_tracking` and `take_touched_shards`.
    shard_tracking: Option<ShardTracker>,
    /// Last-component memo (present iff armed; see
    /// [`QueryWorkspace::arm_component_memo`]).
    memo: Option<ComponentMemo>,
}

/// The workspace's last-component memo: consecutive queries landing in
/// the same connected component of the same graph epoch skip the
/// connectivity-validation BFS — membership of every query node in one
/// memoized component already proves the query connected. Armed per
/// graph epoch by the session layer; a query against a different epoch
/// can never hit.
#[derive(Debug)]
struct ComponentMemo {
    /// The `(store_id, version)` pair of the snapshot the memo is valid
    /// for (see `Snapshot::epoch_key`): store ids are process-unique and
    /// versions move on every effective mutation, so a stale hit is
    /// impossible — unlike pointer-keying, which an allocator reusing a
    /// freed graph's address would defeat.
    epoch: (u64, u64),
    /// The memoized component, in any order (empty when none is
    /// memoized); kept to clear `member` sparsely.
    nodes: Vec<NodeId>,
    /// Membership mask over the memoized component.
    member: BitMask,
    /// Number of queries that reused the memoized component.
    hits: u64,
}

impl ComponentMemo {
    /// Drop the memoized component, clearing its membership bits.
    fn forget(&mut self) {
        for &v in &self.nodes {
            self.member.clear(v as usize);
        }
        self.nodes.clear();
    }
}

/// Shards touched by the current query (installed by
/// [`QueryWorkspace::begin_shard_tracking`]).
#[derive(Debug)]
struct ShardTracker {
    layout: ShardLayout,
    touched: Vec<bool>,
    /// Shards not yet in `touched`: noting stops once none is left.
    unmarked: usize,
    /// Whether any component was noted — distinguishes "query touched
    /// no shards" (impossible for a served answer) from "the algorithm
    /// never reported", so error paths fall back to conservative
    /// all-shard fingerprints.
    noted: bool,
}

impl QueryWorkspace {
    /// An empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        QueryWorkspace::default()
    }

    /// Build a view containing exactly `nodes`, reusing pooled buffers
    /// when available. Semantically identical to
    /// [`SubgraphView::from_nodes`].
    pub fn view<'g>(&mut self, graph: &'g Graph, nodes: &[NodeId]) -> SubgraphView<'g> {
        let n = graph.n();
        let mut alive = self.alive.take().unwrap_or_default();
        let mut local_deg = self.local_deg.take().unwrap_or_default();
        debug_assert!(alive.is_clear(), "recycled mask not clean");
        debug_assert!(
            local_deg.iter().all(|&d| d == 0),
            "recycled degrees not clean"
        );
        alive.resize(n);
        local_deg.resize(n, 0);
        for &v in nodes {
            alive.set(v as usize);
        }
        let mut m_alive = 0u64;
        for &v in nodes {
            let mut d = 0u32;
            for &w in graph.neighbors(v) {
                if alive.get(w as usize) {
                    d += 1;
                    if v < w {
                        m_alive += 1;
                    }
                }
            }
            local_deg[v as usize] = d;
        }
        SubgraphView {
            graph,
            alive,
            local_deg,
            n_alive: nodes.len(),
            m_alive,
        }
    }

    /// Return a view's buffers to the pool. `nodes` must be the node set
    /// the view was built from; only those entries are reset, so the
    /// clean-buffer invariant holds in `O(|nodes|)`.
    pub fn recycle(&mut self, view: SubgraphView<'_>, nodes: &[NodeId]) {
        let SubgraphView {
            mut alive,
            mut local_deg,
            ..
        } = view;
        for &v in nodes {
            alive.clear(v as usize);
            local_deg[v as usize] = 0;
        }
        self.alive = Some(alive);
        self.local_deg = Some(local_deg);
    }

    /// Start recording which shards of `layout` the next query touches.
    /// Any previous tracking state is discarded.
    pub fn begin_shard_tracking(&mut self, layout: ShardLayout) {
        self.shard_tracking = Some(ShardTracker {
            touched: vec![false; layout.shards()],
            unmarked: layout.shards(),
            layout,
            noted: false,
        });
    }

    /// Install the canonical external ordering the search kernels break
    /// node-id ties by. Sessions serving from a renumbered compute
    /// mirror pass the mirror's map; the default identity map keeps
    /// canonical-substrate execution bit-for-bit unchanged.
    pub fn set_canon(&mut self, canon: NodeMap) {
        self.canon = canon;
    }

    /// The canonical ordering installed by [`QueryWorkspace::set_canon`]
    /// (identity by default). Kernels clone it at query entry — a cheap
    /// `Arc` bump, or free for the identity map.
    pub fn canon(&self) -> &NodeMap {
        &self.canon
    }

    /// Record that the query's answer depends on `nodes`: together with
    /// the edge count m and the total edge weight w_G, the rows of
    /// everything noted must determine it, so that an update with both
    /// endpoints outside the noted nodes that keeps m and w_G cannot
    /// change it. FPA notes the nodes its layered BFS discovered (the
    /// whole component unless layer pruning stopped the walk early), and
    /// for a multi-node query also the nodes its Steiner seed's BFS
    /// found, every node within the farthest query node's distance of
    /// the first. NCA notes the component it peels, and a top-k
    /// enumeration its query's component. `O(|nodes|)`, and it stops as soon
    /// as every shard is marked, so a walk of a large component pays for
    /// the nodes up to its last new shard only; a no-op when tracking is
    /// not active. Node ids are translated through the workspace's
    /// canonical map first, so mirror-served queries note the
    /// *external* shards their nodes live in.
    pub fn note_component(&mut self, nodes: &[NodeId]) {
        if let Some(t) = &mut self.shard_tracking {
            t.noted = true;
            for &v in nodes {
                if t.unmarked == 0 {
                    return;
                }
                let s = t.layout.shard_of(self.canon.to_external(v));
                if !t.touched[s] {
                    t.touched[s] = true;
                    t.unmarked -= 1;
                }
            }
        }
    }

    /// Take the pooled validation-BFS buffers: a visited [`BitMask`]
    /// covering `0..n` (all clear) and an empty frontier vector that
    /// doubles as the visited list. Pair with
    /// [`QueryWorkspace::put_visit`]; the same sparse-reset contract as
    /// every other pooled buffer, so steady-state connectivity checks
    /// allocate nothing.
    pub fn take_visit(&mut self, n: usize) -> (BitMask, Vec<NodeId>) {
        let mut visited = self.visited.take().unwrap_or_default();
        debug_assert!(visited.is_clear(), "recycled visited mask not clean");
        visited.resize(n);
        let mut queue = self.visit_queue.take().unwrap_or_default();
        queue.clear();
        (visited, queue)
    }

    /// Return the validation-BFS buffers to the pool, clearing exactly
    /// the bits of the nodes recorded in `queue` (every node the BFS
    /// visited — the frontier vector is never drained).
    pub fn put_visit(&mut self, mut visited: BitMask, mut queue: Vec<NodeId>) {
        for &v in &queue {
            visited.clear(v as usize);
        }
        queue.clear();
        self.visited = Some(visited);
        self.visit_queue = Some(queue);
    }

    /// Finish tracking and return the sorted shard indices the query
    /// touched, or `None` when tracking was never started or the
    /// algorithm never reported a component (callers then fall back to
    /// an all-shards fingerprint).
    pub fn take_touched_shards(&mut self) -> Option<Vec<u32>> {
        let t = self.shard_tracking.take()?;
        if !t.noted {
            return None;
        }
        Some(
            t.touched
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(s, _)| s as u32)
                .collect(),
        )
    }

    /// Take the pooled BFS-distance buffer, sized to `n` with **every
    /// entry equal to [`UNREACHABLE`](crate::traversal::UNREACHABLE)** —
    /// the same sparse-reset contract as the alive mask, so steady-state
    /// queries skip the `O(n)` re-initialisation entirely. Pair with
    /// [`QueryWorkspace::put_dist`], listing the nodes the query wrote.
    pub fn take_dist(&mut self, n: usize) -> Vec<u32> {
        let mut dist = self.dist.take().unwrap_or_default();
        if dist.len() != n {
            dist.clear();
            dist.resize(n, crate::traversal::UNREACHABLE);
        }
        debug_assert!(
            dist.iter().all(|&d| d == crate::traversal::UNREACHABLE),
            "recycled distance buffer not clean"
        );
        dist
    }

    /// Return the distance buffer to the pool, resetting exactly the
    /// entries the query wrote (`written` — typically the nodes of the
    /// searched component) back to `UNREACHABLE`.
    pub fn put_dist(&mut self, mut dist: Vec<u32>, written: &[NodeId]) {
        for &v in written {
            dist[v as usize] = crate::traversal::UNREACHABLE;
        }
        self.dist = Some(dist);
    }

    /// [`QueryWorkspace::take_dist`] plus an empty pooled list for a BFS
    /// to record its visit order in. Pair with
    /// [`QueryWorkspace::put_dist_order`]: the order lists every node
    /// whose distance the BFS wrote, so it doubles as the reset list.
    pub fn take_dist_order(&mut self, n: usize) -> (Vec<u32>, Vec<NodeId>) {
        (self.take_dist(n), self.order.take().unwrap_or_default())
    }

    /// Return the buffers of [`QueryWorkspace::take_dist_order`],
    /// resetting the distance of every node in `order`.
    pub fn put_dist_order(&mut self, dist: Vec<u32>, mut order: Vec<NodeId>) {
        self.put_dist(dist, &order);
        order.clear();
        self.order = Some(order);
    }

    /// Take the pooled per-node `f64` scratch buffer, sized to `n` with
    /// every entry 0.0 — the weighted algorithms' local incident-weight
    /// array. Same sparse-reset contract as the other buffers: pair with
    /// [`QueryWorkspace::put_weights`], listing the nodes written.
    pub fn take_weights(&mut self, n: usize) -> Vec<f64> {
        let mut weights = self.weights.take().unwrap_or_default();
        if weights.len() != n {
            weights.clear();
            weights.resize(n, 0.0);
        }
        debug_assert!(
            weights.iter().all(|&w| w == 0.0),
            "recycled weight buffer not clean"
        );
        weights
    }

    /// Return the weight buffer to the pool, resetting exactly the
    /// entries the query wrote back to 0.0.
    pub fn put_weights(&mut self, mut weights: Vec<f64>, written: &[NodeId]) {
        for &v in written {
            weights[v as usize] = 0.0;
        }
        self.weights = Some(weights);
    }

    /// Build a view over `nodes` when `nodes` is known to be a **closed
    /// component** — every neighbour of a member is a member (e.g. a
    /// full connected component). Then each node's local degree is its
    /// full degree and the edge count is half the degree sum, so the
    /// view costs `O(|nodes|)` instead of the `O(Σ deg)` edge scan of
    /// [`QueryWorkspace::view`]. Recycle with
    /// [`QueryWorkspace::recycle`] as usual.
    pub fn view_component<'g>(&mut self, graph: &'g Graph, nodes: &[NodeId]) -> SubgraphView<'g> {
        let n = graph.n();
        let mut alive = self.alive.take().unwrap_or_default();
        let mut local_deg = self.local_deg.take().unwrap_or_default();
        debug_assert!(alive.is_clear(), "recycled mask not clean");
        debug_assert!(
            local_deg.iter().all(|&d| d == 0),
            "recycled degrees not clean"
        );
        alive.resize(n);
        local_deg.resize(n, 0);
        let mut degree_sum = 0u64;
        for &v in nodes {
            alive.set(v as usize);
            let d = graph.degree(v) as u32;
            local_deg[v as usize] = d;
            degree_sum += u64::from(d);
        }
        debug_assert!(
            nodes
                .iter()
                .flat_map(|&v| graph.neighbors(v))
                .all(|&u| alive.get(u as usize)),
            "view_component requires a neighbour-closed node set"
        );
        SubgraphView {
            graph,
            alive,
            local_deg,
            n_alive: nodes.len(),
            m_alive: degree_sum / 2,
        }
    }

    /// Enable the last-component memo for the graph epoch identified by
    /// `epoch` (a `Snapshot::epoch_key`). Arming a different epoch
    /// clears any memoized component; arming the same epoch again is a
    /// no-op, so sessions call this unconditionally per query.
    pub fn arm_component_memo(&mut self, epoch: (u64, u64)) {
        match &mut self.memo {
            Some(m) if m.epoch == epoch => {}
            Some(m) => {
                m.forget();
                m.epoch = epoch;
            }
            None => {
                self.memo = Some(ComponentMemo {
                    epoch,
                    nodes: Vec::new(),
                    member: BitMask::new(),
                    hits: 0,
                });
            }
        }
    }

    /// Disable the memo (plan `off`): probes miss and stores are
    /// dropped until re-armed. The hit counter is discarded too.
    pub fn disarm_component_memo(&mut self) {
        self.memo = None;
    }

    /// Whether the memo is armed and every node of `query` lies in the
    /// memoized component; a `true` counts a hit. Membership of every
    /// query node in one connected component proves the query is
    /// connected, so callers skip their validation BFS on a hit. Query
    /// nodes must already be bounds-checked against the graph.
    pub fn memo_covers(&mut self, query: &[NodeId]) -> bool {
        let Some(m) = self.memo.as_mut() else {
            return false;
        };
        let covered = !query.is_empty()
            && query
                .iter()
                .all(|&q| (q as usize) < m.member.capacity() && m.member.get(q as usize));
        m.hits += u64::from(covered);
        covered
    }

    /// Memoize `component` (a whole connected component the current
    /// query walked, in any order: FPA's validation BFS, or a one-node
    /// layered walk that ran to the end) for subsequent
    /// [`memo_covers`](QueryWorkspace::memo_covers) probes. Replaces any
    /// previously memoized component, reusing its storage. A no-op when
    /// the memo is not armed.
    pub fn memoize_component(&mut self, component: &[NodeId], n: usize) {
        let Some(m) = self.memo.as_mut() else {
            return;
        };
        m.forget();
        m.member.resize(n);
        for &v in component {
            m.member.set(v as usize);
        }
        m.nodes.extend_from_slice(component);
    }

    /// Number of queries that reused the memoized component since the
    /// memo was (last) armed — the `shared_bfs_reuses` observability
    /// counter. Zero while disarmed.
    pub fn memo_hits(&self) -> u64 {
        self.memo.as_ref().map_or(0, |m| m.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail.
        GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn full_view_matches_graph() {
        let g = triangle_plus_tail();
        let v = SubgraphView::full(&g);
        assert_eq!(v.n_alive(), 4);
        assert_eq!(v.m_alive(), 4);
        assert_eq!(v.local_degree(2), 3);
    }

    #[test]
    fn remove_updates_local_state() {
        let g = triangle_plus_tail();
        let mut v = SubgraphView::full(&g);
        let k = v.remove(3);
        assert_eq!(k, 1);
        assert_eq!(v.n_alive(), 3);
        assert_eq!(v.m_alive(), 3);
        assert_eq!(v.local_degree(2), 2);
        let k = v.remove(0);
        assert_eq!(k, 2);
        assert_eq!(v.m_alive(), 1);
        assert_eq!(v.local_degree(1), 1);
        assert_eq!(v.local_degree(2), 1);
    }

    #[test]
    fn restore_round_trips() {
        let g = triangle_plus_tail();
        let mut v = SubgraphView::full(&g);
        v.remove(2);
        v.restore(2);
        assert_eq!(v.n_alive(), 4);
        assert_eq!(v.m_alive(), 4);
        assert_eq!(v.local_degree(2), 3);
        assert_eq!(v.local_degree(1), 2);
    }

    #[test]
    fn from_nodes_counts_internal_edges_only() {
        let g = triangle_plus_tail();
        let v = SubgraphView::from_nodes(&g, &[0, 1, 3]);
        assert_eq!(v.n_alive(), 3);
        assert_eq!(v.m_alive(), 1); // only (0,1)
        assert_eq!(v.local_degree(3), 0);
    }

    #[test]
    fn retain_component_drops_disconnected() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let mut v = SubgraphView::full(&g);
        let size = v.retain_component(3);
        assert_eq!(size, 3);
        assert!(!v.contains(0));
        assert!(!v.contains(1));
        assert!(v.contains(2) && v.contains(3) && v.contains(4));
    }

    #[test]
    fn workspace_view_matches_from_nodes() {
        let g = triangle_plus_tail();
        let mut ws = QueryWorkspace::new();
        let nodes = [0u32, 1, 2, 3];
        let fresh = SubgraphView::from_nodes(&g, &nodes);
        let reused = ws.view(&g, &nodes);
        assert_eq!(reused.n_alive(), fresh.n_alive());
        assert_eq!(reused.m_alive(), fresh.m_alive());
        for v in 0..4u32 {
            assert_eq!(reused.local_degree(v), fresh.local_degree(v));
        }
        ws.recycle(reused, &nodes);
        // Second use over a different node set must be equally clean.
        let sub = [0u32, 1, 3];
        let again = ws.view(&g, &sub);
        let expect = SubgraphView::from_nodes(&g, &sub);
        assert_eq!(again.n_alive(), expect.n_alive());
        assert_eq!(again.m_alive(), expect.m_alive());
        assert!(!again.contains(2));
        ws.recycle(again, &sub);
    }

    #[test]
    fn workspace_recycle_resets_after_mutation() {
        let g = triangle_plus_tail();
        let mut ws = QueryWorkspace::new();
        let nodes = [0u32, 1, 2, 3];
        let mut v = ws.view(&g, &nodes);
        v.remove(3);
        v.remove(0);
        ws.recycle(v, &nodes);
        // The debug_assert inside view() verifies the clean invariant.
        let v2 = ws.view(&g, &[1, 2]);
        assert_eq!(v2.n_alive(), 2);
        assert_eq!(v2.m_alive(), 1);
        ws.recycle(v2, &[1, 2]);
    }

    #[test]
    fn workspace_dist_buffer_round_trips() {
        use crate::traversal::UNREACHABLE;
        let mut ws = QueryWorkspace::new();
        let mut d = ws.take_dist(5);
        assert_eq!(d, vec![UNREACHABLE; 5]);
        d[1] = 7;
        d[3] = 2;
        ws.put_dist(d, &[1, 3]);
        // Same size: handed back clean without a full refill.
        let d2 = ws.take_dist(5);
        assert_eq!(d2, vec![UNREACHABLE; 5]);
        ws.put_dist(d2, &[]);
        // Size change: re-initialised from scratch.
        let d3 = ws.take_dist(3);
        assert_eq!(d3, vec![UNREACHABLE; 3]);
    }

    #[test]
    fn workspace_weight_buffer_round_trips() {
        let mut ws = QueryWorkspace::new();
        let mut w = ws.take_weights(4);
        assert_eq!(w, vec![0.0; 4]);
        w[1] = 2.5;
        w[3] = 0.125;
        ws.put_weights(w, &[1, 3]);
        // Same size: handed back clean without a full refill.
        let w2 = ws.take_weights(4);
        assert_eq!(w2, vec![0.0; 4]);
        ws.put_weights(w2, &[]);
        // Size change: re-initialised from scratch.
        assert_eq!(ws.take_weights(2), vec![0.0; 2]);
    }

    #[test]
    fn shard_tracking_records_touched_shards() {
        let mut ws = QueryWorkspace::new();
        // Not started: noting is a no-op and take yields None.
        ws.note_component(&[1, 2]);
        assert_eq!(ws.take_touched_shards(), None);

        let layout = ShardLayout::new(8, 4); // shard_size 2
        ws.begin_shard_tracking(layout);
        ws.note_component(&[0, 1, 5]); // shards 0 and 2
        ws.note_component(&[7]); // shard 3
        assert_eq!(ws.take_touched_shards(), Some(vec![0, 2, 3]));
        // Every shard is marked before the list ends (node 3 marks the
        // last one, shard 1): the rest of the list and later notes
        // change nothing.
        ws.begin_shard_tracking(layout);
        ws.note_component(&[6, 0, 5, 1, 3, 2, 7, 4]);
        ws.note_component(&[0, 7]);
        assert_eq!(ws.take_touched_shards(), Some(vec![0, 1, 2, 3]));
        // Repeats within one shard do not count as new shards.
        ws.begin_shard_tracking(layout);
        ws.note_component(&[0, 1, 0, 1]);
        ws.note_component(&[6, 7, 2]);
        assert_eq!(ws.take_touched_shards(), Some(vec![0, 1, 3]));
        // Tracking is consumed.
        ws.note_component(&[2]);
        assert_eq!(ws.take_touched_shards(), None);

        // Started but never noted (error path): conservative None.
        ws.begin_shard_tracking(layout);
        assert_eq!(ws.take_touched_shards(), None);
    }

    #[test]
    fn shard_noting_translates_through_the_canon_map() {
        // Reversal map: internal v ↔ external 7-v over 8 nodes.
        let order: Vec<NodeId> = (0..8u32).rev().collect();
        let mut ws = QueryWorkspace::new();
        assert!(ws.canon().is_identity());
        ws.set_canon(NodeMap::from_order(&order));
        let layout = ShardLayout::new(8, 4); // shard_size 2
        ws.begin_shard_tracking(layout);
        // Internal 0 and 1 are external 7 and 6 → shard 3.
        ws.note_component(&[0, 1]);
        assert_eq!(ws.take_touched_shards(), Some(vec![3]));
        ws.set_canon(NodeMap::identity());
        ws.begin_shard_tracking(layout);
        ws.note_component(&[0, 1]);
        assert_eq!(ws.take_touched_shards(), Some(vec![0]));
    }

    #[test]
    fn dist_order_buffers_round_trip_clean() {
        use crate::traversal::UNREACHABLE;
        let mut ws = QueryWorkspace::new();
        let (mut dist, mut order) = ws.take_dist_order(4);
        assert!(order.is_empty());
        for (d, v) in [3u32, 1].into_iter().enumerate() {
            dist[v as usize] = d as u32;
            order.push(v);
        }
        ws.put_dist_order(dist, order);
        let (dist, order) = ws.take_dist_order(4);
        assert_eq!(dist, vec![UNREACHABLE; 4], "order entries were reset");
        assert!(order.is_empty());
    }

    #[test]
    fn visit_buffers_round_trip_clean() {
        let mut ws = QueryWorkspace::new();
        let (mut visited, mut queue) = ws.take_visit(70);
        assert!(visited.is_clear() && queue.is_empty());
        for v in [0u32, 65] {
            visited.set(v as usize);
            queue.push(v);
        }
        ws.put_visit(visited, queue);
        let (visited, queue) = ws.take_visit(70);
        assert!(visited.is_clear(), "sparse reset restored the mask");
        assert!(queue.is_empty());
        ws.put_visit(visited, queue);
    }

    #[test]
    fn view_component_matches_edge_scan_view() {
        // Two components; {0,1,2} is neighbour-closed in this graph.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]);
        let mut ws = QueryWorkspace::new();
        let comp = [0u32, 1, 2];
        let fast = ws.view_component(&g, &comp);
        let slow = SubgraphView::from_nodes(&g, &comp);
        assert_eq!(fast.n_alive(), slow.n_alive());
        assert_eq!(fast.m_alive(), slow.m_alive());
        for &v in &comp {
            assert_eq!(fast.local_degree(v), slow.local_degree(v));
        }
        assert!(!fast.contains(3));
        ws.recycle(fast, &comp);
        // Recycled buffers stay clean for the other component.
        let other = [3u32, 4, 5];
        let again = ws.view_component(&g, &other);
        assert_eq!(again.n_alive(), 3);
        assert_eq!(again.m_alive(), 2);
        ws.recycle(again, &other);
    }

    #[test]
    fn component_memo_hits_and_epoch_invalidation() {
        let mut ws = QueryWorkspace::new();
        // Disarmed: probes miss, stores drop, counter reads zero.
        assert!(!ws.memo_covers(&[0]));
        let comp = [2u32, 0, 1];
        ws.memoize_component(&comp, 6);
        assert!(!ws.memo_covers(&[0]));
        assert_eq!(ws.memo_hits(), 0);

        ws.arm_component_memo((7, 0));
        assert!(!ws.memo_covers(&[0]), "nothing stored yet");
        ws.memoize_component(&comp, 6);
        assert!(ws.memo_covers(&[2, 0]), "members hit");
        assert!(!ws.memo_covers(&[1, 3]), "3 not a member");
        assert!(!ws.memo_covers(&[9]), "out of mask range");
        assert!(!ws.memo_covers(&[]), "empty never hits");
        assert_eq!(ws.memo_hits(), 1);

        // Same epoch re-arm keeps the memo; new epoch clears it.
        ws.arm_component_memo((7, 0));
        assert!(ws.memo_covers(&[1]));
        ws.arm_component_memo((7, 1));
        assert!(!ws.memo_covers(&[1]));

        // Replacing the memo clears the old membership sparsely.
        ws.memoize_component(&comp, 6);
        ws.memoize_component(&[4, 3], 6);
        assert!(!ws.memo_covers(&[0]), "old component gone");
        assert!(ws.memo_covers(&[3, 4]));

        ws.disarm_component_memo();
        assert_eq!(ws.memo_hits(), 0);
        assert!(!ws.memo_covers(&[3]));
    }

    #[test]
    fn connectivity_check() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut v = SubgraphView::full(&g);
        assert!(v.is_connected());
        v.remove(1);
        assert!(!v.is_connected());
        v.remove(0);
        assert!(v.is_connected());
    }
}
