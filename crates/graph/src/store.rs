//! The versioned graph store: one adjacency, the newest immutable CSR
//! [`Snapshot`], plus an overlay of the rows changed since it was built.
//!
//! The serving problem this solves: community search is rarely one-shot
//! — the network gains edges while queries keep arriving. The peeling
//! algorithms need an immutable CSR [`Graph`]; [`GraphStore`] keeps the
//! newest one as its *base* and records writes as edited copies of the
//! rows they touch, like a buffer pool's base image plus dirty pages
//! folded in at a checkpoint:
//!
//! ```text
//!            writes                         reads
//!   insert_edge / remove_edge        snapshot() ── Snapshot (pinned)
//!            │                               │
//!            ▼                               ▼
//!   overlay of changed rows ──(lazy rebuild ──▶ base: Arc<Graph> @ version v
//!   over the base CSR          on first read
//!                              after a mutation)
//! ```
//!
//! - **Mutations** check first, then copy: a refused op touches nothing,
//!   and an effective one copies each endpoint's row from the base into
//!   the overlay on first touch, edits it, and bumps the monotonic
//!   [`version`](GraphStore::version) plus the counters of the shards its
//!   endpoints fall in. The CSR is *not* rebuilt eagerly, so a burst of
//!   updates costs `O(deg)` each, not `O(|V| + |E|)` each.
//! - **Reads** call [`GraphStore::snapshot`], which rebuilds the CSR at
//!   most once per version (on the first read after a mutation) and
//!   hands out cheap [`Snapshot`] clones after that. The rebuild is one
//!   pass in node order: each run of rows between overlay rows is copied
//!   from the base, one copy per array, and each overlay row is spliced
//!   in; the result becomes the new base and the overlay empties. Every
//!   epoch gets fresh arrays; a snapshot's buffers are never written
//!   after it is built. Under a non-identity [`LayoutPolicy`] each epoch
//!   also builds its renumbered mirror (see [`Snapshot::compute`]).
//! - The node-id space is partitioned into `P` range **shards** (see
//!   [`ShardLayout`]), each with its own mutation counter. The counters
//!   scope cache invalidation and feed the rebuild counters of
//!   [`RebuildStats`]; a rebuild's copy work does not depend on them.
//! - A [`Snapshot`] **pins** its epoch: an in-flight batch keeps the
//!   graph it started with while later updates land in the store, so
//!   concurrent serve-and-mutate never tears a query. The carried
//!   [`Snapshot::version`] orders epochs, and the carried
//!   [`Snapshot::shard_versions`] vector is what shard-scoped result
//!   caches validate their fingerprints against.

use crate::layout::{ComputeGraph, LayoutPolicy};
use crate::traversal::ComponentIndex;
use crate::weighted::{row_strength, valid_weight};
use crate::{Graph, GraphBuilder, NodeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Default shard count of a [`GraphStore`] (see [`ShardLayout`]).
///
/// Sixteen node-id-range shards keep per-shard versioning cheap (one
/// `u64` each) while a single-edge update moves at most 2/16 of the
/// counters that cached answers are validated against.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// Node-id-range partitioning of a graph into `P` shards.
///
/// The layout is fixed when the store is created: `shard_size` is
/// `ceil(n / P)` for the *initial* node count `n`, and
/// [`shard_of`](ShardLayout::shard_of) maps node `v` to shard
/// `min(v / shard_size, P - 1)`. Nodes added later land in the last
/// shard once they run past `shard_size * P`, so shard indices recorded
/// in cache fingerprints never go stale.
///
/// ```
/// use dmcs_graph::ShardLayout;
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
    /// [`Snapshot::freeze`], where there is no store to shard).
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
}

impl Default for ShardLayout {
    fn default() -> Self {
        ShardLayout::single()
    }
}

/// Process-unique store ids: versions only order mutations *within* one
/// store, so caches keyed by version alone could confuse two different
/// graphs at the same version. Every [`GraphStore`] (and every
/// standalone [`Snapshot::freeze`]) draws a fresh id; the id travels on
/// each [`Snapshot`] for cache keys to include.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

fn next_store_id() -> u64 {
    NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed)
}

/// An immutable view of the graph at one store epoch: a shared CSR
/// [`Graph`] plus the store version it was built from. Clones share the
/// underlying graph (an [`Arc`]), so pinning a snapshot per worker or
/// per batch is free.
///
/// Dereferences to [`Graph`], so a `&Snapshot` goes anywhere a `&Graph`
/// does:
///
/// ```
/// use dmcs_graph::{GraphBuilder, Snapshot};
///
/// let snap = Snapshot::freeze(GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]));
/// assert_eq!(snap.version(), 0);
/// assert_eq!(snap.n(), 3); // Deref to Graph
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    graph: Arc<Graph>,
    store_id: u64,
    version: u64,
    layout: ShardLayout,
    /// Per-shard counters at the epoch this snapshot was built (shared;
    /// snapshots are cloned per worker/batch).
    shard_versions: Arc<[u64]>,
    /// Locality-renumbered compute mirror, built when the store's
    /// [`LayoutPolicy`] is non-identity (see [`Snapshot::compute`]).
    compute: Option<Arc<ComputeGraph>>,
    /// Lazily computed connected-component index, shared by all clones
    /// of this epoch (see [`Snapshot::component_index`]).
    components: Arc<OnceLock<ComponentIndex>>,
}

impl Snapshot {
    /// Freeze a standalone graph as a version-0 snapshot — the bridge
    /// for static workloads (benchmark line-ups, examples) that have a
    /// [`Graph`] and no store. Frozen snapshots use the trivial
    /// one-shard layout and carry no compute mirror.
    pub fn freeze(graph: Graph) -> Snapshot {
        Snapshot {
            graph: Arc::new(graph),
            store_id: next_store_id(),
            version: 0,
            layout: ShardLayout::single(),
            shard_versions: Arc::from(vec![0u64]),
            compute: None,
            components: Arc::new(OnceLock::new()),
        }
    }

    /// The CSR graph this snapshot pins.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The store version this snapshot was built from. Version-keyed
    /// caches use this (together with [`Snapshot::store_id`]) as the
    /// staleness discriminator.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique id of the store (or `freeze` call) this snapshot
    /// came from. Cache keys include it so snapshots of *different*
    /// graphs that happen to share a version can never collide.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Whether two snapshots share the same underlying graph allocation
    /// (i.e. one is a clone of the other, not a rebuild).
    pub fn shares_graph(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.graph, &other.graph)
    }

    /// The node-id-range shard layout of the store this snapshot came
    /// from (the trivial single shard for [`Snapshot::freeze`]).
    pub fn shard_layout(&self) -> ShardLayout {
        self.layout
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.layout.shards()
    }

    /// Per-shard mutation counters at this snapshot's epoch.
    /// Shard-scoped caches record, per answer, the counters of the
    /// shards the answer's community touched, and replay the answer only
    /// while those counters still match the serving snapshot's.
    pub fn shard_versions(&self) -> &[u64] {
        &self.shard_versions
    }

    /// The epoch's shared [`shard_versions`](Snapshot::shard_versions)
    /// vector itself, for a record that outlives the snapshot (a cache
    /// entry's certificate) and must not copy it.
    pub fn shared_shard_versions(&self) -> Arc<[u64]> {
        Arc::clone(&self.shard_versions)
    }

    /// The locality-renumbered compute mirror, when the snapshot was
    /// built under a non-identity [`LayoutPolicy`]. `None` under the
    /// identity policy — the canonical graph *is* the layout, and
    /// identity stores pay neither build time nor memory for a mirror.
    ///
    /// Sessions serve unweighted FPA/NCA queries on the mirror: the
    /// kernels break every id tie by the mirror's canonical
    /// [`NodeMap`](crate::layout::NodeMap), so responses are
    /// byte-identical to canonical execution (see [`crate::layout`]).
    /// The store builds the mirror afresh for every epoch.
    pub fn compute(&self) -> Option<&ComputeGraph> {
        self.compute.as_deref()
    }

    /// The layout policy this snapshot was built under.
    pub fn layout_policy(&self) -> LayoutPolicy {
        self.compute
            .as_deref()
            .map_or(LayoutPolicy::Identity, ComputeGraph::policy)
    }

    /// The connected-component index of this epoch's graph, computed on
    /// first use and shared by every clone of the snapshot — the batch
    /// scheduler's grouping labels and the planner's skew statistics
    /// both read from here, so the union-find runs at most once per
    /// store epoch.
    pub fn component_index(&self) -> &ComponentIndex {
        self.components
            .get_or_init(|| ComponentIndex::compute(&self.graph))
    }

    /// A process-unique key identifying this snapshot's (store, epoch)
    /// pair — what workspace-level memoization uses to prove that two
    /// consecutive queries saw the same graph. Distinct stores never
    /// share a key (store ids are process-unique), and within a store
    /// the version moves on every effective mutation.
    pub fn epoch_key(&self) -> (u64, u64) {
        (self.store_id, self.version)
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.graph
    }
}

impl AsRef<Graph> for Snapshot {
    fn as_ref(&self) -> &Graph {
        &self.graph
    }
}

/// Counters describing the store's snapshot rebuilds — surfaced by
/// `--stats` and the serve daemon's `stats` op. The shard totals count,
/// per rebuild, the shards whose counter moved since the previous
/// snapshot (the part of the result cache the writes could invalidate)
/// and the shards whose counter did not; the rebuild's copy work is the
/// same either way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebuildStats {
    /// Number of shards in the store's layout.
    pub shards: usize,
    /// Snapshot rebuilds performed so far (reads served from the cached
    /// snapshot do not count).
    pub rebuilds: u64,
    /// Total, over all rebuilds, of the shards whose counter moved.
    pub shards_rebuilt: u64,
    /// Total, over all rebuilds, of the shards whose counter did not move.
    pub shards_reused: u64,
    /// Shards whose counter had moved before the most recent rebuild.
    pub last_dirty_shards: usize,
    /// Wall-clock seconds of the most recent rebuild.
    pub last_rebuild_seconds: f64,
}

/// A row changed since the base snapshot: the sorted neighbours and, on a
/// weighted store, their weights (empty on an unweighted store).
#[derive(Debug, Clone, Default, PartialEq)]
struct Row {
    nbrs: Vec<NodeId>,
    weights: Vec<f64>,
}

/// Row `v` of `g` as its neighbour and slot-weight slices (no weights
/// without a lane). A node past `g`'s range reads as an empty row.
fn base_row(g: &Graph, v: NodeId) -> (&[NodeId], &[f64]) {
    let v = v as usize;
    let Some(&[lo, hi]) = g.offsets.get(v..v + 2) else {
        return (&[], &[]);
    };
    let weights = g
        .weights
        .as_deref()
        .map_or(&[][..], |l| &l.slot_weight[lo..hi]);
    (&g.neighbors[lo..hi], weights)
}

struct Inner {
    /// The newest snapshot, current iff `base.version == version`. It
    /// fixes the shard layout and whether the store is weighted (it
    /// carries a weights lane), and the next rebuild copies it forward.
    base: Snapshot,
    /// Rows changed since `base` was built; every node added since has
    /// one. The live graph is the base with these rows swapped in.
    overlay: BTreeMap<NodeId, Row>,
    n: usize,
    m: usize,
    /// Mutation counter: bumped by every effective mutation.
    version: u64,
    /// Per-shard mutation counters: an effective edge op bumps the shards
    /// of *both* endpoints (once, if they coincide), `add_node` the shard
    /// of the new node.
    shard_versions: Vec<u64>,
    stats: RebuildStats,
    /// Node renumbering policy applied to every snapshot built from
    /// here on (identity by default: no mirror, no cost).
    layout_policy: LayoutPolicy,
}

impl Inner {
    fn weighted(&self) -> bool {
        self.base.graph.is_weighted()
    }

    /// Row `v` of the live graph: the overlay's copy, else the base's.
    fn row(&self, v: NodeId) -> (&[NodeId], &[f64]) {
        match self.overlay.get(&v) {
            Some(row) => (&row.nbrs, &row.weights),
            None => base_row(&self.base.graph, v),
        }
    }

    /// The overlay row of `v`, copied from the base on first touch.
    fn row_mut(&mut self, v: NodeId) -> &mut Row {
        let base = &self.base.graph;
        self.overlay.entry(v).or_insert_with(|| {
            let (nbrs, weights) = base_row(base, v);
            Row {
                nbrs: nbrs.to_vec(),
                weights: weights.to_vec(),
            }
        })
    }

    /// Whether `{u, v}` joins two distinct nodes of the live graph.
    fn valid_pair(&self, u: NodeId, v: NodeId) -> bool {
        u != v && (u as usize) < self.n && (v as usize) < self.n
    }

    /// Slots of the edge `{u, v}` in both endpoints' rows, or `None` when
    /// it is absent. An asymmetric pair of rows (impossible by
    /// construction) reads as absent, so no op edits half an edge.
    fn find(&self, u: NodeId, v: NodeId) -> Option<(usize, usize)> {
        if !self.valid_pair(u, v) {
            return None;
        }
        let pu = self.row(u).0.binary_search(&v).ok()?;
        let pv = self.row(v).0.binary_search(&u).ok()?;
        Some((pu, pv))
    }

    /// Bump the version and the shard counters of both endpoints of an
    /// effective edge op (once if they share a shard).
    fn touch_edge(&mut self, u: NodeId, v: NodeId) {
        let (su, sv) = (self.base.layout.shard_of(u), self.base.layout.shard_of(v));
        self.shard_versions[su] += 1;
        if sv != su {
            self.shard_versions[sv] += 1;
        }
        self.version += 1;
    }

    fn insert_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> bool {
        if !self.valid_pair(u, v) {
            return false;
        }
        let (Err(pu), Err(pv)) = (
            self.row(u).0.binary_search(&v),
            self.row(v).0.binary_search(&u),
        ) else {
            return false;
        };
        let weighted = self.weighted();
        for (a, b, pos) in [(u, v, pu), (v, u, pv)] {
            let row = self.row_mut(a);
            row.nbrs.insert(pos, b);
            if weighted {
                row.weights.insert(pos, w);
            }
        }
        self.m += 1;
        self.touch_edge(u, v);
        true
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some((pu, pv)) = self.find(u, v) else {
            return false;
        };
        let weighted = self.weighted();
        for (a, pos) in [(u, pu), (v, pv)] {
            let row = self.row_mut(a);
            row.nbrs.remove(pos);
            if weighted {
                row.weights.remove(pos);
            }
        }
        self.m -= 1;
        self.touch_edge(u, v);
        true
    }

    fn set_weight(&mut self, u: NodeId, v: NodeId, w: f64) -> Option<f64> {
        if !self.weighted() || !valid_weight(w) {
            return None;
        }
        let (pu, pv) = self.find(u, v)?;
        let old = *self.row(u).1.get(pu)?;
        if old != w {
            self.row_mut(u).weights[pu] = w;
            self.row_mut(v).weights[pv] = w;
            self.touch_edge(u, v);
        }
        Some(old)
    }

    /// Shards whose counter moved since the base was built.
    fn dirty_shards(&self) -> usize {
        self.shard_versions
            .iter()
            .zip(self.base.shard_versions.iter())
            .filter(|(live, base)| live != base)
            .count()
    }
}

/// The engine's storage layer: the newest CSR snapshot plus an overlay of
/// changed rows (see the [module docs](self)), safe to share across
/// serving threads (`&self` mutators; interior `RwLock`).
///
/// ```
/// use dmcs_graph::{GraphBuilder, GraphStore};
///
/// let store = GraphStore::from_graph(GraphBuilder::from_edges(4, &[(0, 1), (1, 2)]));
/// let pinned = store.snapshot(); // version 0
///
/// store.insert_edge(2, 3); // lands in the overlay only
/// assert_eq!(pinned.m(), 2, "pinned snapshot is immutable");
///
/// let fresh = store.snapshot(); // first read after the mutation: rebuild
/// assert_eq!(fresh.m(), 3);
/// assert_eq!(fresh.version(), 1);
/// assert_eq!(store.snapshot().version(), 1, "no mutation, no rebuild");
/// ```
pub struct GraphStore {
    // The id lives outside `Inner` so reads need not take the lock for it.
    id: u64,
    inner: RwLock<Inner>,
}

impl GraphStore {
    /// An empty store on `n` isolated nodes (default shard layout).
    pub fn new(n: usize) -> Self {
        GraphStore::with_shards(n, DEFAULT_SHARD_COUNT)
    }

    /// An empty store on `n` isolated nodes partitioned into `shards`
    /// node-id-range shards. (An empty *weighted* store is
    /// `GraphStore::from_graph(GraphBuilder::weighted(n).build())`.)
    pub fn with_shards(n: usize, shards: usize) -> Self {
        GraphStore::from_graph_sharded(GraphBuilder::new(n).build(), shards)
    }

    /// Seed the store from an immutable graph (default shard layout).
    /// The given CSR is adopted as the snapshot of the store's initial
    /// version, so reads before the first mutation cost nothing. The
    /// store is weighted iff `graph` carries a weights lane.
    pub fn from_graph(graph: Graph) -> Self {
        GraphStore::from_graph_sharded(graph, DEFAULT_SHARD_COUNT)
    }

    /// Seed the store from an immutable graph with an explicit shard
    /// count (see [`ShardLayout`]); the CSR is adopted as the initial
    /// snapshot exactly as in [`GraphStore::from_graph`].
    pub fn from_graph_sharded(graph: Graph, shards: usize) -> Self {
        let id = next_store_id();
        let layout = ShardLayout::new(graph.n(), shards);
        let shard_versions = vec![0; layout.shards()];
        let (n, m) = (graph.n(), graph.m());
        let base = Snapshot {
            graph: Arc::new(graph),
            store_id: id,
            version: 0,
            layout,
            shard_versions: Arc::from(shard_versions.as_slice()),
            compute: None,
            components: Arc::new(OnceLock::new()),
        };
        GraphStore {
            id,
            inner: RwLock::new(Inner {
                base,
                overlay: BTreeMap::new(),
                n,
                m,
                version: 0,
                shard_versions,
                stats: RebuildStats {
                    shards: layout.shards(),
                    ..RebuildStats::default()
                },
                layout_policy: LayoutPolicy::Identity,
            }),
        }
    }

    /// Set the layout policy at construction time (builder-style):
    /// `GraphStore::from_graph(g).with_layout(LayoutPolicy::Bfs)`.
    /// See [`GraphStore::set_layout_policy`].
    pub fn with_layout(self, policy: LayoutPolicy) -> Self {
        self.set_layout_policy(policy);
        self
    }

    /// The layout policy snapshots are currently built under.
    pub fn layout_policy(&self) -> LayoutPolicy {
        self.read().layout_policy
    }

    /// Change the node renumbering policy. Takes effect immediately: the
    /// base snapshot's compute mirror is rebuilt under the new policy
    /// (the canonical graph, version and component index are untouched —
    /// external ids never move, so already-pinned snapshots and caches
    /// stay valid).
    pub fn set_layout_policy(&self, policy: LayoutPolicy) {
        let mut inner = self.write();
        if inner.layout_policy == policy {
            return;
        }
        inner.layout_policy = policy;
        inner.base.compute = ComputeGraph::build(&inner.base.graph, policy).map(Arc::new);
    }

    // Poison recovery: a reader panicking mid-snapshot cannot corrupt
    // `Inner` (readers never mutate), mutators check every refusal
    // before they write, and a rebuild replaces the base wholesale, so a
    // poisoned guard still sees a coherent store. Serving threads keep
    // serving instead of inheriting another thread's panic.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Process-unique identity of this store (carried by its snapshots;
    /// see [`Snapshot::store_id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The store's mutation counter: monotonically nondecreasing, bumped
    /// by every effective `insert_edge`, `insert_edge_w`, `remove_edge`,
    /// `set_weight` and `add_node`.
    pub fn version(&self) -> u64 {
        self.read().version
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.read().n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.read().m
    }

    /// Edge test on the *live* graph (`O(log deg)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.read().row(u).0.binary_search(&v).is_ok()
    }

    /// Whether the store carries per-edge weights: iff the graph it was
    /// seeded from carries a weights lane. Weighted mutators only
    /// succeed on weighted stores.
    pub fn is_weighted(&self) -> bool {
        self.read().weighted()
    }

    /// Weight of edge `(u, v)` on the *live* graph (`Some(1.0)` per edge
    /// when the store is unweighted, `None` when the edge is absent).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let inner = self.read();
        let (nbrs, weights) = inner.row(u);
        let pos = nbrs.binary_search(&v).ok()?;
        Some(weights.get(pos).copied().unwrap_or(1.0))
    }

    /// Insert the undirected edge `{u, v}` into the live graph. Returns
    /// `false` (and changes nothing, including the version) for
    /// self-loops, out-of-range endpoints, or existing edges. Existing
    /// snapshots are unaffected; the next [`snapshot`](Self::snapshot)
    /// call rebuilds. On a weighted store the edge gets weight 1.0.
    pub fn insert_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.write().insert_edge(u, v, 1.0)
    }

    /// Insert the undirected edge `{u, v}` with weight `w` into the live
    /// (weighted) graph. Refused (returns `false`, changes nothing)
    /// under the [`insert_edge`](Self::insert_edge) rules, and also when
    /// the store is unweighted or `w` is non-finite or not strictly
    /// positive. Bumps the version on success, so version-keyed caches
    /// invalidate exactly as for a plain insert.
    pub fn insert_edge_w(&self, u: NodeId, v: NodeId, w: f64) -> bool {
        let mut inner = self.write();
        inner.weighted() && valid_weight(w) && inner.insert_edge(u, v, w)
    }

    /// Update the weight of the existing edge `{u, v}` on the live
    /// (weighted) graph, returning the previous weight. `None` (nothing
    /// changes) when the store is unweighted, the edge is absent, or `w`
    /// is invalid. A weight *change* bumps the store version (the next
    /// snapshot rebuilds and cached answers for the old epoch stop
    /// matching); re-setting the current weight is a version-preserving
    /// no-op.
    pub fn set_weight(&self, u: NodeId, v: NodeId, w: f64) -> Option<f64> {
        self.write().set_weight(u, v, w)
    }

    /// Remove the undirected edge `{u, v}` from the live graph. Returns
    /// `false` when absent.
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.write().remove_edge(u, v)
    }

    /// Append a fresh isolated node to the live graph; returns its id.
    /// Dirties exactly the shard the new node lands in (late nodes clamp
    /// to the last shard).
    pub fn add_node(&self) -> NodeId {
        let mut inner = self.write();
        let id = inner.n as NodeId;
        inner.overlay.insert(id, Row::default());
        inner.n += 1;
        let shard = inner.base.layout.shard_of(id);
        inner.shard_versions[shard] += 1;
        inner.version += 1;
        id
    }

    /// A snapshot of the current epoch. Rebuilds the CSR at most once
    /// per version — the first read after a mutation folds the overlay
    /// into a fresh CSR copied forward from the base, every other call
    /// is an `Arc` clone.
    pub fn snapshot(&self) -> Snapshot {
        {
            let inner = self.read();
            if inner.base.version == inner.version {
                return inner.base.clone();
            }
        }
        let mut inner = self.write();
        let inner = &mut *inner;
        // Double-checked: another writer may have rebuilt between locks.
        if inner.base.version == inner.version {
            return inner.base.clone();
        }
        let started = std::time::Instant::now();
        let graph = rebuild_csr(&inner.base.graph, &inner.overlay, inner.n);
        let compute = ComputeGraph::build(&graph, inner.layout_policy).map(Arc::new);
        let snap = Snapshot {
            graph: Arc::new(graph),
            store_id: self.id,
            version: inner.version,
            layout: inner.base.layout,
            shard_versions: Arc::from(inner.shard_versions.as_slice()),
            compute,
            components: Arc::new(OnceLock::new()),
        };
        // Shard counters only ever advance, so the new epoch's version
        // vector dominates the displaced one — the invariant cache
        // staleness checks rely on.
        debug_assert!(
            inner
                .base
                .shard_versions
                .iter()
                .zip(snap.shard_versions.iter())
                .all(|(old, new)| old <= new),
            "per-shard versions must be monotone across epochs"
        );
        let dirty = inner.dirty_shards();
        inner.stats.rebuilds += 1;
        inner.stats.shards_rebuilt += dirty as u64;
        inner.stats.shards_reused += (inner.stats.shards - dirty) as u64;
        inner.stats.last_dirty_shards = dirty;
        inner.stats.last_rebuild_seconds = started.elapsed().as_secs_f64();
        inner.overlay.clear();
        inner.base = snap.clone();
        snap
    }

    /// Rebuild counters (shard count, dirty-shard counts, timings) —
    /// see [`RebuildStats`].
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.read().stats
    }

    /// Number of node-id-range shards in the store's layout.
    pub fn shard_count(&self) -> usize {
        self.read().base.layout.shards()
    }

    /// The store's shard layout.
    pub fn shard_layout(&self) -> ShardLayout {
        self.read().base.layout
    }

    /// The live per-shard mutation counters: an effective edge op bumps
    /// the shards of *both* endpoints (once, if they coincide);
    /// `add_node` bumps the shard of the new node.
    pub fn shard_versions(&self) -> Vec<u64> {
        self.read().shard_versions.clone()
    }

    /// Number of shards whose counter moved since the newest snapshot —
    /// the shards whose cached answers the writes since then could
    /// invalidate. Zero means the next [`snapshot`](Self::snapshot) is a
    /// free `Arc` clone.
    pub fn dirty_shards(&self) -> usize {
        self.read().dirty_shards()
    }
}

/// Fold `overlay` into a fresh CSR of `n` nodes in one pass in node
/// order: each run of rows between overlay rows is copied from `base`,
/// one copy per array (offsets shifted by a constant; on a weighted
/// store the runs' slot weights and strengths too), and each overlay
/// row is appended in its place, its strength summed from its weights.
/// Appending into `with_capacity` buffers skips zero-initializing them.
/// Nodes past `base.n()` all have overlay rows, so the pass emits every
/// row exactly once.
fn rebuild_csr(base: &Graph, overlay: &BTreeMap<NodeId, Row>, n: usize) -> Graph {
    let replaced: usize = overlay.keys().map(|&v| base_row(base, v).0.len()).sum();
    let added: usize = overlay.values().map(|row| row.nbrs.len()).sum();
    let total = base.neighbors.len() + added - replaced;
    let lane = base.weights.as_deref();
    let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(total);
    // Slot weights and strengths, on a weighted store.
    let mut weights: Option<(Vec<f64>, Vec<f64>)> =
        lane.map(|_| (Vec::with_capacity(total), Vec::with_capacity(n)));
    offsets.push(0);
    let mut next = 0; // first base row not yet emitted
    for entry in overlay.iter().map(Some).chain([None]) {
        // The run of base rows up to this overlay row (or to the end).
        let end = entry.map_or(base.n(), |(&v, _)| (v as usize).min(base.n()));
        if next < end {
            let (lo, hi) = (base.offsets[next], base.offsets[end]);
            let at = neighbors.len();
            offsets.extend(base.offsets[next + 1..=end].iter().map(|&o| o - lo + at));
            neighbors.extend_from_slice(&base.neighbors[lo..hi]);
            if let (Some((w, s)), Some(lane)) = (&mut weights, lane) {
                w.extend_from_slice(&lane.slot_weight[lo..hi]);
                s.extend_from_slice(&lane.strength[next..end]);
            }
        }
        if let Some((&v, row)) = entry {
            neighbors.extend_from_slice(&row.nbrs);
            if let Some((w, s)) = &mut weights {
                w.extend_from_slice(&row.weights);
                s.push(row_strength(&row.weights));
            }
            offsets.push(neighbors.len());
            next = v as usize + 1;
        }
    }
    debug_assert_eq!(offsets.len(), n + 1);
    debug_assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "CSR offsets must be monotone"
    );
    let graph = Graph::from_csr(offsets, neighbors);
    match weights {
        Some((w, s)) => graph.attach_lane(w, s),
        None => graph,
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.read();
        f.debug_struct("GraphStore")
            .field("n", &inner.n)
            .field("m", &inner.m)
            .field("version", &inner.version)
            .field("shards", &inner.base.layout.shards())
            .field("overlay_rows", &inner.overlay.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    /// An empty weighted store on `n` nodes.
    fn weighted_store(n: usize, shards: usize) -> GraphStore {
        GraphStore::from_graph_sharded(GraphBuilder::weighted(n).build(), shards)
    }

    fn overlay(store: &GraphStore) -> BTreeMap<NodeId, Row> {
        store.read().overlay.clone()
    }

    #[test]
    fn from_graph_serves_the_seed_without_a_rebuild() {
        let g = barbell();
        let store = GraphStore::from_graph(g.clone());
        let a = store.snapshot();
        let b = store.snapshot();
        assert_eq!(a.version(), 0);
        assert!(a.shares_graph(&b), "no mutation: same Arc, no rebuild");
        assert!(!store.is_weighted());
        assert_eq!(a.n(), 6);
        assert_eq!(a.m(), 7);
        for v in 0..6u32 {
            assert_eq!(a.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let store = GraphStore::new(4);
        assert!(store.insert_edge(0, 1));
        assert!(store.insert_edge(1, 2));
        assert!(!store.insert_edge(0, 1), "duplicate rejected");
        assert!(!store.insert_edge(2, 2), "self-loop rejected");
        assert!(!store.insert_edge(0, 9), "out of range rejected");
        assert_eq!(store.m(), 2);
        assert!(store.has_edge(1, 0), "undirected");
        assert!(store.remove_edge(0, 1));
        assert!(!store.remove_edge(0, 1), "already gone");
        assert_eq!(store.m(), 1);
        assert_eq!(store.snapshot().degree(1), 1);
    }

    #[test]
    fn version_counts_mutations_only() {
        let store = GraphStore::new(3);
        assert_eq!(store.version(), 0);
        store.insert_edge(0, 1);
        store.insert_edge(0, 1); // no-op
        store.remove_edge(1, 2); // no-op
        assert_eq!(store.version(), 1);
        store.add_node();
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn snapshot_matches_builder() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)];
        let store = GraphStore::new(5);
        for &(u, v) in &edges {
            store.insert_edge(u, v);
        }
        let s = store.snapshot();
        let b = GraphBuilder::from_edges(5, &edges);
        assert_eq!(s.n(), b.n());
        assert_eq!(s.m(), b.m());
        for v in 0..5u32 {
            assert_eq!(s.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let store = GraphStore::from_graph(barbell());
        let pinned = store.snapshot();
        assert!(store.insert_edge(0, 3));
        assert!(store.remove_edge(2, 3));
        assert_eq!(pinned.m(), 7, "pinned snapshot never changes");
        assert_eq!(pinned.version(), 0);

        let fresh = store.snapshot();
        assert_eq!(fresh.version(), 2);
        assert_eq!(fresh.m(), 7 + 1 - 1);
        assert!(fresh.has_edge(0, 3));
        assert!(!fresh.has_edge(2, 3));
        assert!(!pinned.shares_graph(&fresh));
    }

    #[test]
    fn rebuild_happens_once_per_version() {
        let store = GraphStore::from_graph(barbell());
        store.insert_edge(1, 4);
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(a.shares_graph(&b), "second read reuses the rebuild");
        // An ineffective mutation does not move the version.
        assert!(!store.insert_edge(1, 4));
        assert!(store.snapshot().shares_graph(&a));
    }

    /// A refused op: its name and a call returning whether the store
    /// reported an effect.
    type RefusedOp = (&'static str, fn(&GraphStore) -> bool);

    /// Every refused op of the mutator contract that applies to a store
    /// whose edge `{0, 1}` weighs 1.0 and whose edge `{0, 5}` is absent.
    fn refused_ops(weighted: bool) -> Vec<RefusedOp> {
        let mut ops: Vec<RefusedOp> = vec![
            ("self-loop", |s| s.insert_edge(2, 2)),
            ("out-of-range insert", |s| s.insert_edge(0, 99)),
            ("existing edge", |s| s.insert_edge(0, 1)),
            ("absent remove", |s| s.remove_edge(0, 5)),
            ("out-of-range remove", |s| s.remove_edge(99, 0)),
            ("absent setw", |s| s.set_weight(0, 5, 2.0).is_some()),
        ];
        let weight_ops: Vec<RefusedOp> = if weighted {
            vec![
                ("weighted self-loop", |s| s.insert_edge_w(3, 3, 2.0)),
                ("weighted existing edge", |s| s.insert_edge_w(1, 0, 2.0)),
                ("weighted out-of-range", |s| s.insert_edge_w(0, 99, 2.0)),
                ("zero weight", |s| s.insert_edge_w(0, 5, 0.0)),
                ("NaN setw", |s| s.set_weight(0, 1, f64::NAN).is_some()),
                ("negative setw", |s| s.set_weight(0, 1, -1.0).is_some()),
                ("setw to the current weight", |s| {
                    s.set_weight(0, 1, 1.0) != Some(1.0)
                }),
            ]
        } else {
            vec![
                ("weighted insert, unweighted store", |s| {
                    s.insert_edge_w(0, 5, 2.0)
                }),
                ("setw, unweighted store", |s| {
                    s.set_weight(0, 1, 2.0).is_some()
                }),
            ]
        };
        ops.extend(weight_ops);
        ops
    }

    #[test]
    fn refused_mutations_leave_the_store_as_it_was() {
        for weighted in [false, true] {
            let graph = if weighted {
                barbell().with_unit_weights()
            } else {
                barbell()
            };
            let store = GraphStore::from_graph_sharded(graph, 3);
            // First with a current base and an empty overlay, then with a
            // pending write (rows 0 and 4 in the overlay, a stale base).
            for pending in [false, true] {
                let prev = store.snapshot();
                if pending {
                    assert!(store.insert_edge(0, 4));
                }
                let (version, dirty, rows) =
                    (store.version(), store.dirty_shards(), overlay(&store));
                assert_eq!(rows.len(), if pending { 2 } else { 0 });
                for (name, op) in refused_ops(weighted) {
                    assert!(
                        !op(&store),
                        "{name} (weighted {weighted}) reported an effect"
                    );
                    assert_eq!(store.version(), version, "{name} moved the version");
                    assert_eq!(store.dirty_shards(), dirty, "{name} dirtied a shard");
                    assert_eq!(overlay(&store), rows, "{name} touched the overlay");
                    if !pending {
                        assert!(
                            store.snapshot().shares_graph(&prev),
                            "{name} forced a rebuild"
                        );
                    }
                }
                let next = store.snapshot();
                assert!(overlay(&store).is_empty(), "a rebuild empties the overlay");
                assert_eq!(next.has_edge(0, 4), pending);
                assert_eq!(next.is_weighted(), weighted);
            }
        }
    }

    #[test]
    fn node_growth_flows_into_snapshots() {
        let store = GraphStore::new(2);
        assert!(store.insert_edge(0, 1));
        let v = store.add_node();
        assert_eq!(v, 2);
        assert!(store.insert_edge(1, v));
        let snap = store.snapshot();
        assert_eq!(snap.n(), 3);
        assert_eq!(snap.m(), 2);
        assert_eq!(store.version(), 3);
        assert_eq!(snap.version(), 3);
    }

    #[test]
    fn has_edge_and_edge_weight_see_the_live_graph() {
        let store = GraphStore::from_graph(barbell());
        let pinned = store.snapshot();
        store.insert_edge(0, 5);
        assert!(store.has_edge(0, 5));
        assert!(store.has_edge(5, 0));
        assert_eq!(store.edge_weight(0, 5), Some(1.0));
        assert_eq!(store.m(), 8);
        assert!(!pinned.has_edge(0, 5));
        assert_eq!(store.snapshot().degree(0), 3);
    }

    #[test]
    fn concurrent_readers_and_writers_converge() {
        let store = GraphStore::new(64);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..15u32 {
                        store.insert_edge(t * 16 + i, t * 16 + i + 1);
                        let snap = store.snapshot();
                        assert!(snap.m() > 0);
                        assert!(snap.version() <= store.version());
                    }
                });
            }
        });
        assert_eq!(store.m(), 60);
        let snap = store.snapshot();
        assert_eq!(snap.m(), 60);
        assert_eq!(snap.version(), 60);
    }

    #[test]
    fn weighted_store_serves_lane_carrying_snapshots() {
        let mut b = GraphBuilder::weighted(4);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 2, 3.0);
        b.add_weighted_edge(2, 3, 7.0);
        let g = b.build();
        let store = GraphStore::from_graph(g.clone());
        assert!(store.is_weighted());
        assert_eq!(store.version(), 0);
        let v0 = store.snapshot();
        assert!(v0.is_weighted());
        assert_eq!(v0.edge_weight(0, 1), Some(2.0));
        assert_eq!(v0.total_weight(), g.total_weight());
        assert_eq!(v0.strength(2), 10.0);

        // A weight-only update bumps the version and re-snapshots.
        assert_eq!(store.set_weight(0, 1, 5.0), Some(2.0));
        assert_eq!(store.version(), 1);
        let v1 = store.snapshot();
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.edge_weight(0, 1), Some(5.0));
        assert_eq!(v0.edge_weight(0, 1), Some(2.0), "pinned epoch unchanged");

        // Same-value re-set: no version move, snapshot reused.
        assert_eq!(store.set_weight(0, 1, 5.0), Some(5.0));
        assert!(store.snapshot().shares_graph(&v1));

        // Weighted insert flows through too.
        assert!(store.remove_edge(2, 3));
        assert!(store.insert_edge_w(2, 3, 0.25));
        assert_eq!(store.snapshot().edge_weight(2, 3), Some(0.25));
        assert_eq!(store.edge_weight(2, 3), Some(0.25));
    }

    #[test]
    fn weighted_insert_and_set_weight() {
        let store = weighted_store(3, DEFAULT_SHARD_COUNT);
        assert!(store.is_weighted());
        assert!(store.insert_edge_w(0, 1, 2.5));
        assert!(!store.insert_edge_w(0, 1, 9.0), "duplicate rejected");
        assert!(store.insert_edge(1, 2), "plain insert defaults to weight 1");
        assert_eq!(store.edge_weight(0, 1), Some(2.5));
        assert_eq!(store.edge_weight(1, 2), Some(1.0));
        assert_eq!(store.edge_weight(0, 2), None);
        assert_eq!(store.version(), 2);

        // set_weight: effective change bumps, same value does not.
        assert_eq!(store.set_weight(0, 1, 4.0), Some(2.5));
        assert_eq!(store.version(), 3);
        assert_eq!(store.set_weight(0, 1, 4.0), Some(4.0), "no-op re-set");
        assert_eq!(store.version(), 3, "same weight: version frozen");
        assert_eq!(store.set_weight(0, 2, 1.0), None, "absent edge");
        assert_eq!(store.set_weight(0, 1, 0.0), None, "non-positive weight");
        assert_eq!(store.set_weight(0, 1, f64::NAN), None, "non-finite weight");
        assert_eq!(store.version(), 3);
        assert_eq!(store.snapshot().edge_weight(1, 2), Some(1.0));
    }

    #[test]
    fn weighted_remove_keeps_lanes_aligned() {
        let store = weighted_store(4, DEFAULT_SHARD_COUNT);
        store.insert_edge_w(0, 1, 1.5);
        store.insert_edge_w(0, 2, 2.5);
        store.insert_edge_w(0, 3, 3.5);
        let _ = store.snapshot(); // the remove below edits a copied base row
        assert!(store.remove_edge(0, 2));
        assert_eq!(store.edge_weight(0, 1), Some(1.5));
        assert_eq!(store.edge_weight(0, 3), Some(3.5));
        assert_eq!(store.edge_weight(3, 0), Some(3.5));
        assert_eq!(store.edge_weight(0, 2), None);
        let s = store.snapshot();
        assert!(s.is_weighted());
        assert_eq!(s.edge_weight(0, 3), Some(3.5));
        assert!((s.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mutators_refuse_on_unweighted_stores() {
        let store = GraphStore::from_graph(barbell());
        assert!(!store.is_weighted());
        assert!(
            !store.insert_edge_w(0, 4, 2.0),
            "no lane, no weighted insert"
        );
        assert_eq!(store.set_weight(0, 1, 2.0), None);
        assert_eq!(store.m(), 7);
        assert_eq!(store.version(), 0, "refused ops never bump");
        assert_eq!(store.edge_weight(0, 1), Some(1.0), "unweighted edge = 1");
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
        // Degenerate layouts stay well-formed.
        assert_eq!(ShardLayout::new(0, 16).shard_of(0), 0);
        assert_eq!(ShardLayout::new(5, 0).shards(), 1);
        assert_eq!(ShardLayout::single().shard_of(NodeId::MAX), 0);
    }

    #[test]
    fn shard_versions_bump_per_endpoint_shard() {
        // shard_size = 2: nodes {0,1} shard 0, {2,3} shard 1, {4,5} shard 2.
        let store = GraphStore::with_shards(6, 3);
        assert_eq!(store.shard_versions(), vec![0, 0, 0]);
        store.insert_edge(0, 1); // intra-shard: one bump
        assert_eq!(store.shard_versions(), vec![1, 0, 0]);
        store.insert_edge(1, 4); // cross-shard: both endpoint shards
        assert_eq!(store.shard_versions(), vec![2, 0, 1]);
        store.insert_edge(1, 4); // no-op: nothing moves
        assert_eq!(store.shard_versions(), vec![2, 0, 1]);
        store.remove_edge(1, 4);
        assert_eq!(store.shard_versions(), vec![3, 0, 2]);
        assert_eq!(
            store.version(),
            3,
            "global counter still one per effective op"
        );
    }

    #[test]
    fn add_node_dirties_its_own_shard_only() {
        let store = GraphStore::with_shards(4, 2); // shard_size = 2
        let v = store.add_node(); // id 4 -> clamps to last shard (1)
        assert_eq!(v, 4);
        assert_eq!(store.shard_versions(), vec![0, 1]);
        assert_eq!(store.shard_layout().shard_of(v), 1);
        assert_eq!(store.version(), 1);
        assert_eq!(store.dirty_shards(), 1);
    }

    #[test]
    fn weighted_set_weight_touches_both_shards() {
        let store = weighted_store(4, 2); // {0,1} | {2,3}
        store.insert_edge_w(0, 3, 2.0);
        assert_eq!(store.shard_versions(), vec![1, 1]);
        let _ = store.snapshot();
        assert_eq!(store.set_weight(0, 3, 5.0), Some(2.0));
        assert_eq!(store.shard_versions(), vec![2, 2]);
        assert_eq!(store.dirty_shards(), 2);
        assert_eq!(store.set_weight(0, 3, 5.0), Some(5.0), "no-op re-set");
        assert_eq!(store.shard_versions(), vec![2, 2]);
    }

    #[test]
    fn incremental_rebuild_matches_from_scratch() {
        // Ring + chords across 64 nodes, 8 shards of 8.
        let store = GraphStore::with_shards(64, 8);
        let mut edges: Vec<(NodeId, NodeId)> = (0..64u32).map(|v| (v, (v + 1) % 64)).collect();
        for &(u, v) in &edges {
            store.insert_edge(u, v);
        }
        let first = store.snapshot();
        assert_eq!(store.rebuild_stats().last_dirty_shards, 8);

        // One edge inside shard 2 ({16..24}): only shard 2 is dirty.
        assert!(store.insert_edge(17, 20));
        edges.push((17, 20));
        assert_eq!(store.dirty_shards(), 1);
        let second = store.snapshot();
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
        assert_eq!(store.rebuild_stats().shards_reused, 7);

        // The incremental result must equal a from-scratch build.
        let scratch = GraphBuilder::from_edges(64, &edges);
        assert_eq!(second.n(), scratch.n());
        assert_eq!(second.m(), scratch.m());
        for v in 0..64u32 {
            assert_eq!(second.neighbors(v), scratch.neighbors(v), "node {v}");
        }
        assert!(!first.shares_graph(&second));

        // Cross-shard edge dirties both endpoint shards.
        assert!(store.insert_edge(1, 62));
        assert_eq!(store.dirty_shards(), 2);
        let third = store.snapshot();
        assert!(third.has_edge(1, 62));
        assert_eq!(store.rebuild_stats().last_dirty_shards, 2);
        assert_eq!(store.dirty_shards(), 0, "fresh snapshot: nothing dirty");
    }

    #[test]
    fn incremental_rebuild_carries_weights() {
        let store = weighted_store(16, 4);
        let mut edges: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
        for v in 0..15u32 {
            assert!(store.insert_edge_w(v, v + 1, f64::from(v) + 0.5));
            edges.insert((v, v + 1), f64::from(v) + 0.5);
        }
        let _first = store.snapshot();
        // Touch only shard 0 ({0..4}) with a weight change.
        assert_eq!(store.set_weight(1, 2, 9.0), Some(1.5));
        edges.insert((1, 2), 9.0);
        let snap = store.snapshot();
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
        assert_eq!(snap.edge_weight(1, 2), Some(9.0));
        // Unchanged rows' weights copied forward intact.
        assert_eq!(snap.edge_weight(10, 11), Some(10.5));
        let mut b = GraphBuilder::weighted(16);
        for (&(u, v), &w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let scratch = b.build();
        for v in 0..16u32 {
            assert_eq!(snap.neighbors(v), scratch.neighbors(v));
        }
        assert!((snap.total_weight() - scratch.total_weight()).abs() < 1e-12);
        assert!((snap.strength(11) - scratch.strength(11)).abs() < 1e-12);
    }

    #[test]
    fn node_growth_rebuilds_incrementally() {
        let store = GraphStore::with_shards(8, 4); // shard_size 2
        store.insert_edge(0, 1);
        let _ = store.snapshot();
        let v = store.add_node(); // id 8 clamps into the last shard
        assert_eq!(store.dirty_shards(), 1);
        store.insert_edge(7, v); // still only the last shard
        assert_eq!(store.dirty_shards(), 1);
        let snap = store.snapshot();
        assert_eq!(snap.n(), 9);
        assert!(snap.has_edge(7, 8));
        assert_eq!(snap.neighbors(0), &[1]);
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
    }

    #[test]
    fn node_growth_past_prior_range_skips_empty_clean_shards() {
        // shard_size 1: shards 4..7 are empty at n = 4. Growing to n = 5
        // dirties only shard 4, and the rebuild appends the new row past
        // the base's last one.
        let store = GraphStore::with_shards(4, 8);
        store.insert_edge(0, 1);
        let _ = store.snapshot();
        let v = store.add_node();
        assert_eq!(v, 4);
        assert_eq!(store.dirty_shards(), 1);
        let snap = store.snapshot();
        assert_eq!(snap.n(), 5);
        assert_eq!(snap.neighbors(0), &[1]);
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
    }

    #[test]
    fn steady_churn_rebuilds_match_from_scratch() {
        // A mutate→snapshot loop that keeps no outside snapshot alive:
        // every rebuild copies the unchanged rows forward from the
        // previous epoch and splices in the toggled ones — the result
        // must match a from-scratch build every time.
        let store = GraphStore::with_shards(32, 8); // shard_size 4
        let mut edges: Vec<(NodeId, NodeId)> = (0..31u32).map(|v| (v, v + 1)).collect();
        for &(u, v) in &edges {
            store.insert_edge(u, v);
        }
        let scratch = GraphBuilder::from_edges(32, &edges);
        for round in 0..5 {
            // Toggle an edge inside shard 1 ({4..8}): the graph returns
            // to the same shape, but the shard's counter moves.
            assert!(store.remove_edge(5, 6));
            assert!(store.insert_edge(5, 6));
            let snap = store.snapshot();
            for v in 0..32u32 {
                assert_eq!(
                    snap.neighbors(v),
                    scratch.neighbors(v),
                    "round {round} node {v}"
                );
            }
            assert_eq!(
                store.rebuild_stats().last_dirty_shards,
                if round == 0 { 8 } else { 1 }
            );
        }
        // A slot-count-changing update in the same shard shifts every
        // later row's offsets; the copied runs must follow.
        assert!(store.insert_edge(4, 6));
        edges.push((4, 6));
        let snap = store.snapshot();
        assert_eq!(snap.neighbors(4), &[3, 5, 6]);
        let scratch = GraphBuilder::from_edges(32, &edges);
        for v in 0..32u32 {
            assert_eq!(snap.neighbors(v), scratch.neighbors(v));
        }
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
    }

    #[test]
    fn weighted_churn_rederives_strengths_and_totals_exactly() {
        // Weight changes inside one shard: unchanged rows' slot weights
        // are copied forward, and strengths and the total must re-derive
        // exactly as a scratch build computes them.
        let store = weighted_store(16, 4);
        let mut edges: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
        for v in 0..15u32 {
            assert!(store.insert_edge_w(v, v + 1, 1.0));
            edges.insert((v, v + 1), 1.0);
        }
        let _ = store.snapshot();
        for round in 0..4 {
            let w = f64::from(round) + 2.0;
            assert_ne!(store.set_weight(5, 6, w), None); // shard 1
            edges.insert((5, 6), w);
            let snap = store.snapshot();
            let mut b = GraphBuilder::weighted(16);
            for (&(u, v), &w) in &edges {
                b.add_weighted_edge(u, v, w);
            }
            let scratch = b.build();
            assert_eq!(snap.edge_weight(5, 6), Some(w));
            assert_eq!(snap.total_weight(), scratch.total_weight(), "round {round}");
            for v in 0..16u32 {
                assert_eq!(
                    snap.strength(v),
                    scratch.strength(v),
                    "round {round} node {v}"
                );
            }
        }
    }

    #[test]
    fn pinned_snapshots_survive_churn() {
        // Hold every snapshot: pinned epochs stay immutable through
        // arbitrary churn, and each rebuild copies forward from the
        // latest one.
        let store = GraphStore::with_shards(16, 4);
        store.insert_edge(0, 1);
        let mut pinned = vec![store.snapshot()];
        for _ in 0..4 {
            assert!(store.remove_edge(0, 1));
            assert!(store.insert_edge(0, 1));
            pinned.push(store.snapshot());
        }
        for snap in &pinned {
            assert_eq!(snap.neighbors(0), &[1], "epoch {} torn", snap.version());
            assert_eq!(snap.m(), 1);
        }
    }

    #[test]
    fn snapshots_carry_shard_versions() {
        let store = GraphStore::with_shards(8, 2); // {0..4} | {4..8}
        let a = store.snapshot();
        assert_eq!(a.shards(), 2);
        assert_eq!(a.shard_versions(), &[0, 0]);
        store.insert_edge(0, 7);
        let b = store.snapshot();
        assert_eq!(b.shard_versions(), &[1, 1]);
        assert_eq!(a.shard_versions(), &[0, 0], "pinned epoch unchanged");
        store.insert_edge(5, 6);
        let c = store.snapshot();
        assert_eq!(c.shard_versions(), &[1, 2]);
        assert_eq!(store.shard_versions(), vec![1, 2]);
    }

    #[test]
    fn rebuild_stats_accumulate() {
        let store = GraphStore::from_graph_sharded(barbell(), 3);
        assert_eq!(store.shard_count(), 3);
        let stats = store.rebuild_stats();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.rebuilds, 0, "adopted seed is not a rebuild");
        store.insert_edge(0, 4);
        let _ = store.snapshot();
        let _ = store.snapshot(); // cached: no second rebuild
        let stats = store.rebuild_stats();
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.shards_rebuilt, stats.last_dirty_shards as u64);
        assert!(stats.last_rebuild_seconds >= 0.0);
        // An empty store's first read is its seed, not a rebuild.
        let empty = GraphStore::new(4);
        let _ = empty.snapshot();
        assert_eq!(empty.rebuild_stats().rebuilds, 0);
    }

    #[test]
    fn layout_policy_builds_and_rebuilds_the_mirror() {
        let store = GraphStore::from_graph(barbell()).with_layout(LayoutPolicy::Bfs);
        assert_eq!(store.layout_policy(), LayoutPolicy::Bfs);
        let snap = store.snapshot();
        assert_eq!(snap.layout_policy(), LayoutPolicy::Bfs);
        let mirror = snap.compute().expect("non-identity policy has a mirror");
        assert_eq!(mirror.graph().n(), snap.n());
        assert_eq!(mirror.graph().m(), snap.m());
        // The canonical graph still speaks external ids.
        assert_eq!(snap.neighbors(0), &[1, 2]);

        // Mutations flow through: the next snapshot rebuilds the mirror.
        store.insert_edge(0, 5);
        let fresh = store.snapshot();
        assert_eq!(fresh.compute().unwrap().graph().m(), 8);

        // Switching back to identity drops the mirror without moving
        // the version.
        store.set_layout_policy(LayoutPolicy::Identity);
        let plain = store.snapshot();
        assert!(plain.compute().is_none());
        assert_eq!(plain.version(), fresh.version());
        assert!(plain.shares_graph(&fresh));
    }

    #[test]
    fn identity_stores_build_no_mirror() {
        let store = GraphStore::from_graph(barbell());
        assert_eq!(store.layout_policy(), LayoutPolicy::Identity);
        let snap = store.snapshot();
        assert!(snap.compute().is_none());
        assert_eq!(snap.layout_policy(), LayoutPolicy::Identity);
    }

    #[test]
    fn component_index_is_shared_per_epoch() {
        let store = GraphStore::from_graph(barbell());
        let a = store.snapshot();
        let b = store.snapshot();
        assert_eq!(a.component_index().count(), 1);
        // Clones of one epoch share the lazily computed index.
        assert!(std::ptr::eq(a.component_index(), b.component_index()));
        store.remove_edge(2, 3);
        let c = store.snapshot();
        assert_eq!(c.component_index().count(), 2);
        assert_eq!(c.component_index().largest(), 3);
        assert_eq!(a.component_index().count(), 1, "pinned epoch unchanged");
    }

    #[test]
    fn epoch_keys_distinguish_stores_and_versions() {
        let a = GraphStore::from_graph(barbell());
        let b = GraphStore::from_graph(barbell());
        assert_ne!(a.snapshot().epoch_key(), b.snapshot().epoch_key());
        let before = a.snapshot().epoch_key();
        a.insert_edge(0, 4);
        assert_ne!(a.snapshot().epoch_key(), before);
        assert_eq!(a.snapshot().epoch_key(), a.snapshot().epoch_key());
    }

    #[test]
    fn freeze_is_version_zero_and_derefs() {
        let snap = Snapshot::freeze(barbell());
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.graph().m(), 7);
        // Deref and AsRef both reach the Graph API.
        assert_eq!(snap.neighbors(0), &[1, 2]);
        let as_graph: &Graph = snap.as_ref();
        assert_eq!(as_graph.n(), 6);
    }
}
