//! The versioned graph store: one mutable [`DynamicGraph`] of record
//! plus epoch-versioned, immutable CSR [`Snapshot`]s for the search
//! algorithms.
//!
//! The serving problem this solves: community search is rarely one-shot
//! — the network gains edges while queries keep arriving. Peeling
//! algorithms need the immutable CSR [`Graph`], mutations need the
//! adjacency-vector [`DynamicGraph`]; [`GraphStore`] owns both and keeps
//! them consistent:
//!
//! ```text
//!            writes                         reads
//!   insert_edge / remove_edge        snapshot() ── Snapshot (pinned)
//!            │                               │
//!            ▼                               ▼
//!      DynamicGraph ──(lazy rebuild on ──▶ Arc<Graph> @ version v
//!      version v       first read after
//!                      a mutation)
//! ```
//!
//! - **Mutations** land in the `DynamicGraph` and bump its monotonic
//!   [`version`](DynamicGraph::version) plus the counters of the shards
//!   they touch; the cached CSR is *not* rebuilt eagerly, so a burst of
//!   updates costs `O(deg)` each, not `O(|V| + |E|)` each.
//! - **Reads** call [`GraphStore::snapshot`], which rebuilds the CSR at
//!   most once per version (on the first read after a mutation) and
//!   hands out cheap [`Snapshot`] clones after that. The rebuild is
//!   **incremental**: the node-id space is partitioned into `P` shards
//!   (see [`ShardLayout`]), only shards whose counter moved since the
//!   previous snapshot have their CSR segments re-serialized, and clean
//!   shards' neighbour/weight segments are copied forward verbatim from
//!   the previous snapshot's arrays in one sequential pass — so the rows
//!   a rebuild re-serializes scale with the write footprint, and the
//!   rest of the graph costs a memcpy. Every epoch gets fresh arrays; a
//!   snapshot's buffers are never written after it is built. Under a
//!   non-identity [`LayoutPolicy`] each epoch also builds its
//!   renumbered mirror (see [`Snapshot::compute`]).
//! - A [`Snapshot`] **pins** its epoch: an in-flight batch keeps the
//!   graph it started with while later updates land in the store, so
//!   concurrent serve-and-mutate never tears a query. The carried
//!   [`Snapshot::version`] orders epochs, and the carried
//!   [`Snapshot::shard_versions`] vector is what shard-scoped result
//!   caches validate their fingerprints against.

use crate::dynamic::{DynamicGraph, ShardLayout};
use crate::layout::{ComputeGraph, LayoutPolicy};
use crate::traversal::ComponentIndex;
use crate::{Graph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

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

/// Counters describing the store's incremental snapshot rebuilds —
/// surfaced by `--stats` and the serve daemon's `stats` op so operators
/// can see how much of each rebuild the sharding actually saved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebuildStats {
    /// Number of shards in the store's layout.
    pub shards: usize,
    /// Snapshot rebuilds performed so far (reads served from the cached
    /// snapshot do not count).
    pub rebuilds: u64,
    /// Total dirty shards re-serialized across all rebuilds.
    pub shards_rebuilt: u64,
    /// Total clean shards whose CSR segments were copied forward.
    pub shards_reused: u64,
    /// Dirty-shard count of the most recent rebuild.
    pub last_dirty_shards: usize,
    /// Wall-clock seconds of the most recent rebuild.
    pub last_rebuild_seconds: f64,
}

struct Inner {
    dynamic: DynamicGraph,
    /// The latest epoch's snapshot, rebuilt lazily: current iff
    /// `cached.version == dynamic.version()`. A stale one is the source
    /// the next rebuild copies clean shards forward from.
    cached: Option<Snapshot>,
    stats: RebuildStats,
    /// Node renumbering policy applied to every snapshot built from
    /// here on (identity by default: no mirror, no cost).
    layout_policy: LayoutPolicy,
}

// The id lives outside `Inner` so reads need not take the lock for it.

/// The engine's storage layer: a mutable [`DynamicGraph`] of record and
/// a lazily rebuilt, epoch-versioned CSR snapshot, safe to share across
/// serving threads (`&self` mutators; interior `RwLock`).
///
/// ```
/// use dmcs_graph::{GraphBuilder, GraphStore};
///
/// let store = GraphStore::from_graph(GraphBuilder::from_edges(4, &[(0, 1), (1, 2)]));
/// let pinned = store.snapshot(); // version 0
///
/// store.insert_edge(2, 3); // lands in the DynamicGraph only
/// assert_eq!(pinned.m(), 2, "pinned snapshot is immutable");
///
/// let fresh = store.snapshot(); // first read after the mutation: rebuild
/// assert_eq!(fresh.m(), 3);
/// assert_eq!(fresh.version(), 1);
/// assert_eq!(store.snapshot().version(), 1, "no mutation, no rebuild");
/// ```
pub struct GraphStore {
    id: u64,
    inner: RwLock<Inner>,
}

impl GraphStore {
    /// An empty store on `n` isolated nodes (default shard layout).
    pub fn new(n: usize) -> Self {
        GraphStore::from_dynamic(DynamicGraph::new(n))
    }

    /// An empty store on `n` isolated nodes partitioned into `shards`
    /// node-id-range shards.
    pub fn with_shards(n: usize, shards: usize) -> Self {
        GraphStore::from_dynamic(DynamicGraph::with_shards(n, shards))
    }

    /// Adopt a mutable graph as the store's graph of record (keeping its
    /// shard layout).
    pub fn from_dynamic(dynamic: DynamicGraph) -> Self {
        let stats = RebuildStats {
            shards: dynamic.shard_layout().shards(),
            ..RebuildStats::default()
        };
        GraphStore {
            id: next_store_id(),
            inner: RwLock::new(Inner {
                dynamic,
                cached: None,
                stats,
                layout_policy: LayoutPolicy::Identity,
            }),
        }
    }

    /// Seed the store from an immutable graph (default shard layout).
    /// The given CSR is adopted as the cached snapshot for the store's
    /// initial version, so reads before the first mutation cost nothing.
    pub fn from_graph(graph: Graph) -> Self {
        GraphStore::from_graph_sharded(graph, crate::dynamic::DEFAULT_SHARD_COUNT)
    }

    /// Seed the store from an immutable graph with an explicit shard
    /// count (see [`ShardLayout`]); the CSR is adopted as the initial
    /// cached snapshot exactly as in [`GraphStore::from_graph`].
    pub fn from_graph_sharded(graph: Graph, shards: usize) -> Self {
        let dynamic = DynamicGraph::from_graph_with_shards(&graph, shards);
        let version = dynamic.version();
        let id = next_store_id();
        let stats = RebuildStats {
            shards: dynamic.shard_layout().shards(),
            ..RebuildStats::default()
        };
        let cached = Some(Snapshot {
            graph: Arc::new(graph),
            store_id: id,
            version,
            layout: dynamic.shard_layout(),
            shard_versions: Arc::from(dynamic.shard_versions().to_vec()),
            compute: None,
            components: Arc::new(OnceLock::new()),
        });
        GraphStore {
            id,
            inner: RwLock::new(Inner {
                dynamic,
                cached,
                stats,
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

    /// Change the node renumbering policy. Takes effect immediately: if
    /// a snapshot is cached for the current version, its compute mirror
    /// is rebuilt under the new policy (the canonical graph, version
    /// and component index are untouched — external ids never move, so
    /// already-pinned snapshots and caches stay valid).
    pub fn set_layout_policy(&self, policy: LayoutPolicy) {
        let mut inner = self.write();
        if inner.layout_policy == policy {
            return;
        }
        inner.layout_policy = policy;
        if let Some(s) = &inner.cached {
            let compute = ComputeGraph::build(&s.graph, policy).map(Arc::new);
            inner.cached = Some(Snapshot {
                graph: Arc::clone(&s.graph),
                store_id: s.store_id,
                version: s.version,
                layout: s.layout,
                shard_versions: Arc::clone(&s.shard_versions),
                compute,
                components: Arc::clone(&s.components),
            });
        }
    }

    // Poison recovery: a reader panicking mid-snapshot cannot corrupt
    // `Inner` (readers never mutate), and the write path replaces
    // `cached` wholesale rather than editing it in place, so a
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

    /// The store's mutation counter (monotonically nondecreasing; bumped
    /// by every effective mutation, exactly as
    /// [`DynamicGraph::version`]).
    pub fn version(&self) -> u64 {
        self.read().dynamic.version()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.read().dynamic.n()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.read().dynamic.m()
    }

    /// Edge test on the *live* graph (`O(log deg)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.read().dynamic.has_edge(u, v)
    }

    /// Whether the live graph carries per-edge weights (see
    /// [`DynamicGraph::is_weighted`]). Weighted mutators only succeed on
    /// weighted stores.
    pub fn is_weighted(&self) -> bool {
        self.read().dynamic.is_weighted()
    }

    /// Weight of edge `(u, v)` on the *live* graph (`Some(1.0)` per edge
    /// when the store is unweighted, `None` when the edge is absent).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.read().dynamic.edge_weight(u, v)
    }

    /// Insert the undirected edge `{u, v}` into the live graph. Returns
    /// `false` (and changes nothing, including the version) for
    /// self-loops, out-of-range endpoints, or existing edges. Existing
    /// snapshots are unaffected; the next [`snapshot`](Self::snapshot)
    /// call rebuilds. On a weighted store the edge gets weight 1.0.
    pub fn insert_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.write().dynamic.insert_edge(u, v)
    }

    /// Insert the undirected edge `{u, v}` with weight `w` into the live
    /// (weighted) graph — see [`DynamicGraph::insert_edge_w`] for the
    /// refusal rules. Bumps the version on success, so version-keyed
    /// caches invalidate exactly as for a plain insert.
    pub fn insert_edge_w(&self, u: NodeId, v: NodeId, w: f64) -> bool {
        self.write().dynamic.insert_edge_w(u, v, w)
    }

    /// Update the weight of the existing edge `{u, v}` on the live
    /// (weighted) graph, returning the previous weight — see
    /// [`DynamicGraph::set_weight`]. A weight *change* bumps the store
    /// version (the next snapshot rebuilds and cached answers for the
    /// old epoch stop matching); re-setting the current weight is a
    /// version-preserving no-op.
    pub fn set_weight(&self, u: NodeId, v: NodeId, w: f64) -> Option<f64> {
        self.write().dynamic.set_weight(u, v, w)
    }

    /// Remove the undirected edge `{u, v}` from the live graph. Returns
    /// `false` when absent.
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.write().dynamic.remove_edge(u, v)
    }

    /// Append a fresh isolated node to the live graph; returns its id.
    pub fn add_node(&self) -> NodeId {
        self.write().dynamic.add_node()
    }

    /// A snapshot of the current epoch. Rebuilds the CSR at most once
    /// per version — the first read after a mutation pays an
    /// *incremental* rebuild (only dirty shards' segments are
    /// re-serialized; clean shards are copied forward from the previous
    /// snapshot), every other call is an `Arc` clone.
    pub fn snapshot(&self) -> Snapshot {
        {
            let inner = self.read();
            let version = inner.dynamic.version();
            if let Some(s) = &inner.cached {
                if s.version == version {
                    return s.clone();
                }
            }
        }
        let mut inner = self.write();
        let inner = &mut *inner;
        let version = inner.dynamic.version();
        // Double-checked: another writer may have rebuilt between locks.
        if let Some(s) = &inner.cached {
            if s.version == version {
                return s.clone();
            }
        }
        let started = std::time::Instant::now();
        let (graph, dirty) = rebuild_csr(&inner.dynamic, inner.cached.as_ref());
        let compute = ComputeGraph::build(&graph, inner.layout_policy).map(Arc::new);
        let snap = Snapshot {
            graph: Arc::new(graph),
            store_id: self.id,
            version,
            layout: inner.dynamic.shard_layout(),
            shard_versions: Arc::from(inner.dynamic.shard_versions().to_vec()),
            compute,
            components: Arc::new(OnceLock::new()),
        };
        // Shard counters only ever advance, so under an unchanged layout
        // the new epoch's version vector dominates the displaced one —
        // the invariant cache staleness checks rely on.
        debug_assert!(
            inner.cached.as_ref().is_none_or(|prev| {
                prev.layout != snap.layout
                    || prev
                        .shard_versions
                        .iter()
                        .zip(snap.shard_versions.iter())
                        .all(|(old, new)| old <= new)
            }),
            "per-shard versions must be monotone across epochs"
        );
        let shards = inner.dynamic.shard_layout().shards();
        inner.stats.rebuilds += 1;
        inner.stats.shards_rebuilt += dirty as u64;
        inner.stats.shards_reused += (shards - dirty) as u64;
        inner.stats.last_dirty_shards = dirty;
        inner.stats.last_rebuild_seconds = started.elapsed().as_secs_f64();
        inner.cached = Some(snap.clone());
        snap
    }

    /// Rebuild counters (shard count, dirty-shard counts, timings) —
    /// see [`RebuildStats`].
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.read().stats
    }

    /// Number of node-id-range shards in the store's layout.
    pub fn shard_count(&self) -> usize {
        self.read().dynamic.shard_layout().shards()
    }

    /// The store's shard layout.
    pub fn shard_layout(&self) -> ShardLayout {
        self.read().dynamic.shard_layout()
    }

    /// The live per-shard mutation counters (see
    /// [`DynamicGraph::shard_versions`]).
    pub fn shard_versions(&self) -> Vec<u64> {
        self.read().dynamic.shard_versions().to_vec()
    }

    /// Number of shards the *next* [`snapshot`](Self::snapshot) call
    /// would re-serialize: shards whose counter moved since the cached
    /// snapshot (all of them when no snapshot is cached yet). Zero means
    /// the next read is a free `Arc` clone.
    pub fn dirty_shards(&self) -> usize {
        let inner = self.read();
        match &inner.cached {
            Some(s) => inner
                .dynamic
                .shard_versions()
                .iter()
                .zip(s.shard_versions.iter())
                .filter(|(live, snap)| live != snap)
                .count(),
            None => inner.dynamic.shard_layout().shards(),
        }
    }

    /// Run `f` against the live [`DynamicGraph`] under the read lock —
    /// for read-only inspections that have no dedicated accessor.
    pub fn with_dynamic<R>(&self, f: impl FnOnce(&DynamicGraph) -> R) -> R {
        f(&self.read().dynamic)
    }
}

/// Recompile the CSR from the live adjacency by copying it forward from
/// `prev`, the snapshot the store currently caches. Returns the graph
/// and the number of dirty shards (relative to `prev`).
///
/// Dirty shards re-serialize their live rows; clean shards'
/// offset/neighbour/weight segments are copied verbatim from `prev`
/// (offsets shifted by a constant). Without a usable `prev` (first
/// snapshot, or the layout or weightedness changed) every shard is
/// dirty, which is the full rebuild.
///
/// Soundness of reusing a clean shard: every effective mutation bumps
/// the shard counters of *both* endpoints (and `add_node` the shard of
/// the new node, the only shard whose node range changes), so a shard
/// whose counter matches `prev`'s has bitwise-identical adjacency rows,
/// weight rows, and node range — its segments differ from `prev`'s only
/// by their base offset.
fn rebuild_csr(dynamic: &DynamicGraph, prev: Option<&Snapshot>) -> (Graph, usize) {
    let n = dynamic.n();
    let layout = dynamic.shard_layout();
    let shards = layout.shards();
    let adj = dynamic.adj_rows();
    let wadj = dynamic.weight_rows();

    let reusable = prev.filter(|s| s.layout == layout && s.graph.is_weighted() == wadj.is_some());
    let dirty: Vec<bool> = match reusable {
        Some(prev) => dynamic
            .shard_versions()
            .iter()
            .zip(prev.shard_versions.iter())
            .map(|(live, snap)| live != snap)
            .collect(),
        None => vec![true; shards],
    };
    let dirty_count = dirty.iter().filter(|&&d| d).count();

    // Offsets: a clean shard's segment is the previous snapshot's
    // shifted by a constant, so only dirty shards scan their live row
    // lengths. (Empty shards contribute nothing; skipping them also
    // keeps a clamped `start` beyond the previous snapshot's node count
    // from being consulted.)
    let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
    offsets.push(0);
    for (shard, &shard_dirty) in dirty.iter().enumerate() {
        let (start, end) = layout.node_range(shard, n);
        if start == end {
            continue;
        }
        let base = offsets.last().copied().unwrap_or(0);
        // A shard can only be clean when a reusable snapshot exists (all
        // shards are dirty otherwise), but scanning the live rows is
        // correct either way — so the unreachable arm serializes rather
        // than panicking a serving thread.
        let reuse = if shard_dirty { None } else { reusable };
        match reuse {
            Some(prev) => {
                // Clean and non-empty: the node range is identical in
                // `prev` (see the soundness note above), so its offsets
                // are too, up to the base shift.
                let seg = &prev.graph.offsets[start..=end];
                let prev_base = seg[0];
                offsets.extend(seg[1..].iter().map(|&o| o - prev_base + base));
            }
            None => {
                let mut acc = base;
                for row in &adj[start..end] {
                    acc += row.len();
                    offsets.push(acc);
                }
            }
        }
    }
    debug_assert_eq!(offsets.len(), n + 1);
    debug_assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "CSR offsets must be monotone"
    );
    let total = offsets.last().copied().unwrap_or(0);

    let (neighbors, slot_weight) = fill_csr(adj, wadj, layout, n, total, &dirty, reusable);
    let graph = Graph::from_csr(offsets, neighbors);
    let graph = match slot_weight {
        Some(sw) => graph.attach_weights(sw),
        None => graph,
    };
    (graph, dirty_count)
}

/// CSR fill: append shard segments in node-id order — dirty shards
/// serialize their live rows, clean shards memcpy the previous
/// snapshot's segments. Appending into `with_capacity` buffers skips
/// zero-initializing them.
fn fill_csr(
    adj: &[Vec<NodeId>],
    wadj: Option<&[Vec<f64>]>,
    layout: ShardLayout,
    n: usize,
    total: usize,
    dirty: &[bool],
    reusable: Option<&Snapshot>,
) -> (Vec<NodeId>, Option<Vec<f64>>) {
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(total);
    let mut slot_weight: Option<Vec<f64>> = wadj.map(|_| Vec::with_capacity(total));
    for (shard, &shard_dirty) in dirty.iter().enumerate() {
        let (start, end) = layout.node_range(shard, n);
        if start == end {
            continue;
        }
        // Clean shards only exist when a reusable snapshot does; the
        // unreachable clean-without-prev arm re-serializes (always
        // correct) instead of panicking.
        let reuse = if shard_dirty { None } else { reusable };
        match reuse {
            Some(prev) => {
                let base = prev.graph.offsets[start];
                let stop = prev.graph.offsets[end];
                neighbors.extend_from_slice(&prev.graph.neighbors[base..stop]);
                if let (Some(w), Some(lane)) = (&mut slot_weight, prev.graph.weights.as_deref()) {
                    w.extend_from_slice(&lane.slot_weight[base..stop]);
                }
            }
            None => match (&mut slot_weight, wadj) {
                (Some(w), Some(wrows)) => {
                    for (row, wrow) in adj[start..end].iter().zip(&wrows[start..end]) {
                        neighbors.extend_from_slice(row);
                        w.extend_from_slice(wrow);
                    }
                }
                _ => {
                    for row in &adj[start..end] {
                        neighbors.extend_from_slice(row);
                    }
                }
            },
        }
    }
    (neighbors, slot_weight)
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.read();
        f.debug_struct("GraphStore")
            .field("n", &inner.dynamic.n())
            .field("m", &inner.dynamic.m())
            .field("version", &inner.dynamic.version())
            .field("shards", &inner.dynamic.shard_layout().shards())
            .field("snapshot_cached", &inner.cached.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn from_graph_serves_the_seed_without_a_rebuild() {
        let store = GraphStore::from_graph(barbell());
        let a = store.snapshot();
        let b = store.snapshot();
        assert_eq!(a.version(), 0);
        assert!(a.shares_graph(&b), "no mutation: same Arc, no rebuild");
        assert_eq!(a.n(), 6);
        assert_eq!(a.m(), 7);
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
    fn with_dynamic_and_has_edge_see_the_live_graph() {
        let store = GraphStore::from_graph(barbell());
        store.insert_edge(0, 5);
        assert_eq!(store.with_dynamic(|d| d.degree(0)), 3);
        assert!(store.has_edge(0, 5));
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
        let mut b = crate::weighted::WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 3.0);
        let store = GraphStore::from_graph(b.build().into_graph());
        assert!(store.is_weighted());
        let v0 = store.snapshot();
        assert!(v0.is_weighted());
        assert_eq!(v0.edge_weight(0, 1), Some(2.0));

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
        assert!(store.insert_edge_w(2, 3, 0.25));
        assert_eq!(store.snapshot().edge_weight(2, 3), Some(0.25));
        assert_eq!(store.edge_weight(2, 3), Some(0.25));
    }

    #[test]
    fn weighted_mutators_refuse_on_unweighted_stores() {
        let store = GraphStore::from_graph(barbell());
        assert!(!store.is_weighted());
        assert!(!store.insert_edge_w(0, 4, 2.0));
        assert_eq!(store.set_weight(0, 1, 2.0), None);
        assert_eq!(store.version(), 0, "refused ops never bump");
        assert_eq!(store.edge_weight(0, 1), Some(1.0), "unweighted edge = 1");
    }

    #[test]
    fn incremental_rebuild_matches_from_scratch() {
        // Ring + chords across 64 nodes, 8 shards of 8.
        let store = GraphStore::with_shards(64, 8);
        for v in 0..64u32 {
            store.insert_edge(v, (v + 1) % 64);
        }
        let first = store.snapshot(); // full rebuild (no cached snapshot)
        assert_eq!(store.rebuild_stats().last_dirty_shards, 8);

        // One edge inside shard 2 ({16..24}): only shard 2 is dirty.
        assert!(store.insert_edge(17, 20));
        assert_eq!(store.dirty_shards(), 1);
        let second = store.snapshot();
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
        assert_eq!(store.rebuild_stats().shards_reused, 7);

        // The incremental result must equal a from-scratch build.
        let scratch = store.with_dynamic(|d| d.snapshot());
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
        let store = GraphStore::from_dynamic(
            crate::dynamic::DynamicGraph::new_weighted_with_shards(16, 4),
        );
        for v in 0..15u32 {
            assert!(store.insert_edge_w(v, v + 1, f64::from(v) + 0.5));
        }
        let _first = store.snapshot();
        // Touch only shard 0 ({0..4}) with a weight change.
        assert_eq!(store.set_weight(1, 2, 9.0), Some(1.5));
        let snap = store.snapshot();
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
        assert_eq!(snap.edge_weight(1, 2), Some(9.0));
        // Clean shards' weights copied forward intact.
        assert_eq!(snap.edge_weight(10, 11), Some(10.5));
        let scratch = store.with_dynamic(|d| d.snapshot());
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
        // dirties only shard 4; shard 5's clamped start (5) now lies
        // beyond the previous snapshot's offsets — the rebuild must not
        // consult them for a zero-length segment.
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
        // every rebuild copies the seven clean shards forward from the
        // previous epoch and re-serializes only the dirty one — the
        // result must match a from-scratch build every time.
        let store = GraphStore::with_shards(32, 8); // shard_size 4
        for v in 0..31u32 {
            store.insert_edge(v, v + 1);
        }
        for round in 0..5 {
            // Toggle an edge inside shard 1 ({4..8}): the graph returns
            // to the same shape, but the shard's counter moves.
            assert!(store.remove_edge(5, 6));
            assert!(store.insert_edge(5, 6));
            let snap = store.snapshot();
            let scratch = store.with_dynamic(|d| d.snapshot());
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
        // later shard's offsets; the copied segments must follow.
        assert!(store.insert_edge(4, 6));
        let snap = store.snapshot();
        assert_eq!(snap.neighbors(4), &[3, 5, 6]);
        let scratch = store.with_dynamic(|d| d.snapshot());
        for v in 0..32u32 {
            assert_eq!(snap.neighbors(v), scratch.neighbors(v));
        }
        assert_eq!(store.rebuild_stats().last_dirty_shards, 1);
    }

    #[test]
    fn weighted_churn_rederives_strengths_and_totals_exactly() {
        // Weight changes inside one shard: clean shards' slot weights are
        // copied forward, and strengths and the total must re-derive
        // exactly as a scratch build computes them.
        let store = GraphStore::from_dynamic(
            crate::dynamic::DynamicGraph::new_weighted_with_shards(16, 4),
        );
        for v in 0..15u32 {
            assert!(store.insert_edge_w(v, v + 1, 1.0));
        }
        let _ = store.snapshot();
        for round in 0..4 {
            let w = f64::from(round) + 2.0;
            assert_ne!(store.set_weight(5, 6, w), None); // shard 1
            let snap = store.snapshot();
            let scratch = store.with_dynamic(|d| d.snapshot());
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
