//! # dmcs-engine — the typed serving layer of the DMCS workspace
//!
//! Turns the one-shot, single-threaded community search into a serving
//! API: typed requests and responses, long-lived sessions with reusable
//! buffers, concurrent batches over pinned graph snapshots, live graph
//! updates through a versioned sharded store, a shard-scoped result
//! cache, a typed error taxonomy with stable exit codes, and structured
//! (JSON-lines) output.
//!
//! - [`registry`] — [`AlgoSpec`] (label + params) → `Box<dyn
//!   CommunitySearch>`; the **only** algorithm-construction site in the
//!   workspace. CLI `--algo` parsing, the experiment line-ups and the
//!   generated help text all resolve through it; unknown labels come
//!   back as [`EngineError::UnknownAlgo`] with a nearest-name
//!   suggestion. Weighted serving is first-class: `fpa`/`nca` with
//!   [`AlgoParams::weighted`] build the weighted searchers, and
//!   weightedness participates in the cache key.
//! - [`error`] — [`EngineError`], the workspace-wide error taxonomy.
//!   Implements `std::error::Error` with full `source()` chains and maps
//!   every variant to a distinct, documented process exit code.
//! - [`request`] — [`QueryRequest`] (query nodes + correlation tag)
//!   and [`QueryResponse`] (the
//!   [`SearchResult`](dmcs_core::SearchResult) plus the algorithm that
//!   ran, the query's wall time, and whether the answer came from the
//!   cache).
//! - [`cache`] — [`ResponseCache`], the
//!   hand-rolled LRU keyed by `(algorithm, params, sorted query nodes,
//!   store id)` with entries validated by a *fingerprint*: the versions
//!   of exactly the store shards the answering search touched, plus the
//!   graph's edge count. Updates to other shards that keep the edge
//!   count leave the entry live; a hit always equals a fresh search.
//!   An entry the daemon has hit also keeps its rendered reply bytes,
//!   so later hits copy them.
//! - [`session`] — [`Session`]: a pinned
//!   [`dmcs_graph::Snapshot`] + resolved algorithm + one
//!   persistent [`QueryWorkspace`](dmcs_graph::view::QueryWorkspace), so
//!   repeated single queries get the buffer-reuse speedup that batches
//!   get from per-worker workspaces. The session picks its substrate —
//!   the snapshot's bfs compute mirror or the canonical CSR — once, when
//!   it opens, and runs every query there.
//! - [`batch`] — [`BatchRunner`]: `std::thread::scope` fan-out with an
//!   atomic work queue where every worker is a per-thread [`Session`]
//!   over the same pinned snapshot; in-batch dedup of identical
//!   requests; deterministic (submission-order) responses and a
//!   throughput/latency [`BatchReport`] with cache counters.
//! - [`output`] — [`LineWriter`](output::LineWriter), the one
//!   JSON-lines writer behind every `--format json` line and every
//!   daemon reply, and the hand-rolled [`Json`](output::Json) parser
//!   and value type.
//! - [`ops`] — the op layer every front end drives (`--queries`,
//!   `--updates`, `dmcs serve`): the one original ↔ dense id map
//!   ([`IdSpace`](ops::IdSpace)), query-id hygiene, the one update
//!   interpreter ([`Mutation`](ops::Mutation) and the `--updates`
//!   script parser), and the [`StreamTally`](ops::StreamTally) behind
//!   a query stream's closing `summary` line.
//! - [`server`] — [`Server`], the `dmcs serve` socket daemon: unix/TCP
//!   listeners on `std::net`, one snapshot-pinned [`Session`] per
//!   connection, a versioned JSON-lines wire protocol
//!   (`query`/`update`/`repin`/`stats`/`shutdown`), bounded admission
//!   with typed overload replies, and graceful draining.
//! - [`Engine`] — a shared [`GraphStore`] + result cache + convenience
//!   entry points: the handle a server holds per loaded dataset, serving
//!   queries *and* mutations concurrently.
//!
//! ```
//! use dmcs_engine::{registry::AlgoSpec, Engine, QueryRequest};
//! use dmcs_graph::GraphBuilder;
//!
//! let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
//! let engine = Engine::from_graph(g);
//!
//! // Repeated single queries: one session, reused buffers, cached
//! // answers (the session pins the current snapshot).
//! let mut session = engine.session(&AlgoSpec::new("fpa"))?;
//! let result = session.search(&[0])?;
//! assert!(result.community.contains(&0));
//!
//! // A typed batch across 2 workers.
//! let requests = vec![
//!     QueryRequest::new(vec![0]),
//!     QueryRequest::new(vec![5]).with_tag("vip"),
//! ];
//! let report = engine.run_batch(&AlgoSpec::new("fpa"), &requests, 2)?;
//! assert_eq!(report.responses.len(), 2);
//! assert!(report.responses.iter().all(|r| r.is_ok()));
//! assert_eq!(report.responses[1].request.tag.as_deref(), Some("vip"));
//!
//! // A live update: lands in the store, served by the next snapshot.
//! engine.insert_edge(2, 4);
//! assert_eq!(engine.snapshot().version(), 1);
//! # Ok::<(), dmcs_engine::EngineError>(())
//! ```

#![warn(missing_docs)]

// Each module carries its own `//!` docs; outer `///` docs here would
// make rustdoc resolve those modules' intra-doc links in *this* scope,
// where they dangle.
pub mod batch;
pub mod cache;
pub mod error;
pub mod ops;
pub mod output;
pub mod plan;
pub mod registry;
pub mod request;
pub mod server;
pub mod session;

pub use batch::{BatchReport, BatchRunner};
pub use cache::ResponseCache;
pub use error::EngineError;
pub use plan::{PlanMode, QueryPlan};
pub use registry::{AlgoParams, AlgoSpec};
pub use request::{QueryRequest, QueryResponse};
#[cfg(unix)]
pub use server::install_sigterm_drain;
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use session::{Session, TopKOutcome};

use cache::DEFAULT_CACHE_CAPACITY;
use dmcs_graph::{GraphStore, NodeId, Snapshot};
use std::sync::Arc;

/// A loaded dataset ready to serve queries *and* mutations: a shared
/// sharded [`GraphStore`], a shared shard-scoped [`ResponseCache`], and
/// the engine entry points. Clone-cheap (both are behind [`Arc`]s), so
/// one instance can be handed to many serving tasks; mutators take
/// `&self`.
///
/// Reads pin snapshots: a batch (or session) opened before an update
/// keeps answering against the graph it started with, while the next
/// [`Engine::snapshot`] call sees the new epoch. Cache entries carry a
/// fingerprint — the versions of the shards their search actually
/// touched, plus the edge count — so an update in one shard invalidates
/// the answers living there, and leaves the rest of the cache warm
/// unless it changes the edge count.
#[derive(Debug, Clone)]
pub struct Engine {
    store: Arc<GraphStore>,
    cache: Arc<ResponseCache>,
}

impl Engine {
    /// Serve an existing store (pass a [`GraphStore`] to hand over
    /// ownership, or an `Arc<GraphStore>` to share it with other
    /// writers, e.g. another engine), with a default-capacity result
    /// cache.
    pub fn new(store: impl Into<Arc<GraphStore>>) -> Self {
        Engine::with_cache_capacity(store, DEFAULT_CACHE_CAPACITY)
    }

    /// Like [`Engine::new`] with an explicit cache capacity (0 disables
    /// caching).
    pub fn with_cache_capacity(store: impl Into<Arc<GraphStore>>, capacity: usize) -> Self {
        Engine {
            store: store.into(),
            cache: Arc::new(ResponseCache::new(capacity)),
        }
    }

    /// Build a store around a static graph and serve it (default shard
    /// count — [`dmcs_graph::DEFAULT_SHARD_COUNT`]).
    pub fn from_graph(graph: dmcs_graph::Graph) -> Self {
        Engine::new(GraphStore::from_graph(graph))
    }

    /// Like [`Engine::from_graph`] with an explicit shard count for the
    /// store (the CLI's `--shards`). More shards mean finer-grained
    /// cache invalidation; the count is fixed for the store's lifetime.
    pub fn from_graph_sharded(graph: dmcs_graph::Graph, shards: usize) -> Self {
        Engine::new(GraphStore::from_graph_sharded(graph, shards))
    }

    /// The underlying versioned store.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// The shared result cache (for counter inspection).
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// A snapshot of the current graph epoch (see
    /// [`GraphStore::snapshot`]: lazy rebuild, then `Arc` clones).
    pub fn snapshot(&self) -> Snapshot {
        self.store.snapshot()
    }

    /// The store's current mutation counter.
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// Number of shards the store partitions its node-id space into.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// Snapshot-rebuild counters (see
    /// [`dmcs_graph::RebuildStats`]): shard count, rebuild count,
    /// dirty/reused shard totals and last-rebuild timings.
    pub fn rebuild_stats(&self) -> dmcs_graph::RebuildStats {
        self.store.rebuild_stats()
    }

    /// Number of shards whose counter moved since the newest snapshot:
    /// the shards whose cached answers the writes since then could
    /// invalidate (see [`GraphStore::dirty_shards`]).
    pub fn dirty_shards(&self) -> usize {
        self.store.dirty_shards()
    }

    /// Insert an edge into the live graph (see
    /// [`GraphStore::insert_edge`]). In-flight snapshots are unaffected;
    /// cached answers for the old epoch stop matching.
    pub fn insert_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.store.insert_edge(u, v)
    }

    /// Insert an edge with weight `w` into the live (weighted) graph
    /// (see [`GraphStore::insert_edge_w`]).
    pub fn insert_edge_w(&self, u: NodeId, v: NodeId, w: f64) -> bool {
        self.store.insert_edge_w(u, v, w)
    }

    /// Update the weight of an existing edge on the live (weighted)
    /// graph, returning the previous weight (see
    /// [`GraphStore::set_weight`]). A weight change bumps the version,
    /// so cached answers for the old epoch stop matching — same
    /// topology, different weights, different epoch.
    pub fn set_weight(&self, u: NodeId, v: NodeId, w: f64) -> Option<f64> {
        self.store.set_weight(u, v, w)
    }

    /// Remove an edge from the live graph (see
    /// [`GraphStore::remove_edge`]).
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.store.remove_edge(u, v)
    }

    /// Append a fresh isolated node to the live graph; returns its id.
    pub fn add_node(&self) -> NodeId {
        self.store.add_node()
    }

    /// Open a [`Session`] for `spec`, pinned to the **current** snapshot
    /// and sharing the engine's result cache — the entry point for
    /// repeated single queries. Re-open after updates to serve the new
    /// epoch.
    pub fn session(&self, spec: &AlgoSpec) -> Result<Session, EngineError> {
        Ok(Session::new(self.snapshot(), spec)?.with_cache(Arc::clone(&self.cache)))
    }

    /// Resolve `spec` through the registry and run the whole batch on
    /// `threads` workers (clamped to one worker per distinct request)
    /// against the current snapshot, consulting the shared cache. Plans
    /// under [`PlanMode::Auto`]; see [`Engine::run_batch_planned`].
    pub fn run_batch(
        &self,
        spec: &AlgoSpec,
        requests: &[QueryRequest],
        threads: usize,
    ) -> Result<BatchReport, EngineError> {
        self.run_batch_planned(spec, requests, threads, PlanMode::Auto)
    }

    /// [`Engine::run_batch`] with an explicit planner mode (the CLI's
    /// `--plan`). Plans choose execution strategy only — grouping and
    /// memoization — so responses are bit-identical across modes; the
    /// report's scheduling counters and `plan` label record the choice.
    pub fn run_batch_planned(
        &self,
        spec: &AlgoSpec,
        requests: &[QueryRequest],
        threads: usize,
        plan: PlanMode,
    ) -> Result<BatchReport, EngineError> {
        BatchRunner::new(spec.clone(), threads)?
            .with_cache(Arc::clone(&self.cache))
            .with_plan(plan)
            .run(&self.snapshot(), requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    fn triangle_engine() -> Engine {
        Engine::from_graph(GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]))
    }

    #[test]
    fn engine_round_trip() {
        let engine = triangle_engine();
        let report = engine
            .run_batch(&AlgoSpec::new("nca"), &[QueryRequest::new(vec![0])], 1)
            .unwrap();
        assert_eq!(report.succeeded(), 1);
        assert!(matches!(
            engine.run_batch(&AlgoSpec::new("nope"), &[], 1),
            Err(EngineError::UnknownAlgo { .. })
        ));
        assert_eq!(engine.store().n(), engine.snapshot().n());
    }

    #[test]
    fn engine_sessions_serve_repeated_queries() {
        let engine = triangle_engine();
        let mut session = engine.session(&AlgoSpec::new("fpa")).unwrap();
        for q in 0..3u32 {
            assert!(session.search(&[q]).unwrap().community.contains(&q));
        }
    }

    #[test]
    fn engine_serves_updates_through_fresh_snapshots() {
        let engine = triangle_engine();
        let pinned = engine.snapshot();
        let v = engine.add_node();
        assert!(engine.insert_edge(2, v));
        assert_eq!(pinned.n(), 3, "pinned snapshot ignores the update");
        let fresh = engine.snapshot();
        assert_eq!(fresh.n(), 4);
        assert_eq!(fresh.version(), 2);
        assert_eq!(engine.version(), 2);
        assert!(!engine.insert_edge(2, v), "duplicate rejected");
    }

    #[test]
    fn engine_batches_hit_the_shared_cache_until_an_update() {
        let engine = triangle_engine();
        let reqs = [QueryRequest::new(vec![0])];
        let spec = AlgoSpec::new("fpa");
        let first = engine.run_batch(&spec, &reqs, 1).unwrap();
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        let second = engine.run_batch(&spec, &reqs, 1).unwrap();
        assert_eq!((second.cache_hits, second.cache_misses), (1, 0));
        assert_eq!(second.responses[0].seconds, first.responses[0].seconds);

        // An update moves the version: the same query recomputes.
        engine.remove_edge(0, 1);
        let third = engine.run_batch(&spec, &reqs, 1).unwrap();
        assert_eq!((third.cache_hits, third.cache_misses), (0, 1));
        assert_eq!(engine.cache().hits(), 1);
        assert_eq!(engine.cache().misses(), 2);
    }

    #[test]
    fn shared_store_between_engines() {
        let store = Arc::new(GraphStore::from_graph(GraphBuilder::from_edges(
            3,
            &[(0, 1), (1, 2)],
        )));
        let a = Engine::new(Arc::clone(&store));
        let b = Engine::new(Arc::clone(&store));
        a.insert_edge(0, 2);
        assert_eq!(b.snapshot().m(), 3, "writers share the store");
    }
}
