//! Sessions: a pinned graph [`Snapshot`], a resolved algorithm, a
//! persistent [`QueryWorkspace`], and (optionally) a handle on the
//! engine's shared shard-scoped result cache.
//!
//! A serving task holds one [`Session`] per (snapshot, algorithm) pair
//! and feeds it requests one at a time; the `O(n)` alive-mask / degree /
//! distance allocations are paid once per session, not once per query.
//! [`BatchRunner`](crate::BatchRunner) workers are thin wrappers over
//! exactly this type — one session per worker thread, all pinning the
//! same snapshot.
//!
//! **Pinning:** the session answers every query against the snapshot it
//! was opened with, even while updates land in the owning
//! [`GraphStore`](dmcs_graph::GraphStore). Long-lived callers that want
//! to see updates re-open their session (cheap — the store hands out
//! `Arc` clones between mutations) when
//! [`Snapshot::version`](dmcs_graph::Snapshot::version) falls behind the
//! store; the CLI's `--updates` loop does exactly that.
//!
//! **Substrate:** a session picks where its queries execute once, when
//! it opens. When the pinned snapshot carries a renumbered compute
//! mirror (`--layout bfs`), the algorithm is registered mirror-safe and
//! the spec is unweighted, every query runs on the cache-friendly
//! mirror, and the workspace's canonical [`NodeMap`] drives every id
//! tie-break — the Steiner seed of a multi-node query included. Results
//! are translated back to external ids at this boundary, so answers are
//! bit-identical to canonical execution;
//! [`Session::mirror_served`] counts the queries the mirror ran.
//! Otherwise (and after [`Session::without_mirror`]) every query runs on
//! the canonical CSR. Weighted specs stay canonical because their
//! floating-point sums follow the traversal order.
//!
//! **Served answers:** [`Session::query`], [`Session::top_k`] and the
//! daemon's serve path answer, and cache, the community, its density
//! modularity and the iteration count, with an empty `removal_order`.
//! The removal order is the peel's record for rebuilding its best
//! snapshot; no CLI output or wire reply renders it, and on a large
//! component it outweighs the community. So a cache hit and the miss
//! that stored it agree on every field. [`Session::search`] returns the
//! full order, in external ids on either substrate, for library callers.
//!
//! Every session keeps these defaults: those that answer queries one by
//! one (a single `--query`, an `--updates` script, a daemon connection)
//! consult no planner, and a batch plans only the order in which its
//! worker sessions run their queries.

use crate::cache::{fingerprint, CacheKey, CachedAnswer, Lookup, ResponseCache};
use crate::error::EngineError;
use crate::registry::AlgoSpec;
use crate::request::{QueryRequest, QueryResponse};
use dmcs_core::topk::{top_k_communities_with, TopKConfig};
use dmcs_core::{CommunitySearch, SearchError, SearchResult};
use dmcs_graph::layout::{ComputeGraph, NodeMap};
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{NodeId, Snapshot};
use std::sync::Arc;
use std::time::Instant;

/// A finished top-k enumeration from [`Session::top_k`]: the rounds (one
/// community each), stamped like a [`QueryResponse`] so callers render
/// and cache it the same way.
#[derive(Debug, Clone)]
pub struct TopKOutcome {
    /// Display name of the algorithm that drove the rounds.
    pub algo: &'static str,
    /// One community per round, diversity-ordered (empty when no round
    /// clears the objective floor), or the validation error. Each round
    /// is a served answer: its `removal_order` is empty (see the module
    /// docs).
    pub rounds: Result<Vec<SearchResult>, SearchError>,
    /// Wall-clock seconds of the computation (the *original* one when
    /// served from the cache).
    pub seconds: f64,
    /// Whether the outcome was replayed from the shared result cache.
    pub cached: bool,
}

/// A live query session: one pinned snapshot, one resolved algorithm,
/// one recyclable workspace, and an optional shared result cache.
///
/// ```
/// use dmcs_engine::{AlgoSpec, QueryRequest, Session};
/// use dmcs_graph::{GraphBuilder, Snapshot};
///
/// let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
/// let mut session = Session::new(Snapshot::freeze(g), &AlgoSpec::new("fpa"))?;
///
/// // Hot path: repeated single queries reuse the session's workspace.
/// for q in [0u32, 5, 3] {
///     let result = session.search(&[q])?;
///     assert!(result.community.contains(&q));
/// }
///
/// // Typed path: a full request/response round trip.
/// let response = session.query(&QueryRequest::new(vec![0]).with_tag("demo"))?;
/// assert_eq!(response.algo, "FPA");
/// assert!(response.community_size().unwrap() >= 1);
/// assert_eq!(response.request.tag.as_deref(), Some("demo"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session {
    snapshot: Snapshot,
    /// Shared by every cache key the session makes.
    spec: Arc<AlgoSpec>,
    algo: Box<dyn CommunitySearch>,
    ws: QueryWorkspace,
    /// Whether queries execute on the snapshot's compute mirror (see the
    /// module docs); `ws` then carries the mirror's map as its canon.
    mirrored: bool,
    mirror_served: u64,
    cache: Option<Arc<ResponseCache>>,
}

/// Execute one query on the snapshot's compute mirror and translate the
/// result back to external ids. The canonical tie-break shim (armed via
/// the workspace's canon map) makes the removal sequence identical to
/// canonical-order execution, so this is a pure substrate swap. An
/// out-of-range id passes through untranslated: the mirror has the same
/// node count, so the kernel rejects it with the caller's id, exactly as
/// on the canonical CSR.
fn mirror_search(
    algo: &dyn CommunitySearch,
    compute: &ComputeGraph,
    ws: &mut QueryWorkspace,
    nodes: &[NodeId],
) -> Result<SearchResult, SearchError> {
    let map = compute.map();
    let n = compute.graph().n();
    let internal: Vec<NodeId> = nodes
        .iter()
        .map(|&q| {
            if (q as usize) < n {
                map.to_internal(q)
            } else {
                q
            }
        })
        .collect();
    let mut r = algo.search_with_workspace(compute.graph(), &internal, ws)?;
    // A compute mirror is never the identity map, so the table is
    // always present; index it directly rather than paying
    // `to_external`'s indirection per translated node.
    if let Some(ext) = map.external_ids() {
        // Translate into a fresh, exactly sized vector rather than in
        // place: the result cache keeps the community, and the kernel's
        // buffer carries spare capacity.
        let mut community: Vec<NodeId> = r.community.iter().map(|&v| ext[v as usize]).collect();
        community.sort_unstable();
        r.community = community;
        for v in &mut r.removal_order {
            *v = ext[*v as usize];
        }
    }
    Ok(r)
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("algo", &self.algo.name())
            .field("graph_nodes", &self.snapshot.n())
            .field("graph_version", &self.snapshot.version())
            .field("cache", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Resolve `spec` through the registry and open a session pinned to
    /// `snapshot`, choosing its substrate (see the module docs).
    ///
    /// The workspace's component memo is armed with the snapshot's epoch
    /// key, so consecutive multi-node queries landing in the same
    /// connected component skip the connectivity-validation BFS
    /// (memoization is free when it never hits;
    /// [`Session::without_memo`] turns it off for reference answers and
    /// baseline benchmarks).
    pub fn new(snapshot: Snapshot, spec: &AlgoSpec) -> Result<Self, EngineError> {
        let algo = spec.build()?;
        let mut ws = QueryWorkspace::new();
        ws.arm_component_memo(snapshot.epoch_key());
        let mirror = snapshot.compute().filter(|_| {
            !spec.params.weighted
                && crate::registry::find(&spec.name).is_some_and(|e| e.mirror_safe)
        });
        if let Some(compute) = mirror {
            ws.set_canon(compute.map().clone());
        }
        let mirrored = mirror.is_some();
        Ok(Session {
            snapshot,
            spec: Arc::new(spec.clone()),
            algo,
            ws,
            mirrored,
            mirror_served: 0,
            cache: None,
        })
    }

    /// Disarm the workspace's component memo — every query re-derives
    /// its connected component from scratch. Used by reference sessions
    /// and by benchmarks that measure the memo's effect.
    pub fn without_memo(mut self) -> Self {
        self.ws.disarm_component_memo();
        self
    }

    /// Run every query on the canonical CSR. Used by reference sessions
    /// and by benchmarks comparing the substrates (output is
    /// byte-identical either way). Call it before the first query: the
    /// component memo speaks the ids of the substrate that filled it.
    pub fn without_mirror(mut self) -> Self {
        self.mirrored = false;
        self.ws.set_canon(NodeMap::identity());
        self
    }

    /// Number of queries so far that reused the memoized component of
    /// an earlier query on this session (always 0 when disarmed).
    pub fn memo_hits(&self) -> u64 {
        self.ws.memo_hits()
    }

    /// Number of queries this session executed on the renumbered
    /// compute mirror: every executed query when the session serves
    /// from the mirror (see the module docs), otherwise 0.
    pub fn mirror_served(&self) -> u64 {
        self.mirror_served
    }

    /// Whether this session serves its queries from the compute mirror
    /// (see the module docs).
    pub(crate) fn mirrored(&self) -> bool {
        self.mirrored
    }

    /// Attach a shared result cache. Subsequent [`Session::query`] and
    /// [`Session::top_k`] calls consult it before searching and populate
    /// it after. Keys carry the pinned snapshot's store id, so entries
    /// never cross stores; each entry's fingerprint certifies it by the
    /// shards its search read plus the edge count and total edge weight
    /// (see [`crate::cache`]).
    pub fn with_cache(mut self, cache: Arc<ResponseCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// A fresh session on this one's snapshot, spec and cache: the same
    /// answers from a new workspace. The daemon swaps one in after a
    /// request panicked, which may leave the workspace mid-query.
    pub(crate) fn reopen(&self) -> Result<Session, EngineError> {
        let fresh = Session::new(self.snapshot.clone(), &self.spec)?;
        Ok(Session {
            cache: self.cache.clone(),
            ..fresh
        })
    }

    /// The snapshot this session is pinned to.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Display name of the session's algorithm.
    pub fn algo_name(&self) -> &'static str {
        self.algo.name()
    }

    /// Run one query through the session's algorithm and workspace on
    /// its substrate — the raw hot path for repeated single queries, and
    /// the execution step of [`Session::query`]. Always computes (the
    /// result cache is consulted only by the typed path) and returns the
    /// whole [`SearchResult`], removal order included, bit-identical on
    /// either substrate (see the module docs).
    pub fn search(&mut self, nodes: &[NodeId]) -> Result<SearchResult, SearchError> {
        match self.snapshot.compute().filter(|_| self.mirrored) {
            Some(compute) => {
                self.mirror_served += 1;
                mirror_search(self.algo.as_ref(), compute, &mut self.ws, nodes)
            }
            None => self
                .algo
                .search_with_workspace(self.snapshot.graph(), nodes, &mut self.ws),
        }
    }

    /// Answer one typed request: consult the result cache (when
    /// attached), then time the search.
    ///
    /// Per-query search failures land inside the returned
    /// [`QueryResponse`], so every request is answered with `Ok`. The
    /// answer is a served one, with an empty removal order (see the
    /// module docs). A cache hit replays the original computation —
    /// algorithm name, outcome **and** timing — so a hit equals the miss
    /// that stored it field for field.
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryResponse, EngineError> {
        let key = self.cache_key(req);
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(hit) = cache.get(key, &self.snapshot) {
                let (algo, seconds) = (hit.algo, hit.seconds);
                return Ok(respond(req, algo, hit.into_single_result(), seconds, true));
            }
        }
        Ok(self.compute(req, key))
    }

    /// Answer `req` by appending the tail of its `response` line (see
    /// [`LineWriter::response_tail`](crate::output::LineWriter)) to
    /// `out`, for a caller rendering original ids through the id space
    /// `space`. One cache lookup decides how: a hit whose entry keeps a
    /// tail rendered under `space` copies it; any other request is
    /// answered as [`Session::query`] answers it and handed to `render`,
    /// and on an entry's first hit the cache keeps what `render` wrote.
    pub(crate) fn serve(
        &mut self,
        req: &QueryRequest,
        space: u64,
        out: &mut String,
        render: impl FnOnce(&QueryResponse, &mut String),
    ) -> Served {
        let key = self.cache_key(req);
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            match cache.lookup(key, &self.snapshot, space, out) {
                Lookup::Copied { seconds, ok } => {
                    return Served {
                        seconds,
                        ok,
                        cached: true,
                    }
                }
                Lookup::Hit(hit, ticket) => {
                    let (algo, seconds) = (hit.algo, hit.seconds);
                    let resp = respond(req, algo, hit.into_single_result(), seconds, true);
                    let start = out.len();
                    render(&resp, out);
                    if let Some(ticket) = ticket {
                        cache.attach(key, ticket, space, out[start..].to_string());
                    }
                    return Served::of(&resp);
                }
                Lookup::Miss => {}
            }
        }
        let resp = self.compute(req, key);
        render(&resp, out);
        Served::of(&resp)
    }

    /// The cache key of `req`, when a cache is attached.
    fn cache_key(&self, req: &QueryRequest) -> Option<CacheKey> {
        self.cache
            .as_ref()
            .map(|_| CacheKey::new(Arc::clone(&self.spec), &req.nodes, &self.snapshot))
    }

    /// Time the search for `req` and, given its cache `key`, store the
    /// served answer (no removal order).
    fn compute(&mut self, req: &QueryRequest, key: Option<CacheKey>) -> QueryResponse {
        if key.is_some() {
            // On the mirror the workspace's canon map keeps the noted
            // shards external-id shards.
            self.ws.begin_shard_tracking(self.snapshot.shard_layout());
        }
        let start = Instant::now();
        let result = self.search(&req.nodes).map(|mut r| {
            r.removal_order = Vec::new();
            r
        });
        let seconds = start.elapsed().as_secs_f64();
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            let answer = CachedAnswer::single(self.algo.name(), result.clone(), seconds);
            let touched = self.ws.take_touched_shards();
            cache.insert(key, answer, fingerprint(&self.snapshot, touched.as_deref()));
        }
        respond(req, self.algo.name(), result, seconds, false)
    }

    /// Enumerate up to `k` node-diverse communities for `nodes`, driving
    /// each round with the session's algorithm (weighted labels score
    /// the weighted objective) and consulting the shared result cache
    /// (when attached) under a top-k key — so repeated enumerations
    /// replay byte-identically, like single queries. Rounds below DM 0
    /// are cut off (the [`TopKConfig`] default). Each round is answered
    /// and cached without its removal order, as [`Session::query`]
    /// answers.
    pub fn top_k(&mut self, nodes: &[NodeId], k: usize) -> TopKOutcome {
        let key = self
            .cache
            .as_ref()
            .map(|_| CacheKey::for_top_k(Arc::clone(&self.spec), nodes, &self.snapshot, k));
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(hit) = cache.get(key, &self.snapshot) {
                return TopKOutcome {
                    algo: hit.algo,
                    rounds: hit.result,
                    seconds: hit.seconds,
                    cached: true,
                };
            }
        }

        let cfg = TopKConfig {
            k,
            ..TopKConfig::default()
        };
        // The rounds run on the canonical CSR even when the session
        // serves from the mirror, so the shards they read are noted
        // through a tracker of their own, whose canon is the identity.
        let mut tracker = QueryWorkspace::new();
        if key.is_some() {
            tracker.begin_shard_tracking(self.snapshot.shard_layout());
        }
        let weighted = self.spec.params.weighted;
        let start = Instant::now();
        let rounds = top_k_communities_with(
            self.snapshot.graph(),
            nodes,
            cfg,
            self.algo.as_ref(),
            weighted,
            &mut tracker,
        )
        .map(|mut rounds| {
            for r in &mut rounds {
                r.removal_order = Vec::new();
            }
            rounds
        });
        let seconds = start.elapsed().as_secs_f64();
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            let answer = CachedAnswer {
                algo: self.algo.name(),
                result: rounds.clone(),
                seconds,
            };
            let touched = tracker.take_touched_shards();
            cache.insert(key, answer, fingerprint(&self.snapshot, touched.as_deref()));
        }
        TopKOutcome {
            algo: self.algo.name(),
            rounds,
            seconds,
            cached: false,
        }
    }
}

/// What [`Session::serve`] answered, for the caller's
/// [`StreamTally`](crate::ops::StreamTally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Served {
    /// Wall-clock seconds of the (original) computation.
    pub seconds: f64,
    /// Whether the search produced a community.
    pub ok: bool,
    /// Whether the cache answered.
    pub cached: bool,
}

impl Served {
    fn of(resp: &QueryResponse) -> Served {
        Served {
            seconds: resp.seconds,
            ok: resp.is_ok(),
            cached: resp.cached,
        }
    }
}

/// Echo `req` back around a raw search outcome.
fn respond(
    req: &QueryRequest,
    algo: &'static str,
    result: Result<SearchResult, SearchError>,
    seconds: f64,
    cached: bool,
) -> QueryResponse {
    QueryResponse {
        request: req.clone(),
        algo,
        result,
        seconds,
        cached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::{Graph, GraphBuilder};

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    fn session(algo: &str) -> Session {
        Session::new(Snapshot::freeze(barbell()), &AlgoSpec::new(algo)).unwrap()
    }

    #[test]
    fn session_matches_one_shot_search() {
        let g = barbell();
        let mut session = session("fpa");
        let one_shot = AlgoSpec::new("fpa").build().unwrap();
        for q in 0..6u32 {
            assert_eq!(
                session.search(&[q]),
                one_shot.search(&g, &[q]),
                "query {q} diverges from the workspace-free path"
            );
        }
    }

    #[test]
    fn cache_keys_share_the_session_spec() {
        let cache = Arc::new(ResponseCache::new(8));
        let session = session("fpa").with_cache(cache);
        let key = |nodes: Vec<NodeId>| session.cache_key(&QueryRequest::new(nodes)).unwrap();
        let (a, b) = (key(vec![0]), key(vec![3, 5]));
        assert!(
            Arc::ptr_eq(&a.spec, &b.spec),
            "one spec, not a copy per key"
        );
        assert_eq!(*a.spec, AlgoSpec::new("fpa"));
        assert!(
            std::mem::size_of::<CacheKey>() < 72,
            "a key held the spec by value"
        );
    }

    #[test]
    fn unknown_session_algo_is_typed() {
        let err = Session::new(Snapshot::freeze(barbell()), &AlgoSpec::new("zeus")).unwrap_err();
        assert!(matches!(err, EngineError::UnknownAlgo { .. }));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn request_tag_flows_through() {
        let mut session = session("fpa");
        let resp = session
            .query(&QueryRequest::new(vec![0]).with_tag("t-1"))
            .unwrap();
        assert_eq!(resp.algo, "FPA");
        assert_eq!(resp.request.tag.as_deref(), Some("t-1"));
        assert!(resp.seconds >= 0.0);
        assert!(!resp.cached, "no cache attached");
    }

    #[test]
    fn per_query_search_errors_stay_in_the_response() {
        let split = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let mut session = Session::new(Snapshot::freeze(split), &AlgoSpec::new("fpa")).unwrap();
        let resp = session.query(&QueryRequest::new(vec![0, 3])).unwrap();
        assert!(!resp.is_ok());
        assert_eq!(resp.community_size(), None);
    }

    #[test]
    fn cache_hit_replays_the_original_response() {
        let cache = Arc::new(ResponseCache::new(16));
        let mut session = session("fpa").with_cache(Arc::clone(&cache));
        let miss = session.query(&QueryRequest::new(vec![0])).unwrap();
        assert!(!miss.cached);
        let hit = session.query(&QueryRequest::new(vec![0])).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.result, miss.result);
        assert_eq!(hit.seconds, miss.seconds, "original timing replayed");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Node order is part of the key: FPA roots the Steiner seed at
        // the first query node, so a permuted repeat computes its own
        // answer, and then hits it.
        let multi = session.query(&QueryRequest::new(vec![0, 2])).unwrap();
        assert!(!multi.cached);
        let swapped = session.query(&QueryRequest::new(vec![2, 0])).unwrap();
        assert!(!swapped.cached);
        let again = session.query(&QueryRequest::new(vec![2, 0])).unwrap();
        assert!(again.cached);
    }

    #[test]
    fn cache_errors_are_replayed_too() {
        let split = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let cache = Arc::new(ResponseCache::new(16));
        let mut session = Session::new(Snapshot::freeze(split), &AlgoSpec::new("fpa"))
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let miss = session.query(&QueryRequest::new(vec![0, 3])).unwrap();
        assert!(!miss.is_ok() && !miss.cached);
        let hit = session.query(&QueryRequest::new(vec![0, 3])).unwrap();
        assert!(hit.cached, "deterministic failures are cacheable");
        assert_eq!(hit.result, miss.result);
    }

    #[test]
    fn top_k_enumerates_caches_and_replays() {
        // Two 4-cliques sharing node 0: two legitimate communities.
        let mut b = GraphBuilder::new(7);
        for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(c[i], c[j]);
                }
            }
        }
        let snap = Snapshot::freeze(b.build());
        let cache = Arc::new(ResponseCache::new(16));
        let mut session = Session::new(snap, &AlgoSpec::new("fpa"))
            .unwrap()
            .with_cache(Arc::clone(&cache));

        let miss = session.top_k(&[0], 3);
        assert!(!miss.cached);
        assert_eq!(miss.algo, "FPA");
        let rounds = miss.rounds.as_ref().unwrap();
        assert_eq!(rounds.len(), 2, "both wings of the bowtie");

        let hit = session.top_k(&[0], 3);
        assert!(hit.cached);
        assert_eq!(hit.rounds.as_ref().unwrap(), rounds);
        assert_eq!(hit.seconds, miss.seconds, "original timing replayed");

        // A single query over the same nodes is a different cache slot.
        let single = session.query(&QueryRequest::new(vec![0])).unwrap();
        assert!(!single.cached, "top-k entries never answer single queries");

        // Validation errors surface inside the outcome (and cache too).
        let bad = session.top_k(&[99], 2);
        assert!(bad.rounds.is_err());
        assert!(session.top_k(&[99], 2).cached);
    }

    /// Two shortest 0→3 paths, 0-6-5-3 and 0-7-2-3, plus a triangle on
    /// 3. The bfs layout numbers 5 before 2, so a Steiner seed that broke
    /// path ties by substrate id would take the other path on the mirror.
    fn crossed_paths() -> Graph {
        GraphBuilder::from_edges(
            8,
            &[
                (0, 6),
                (0, 7),
                (6, 5),
                (7, 2),
                (5, 3),
                (2, 3),
                (3, 1),
                (3, 4),
                (1, 4),
            ],
        )
    }

    #[test]
    fn mirror_serving_is_bit_identical_and_counted() {
        use dmcs_graph::{GraphStore, LayoutPolicy};
        let store = GraphStore::from_graph(crossed_paths());
        store.set_layout_policy(LayoutPolicy::Bfs);
        let snap = store.snapshot();
        let map = snap.compute().expect("bfs builds a mirror").map();
        assert!(
            map.to_internal(5) < map.to_internal(2),
            "the layout crosses the tie"
        );
        let queries: Vec<Vec<NodeId>> = (0..8u32)
            .map(|q| vec![q])
            .chain([vec![0, 3], vec![3, 0], vec![4, 0, 1], vec![1, 9]])
            .collect();
        for algo in ["fpa", "nca", "fpa-dmg", "nca-dr"] {
            let mut mirrored = Session::new(snap.clone(), &AlgoSpec::new(algo)).unwrap();
            let mut canonical = Session::new(snap.clone(), &AlgoSpec::new(algo))
                .unwrap()
                .without_mirror();
            for q in &queries {
                let a = mirrored.search(q);
                let b = canonical.search(q);
                assert_eq!(a, b, "{algo} query {q:?}");
            }
            // Multi-node and out-of-range queries run on the mirror too.
            assert_eq!(mirrored.mirror_served(), queries.len() as u64, "{algo}");
            assert_eq!(canonical.mirror_served(), 0);
        }
    }

    #[test]
    fn mirror_ineligible_specs_never_mirror() {
        use dmcs_graph::{GraphStore, LayoutPolicy};
        let store = GraphStore::from_graph(barbell());
        store.set_layout_policy(LayoutPolicy::Bfs);
        let snap = store.snapshot();
        // A weighted spec and a non-shimmed baseline stay canonical.
        for spec in [AlgoSpec::new("fpa").weighted(), AlgoSpec::new("kc")] {
            let mut s = Session::new(snap.clone(), &spec).unwrap();
            let _ = s.search(&[0]); // outcome is the spec's business
            assert_eq!(s.mirror_served(), 0, "{}", spec.name);
        }
        // The default path does mirror through query(), cache attached
        // or not, with identical shard-fingerprint semantics.
        let cache = Arc::new(ResponseCache::new(16));
        let mut s = Session::new(snap, &AlgoSpec::new("fpa"))
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let miss = s.query(&QueryRequest::new(vec![0])).unwrap();
        assert!(!miss.cached && s.mirror_served() == 1);
        let hit = s.query(&QueryRequest::new(vec![0])).unwrap();
        assert!(hit.cached, "mirror-served entries are cacheable");
        assert_eq!(hit.result, miss.result);
        assert_eq!(s.mirror_served(), 1, "hits replay, not re-execute");
    }
}
