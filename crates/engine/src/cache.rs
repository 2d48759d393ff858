//! The shard-scoped response cache: a hand-rolled LRU (the workspace's
//! dependency policy admits no cache crate) mapping `(algorithm spec,
//! query nodes in request order, top-k rounds, store id)` to finished
//! answers, each validated by a [`Fingerprint`].
//!
//! Correctness comes from the fingerprint, and one rule certifies every
//! answer. Density modularity (Definition 2) reads the rows of the
//! nodes involved plus one global: the edge count `m`, or in the
//! weighted form the total edge weight `w_G`. So every entry records
//! `m`, the bits of `w_G` (`Graph::total_weight`, which is `m` on a
//! graph without weights) and the versions of the shards holding the
//! nodes its search noted (captured at search time via
//! [`QueryWorkspace`](dmcs_graph::view::QueryWorkspace) shard
//! tracking), and a lookup replays the entry only while the serving
//! snapshot still carries all three. That is an exact certificate,
//! because each search notes every node whose row it reads:
//!
//! - FPA, on either weighting, and FPA-DMG note the nodes their layered
//!   BFS discovered. With layer pruning that walk stops once no deeper
//!   layer prefix can win, so it notes the layers it closed plus the
//!   layer after them, whose degrees the stop read; a walk that ran to
//!   the end notes the whole component. A multi-node query also notes
//!   what its Steiner seed's BFS found: that walk stops at the farthest
//!   query node's distance D from the first, so it finds exactly the
//!   nodes within D hops, and the seed's shortest paths read only their
//!   distances and the rows of the nodes closer than D;
//! - NCA and NCA-DR note the component they peel;
//! - a top-k enumeration notes its query's component: every round runs
//!   on a subgraph induced from it and is re-scored against `m` or `w_G`.
//!
//! `m` stays in the fingerprint beside `w_G` because an unweighted spec
//! served on a weighted store reads `m`, and a small enough weight can
//! leave `w_G`'s bits unchanged. The converse is the one conservative
//! case: such a spec also misses after a weight update elsewhere, though
//! no front end serves that mix (`--weighted` makes every spec
//! weighted).
//!
//! An update to shard 3 therefore stops matching entries that noted a
//! node in shard 3, and an update anywhere that changes `m` or `w_G`
//! stops matching every entry; a `del` + `add` pair elsewhere restores
//! `m` and leaves entries whose noted nodes live entirely in shards 0–2
//! hot. Only a search that noted nothing (the exact solvers, the
//! baselines, and errors raised before noting) fingerprints *every*
//! shard, degrading to whole-graph invalidation, never to a wrong
//! answer. Stale entries age out of the LRU like everything else.
//!
//! A cached answer replays the original response verbatim — including
//! its `seconds` — so a cache hit renders **byte-identical** JSON to the
//! miss that populated it.
//!
//! **Rendered replies.** An answer is a pure function of the query set
//! and the graph, so its `response` line never changes after the `tag`
//! member. The daemon keeps those bytes in the entry: on an entry's
//! first hit it renders the reply and [attaches](ResponseCache::attach)
//! the tail, stamped with the id of the
//! [`IdSpace`](crate::ops::IdSpace) that mapped its ids, and every later
//! [`lookup`](ResponseCache::lookup) under that id space copies the bytes
//! instead of decoding the answer and rendering it again. A miss attaches
//! nothing, so traffic that never repeats stores no bytes; overwriting an
//! entry drops them.
//!
//! **Compact entries.** Entries hold served answers: the community, its
//! density modularity and the iteration count, with an empty removal
//! order (no reply renders it; see [`Session`](crate::Session)). An
//! entry keeps its rounds packed in one byte string: per round the
//! density modularity's `f64` bits, then LEB128 varints for the
//! iteration count and for the community and the removal order, each a
//! length and then zigzag deltas from the id before (the first from 0).
//! A served community is sorted, so ids that lie within 63 of the one
//! before cost one byte each, and the deltas keep any order exact.
//! [`get`](ResponseCache::get) and [`lookup`](ResponseCache::lookup)
//! decode into the same [`CachedAnswer`] that was inserted. A
//! fingerprint shares its epoch's shard-version vector with the
//! snapshot and keeps only the list of shards it pins (none when it pins
//! every shard).
//!
//! **Bounds.** The cache keeps running totals of its entries and of
//! their bytes ([`ResponseCache::len`], [`ResponseCache::bytes`]): an
//! entry counts its packed rounds, 4 bytes per query node of its key
//! and its attached reply bytes. These are lengths, not allocator
//! capacities, so the same entries always count the same. Both totals
//! are capped: at most `capacity` entries and [`BYTES_PER_ENTRY`] bytes
//! per entry of capacity in all (16 MiB at the default 1024), so a
//! graph with giant communities cannot hold `capacity` copies of them.
//! An insert evicts least-recently-used entries until both fit; an
//! answer larger than the whole byte budget is not kept, and neither is
//! a reply tail that would take the total over it.

use crate::registry::AlgoSpec;
use dmcs_core::{SearchError, SearchResult};
use dmcs_graph::{NodeId, Snapshot};
use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cache entry's validity certificate: the graph's edge count, the
/// bits of its total edge weight, and the versions of the shards the
/// answer depends on. Built with [`fingerprint`].
#[derive(Debug, Clone)]
pub struct Fingerprint {
    m: usize,
    /// `w_G`'s bits (`m` on a graph without weights).
    w_g: u64,
    /// The shard versions of the epoch the answer was computed at,
    /// shared with that epoch's snapshots.
    versions: Arc<[u64]>,
    /// The pinned shards, sorted; `None` pins every shard.
    shards: Option<Box<[u32]>>,
}

impl Fingerprint {
    /// Whether a snapshot still carries this certificate's edge count,
    /// total weight and shard versions.
    fn matches(&self, snapshot: &Snapshot) -> bool {
        let current = snapshot.shard_versions();
        self.m == snapshot.m()
            && self.w_g == snapshot.total_weight().to_bits()
            && match &self.shards {
                Some(shards) => shards.iter().all(|&s| {
                    let s = s as usize;
                    current
                        .get(s)
                        .is_some_and(|v| self.versions.get(s) == Some(v))
                }),
                None => *self.versions == *current,
            }
    }
}

/// Two fingerprints are equal when they certify the same thing: the same
/// `m`, `w_G` and pinned shards, at the same versions.
impl PartialEq for Fingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.w_g == other.w_g
            && match (&self.shards, &other.shards) {
                (Some(a), Some(b)) => {
                    a == b
                        && a.iter().all(|&s| {
                            self.versions.get(s as usize) == other.versions.get(s as usize)
                        })
                }
                (None, None) => self.versions == other.versions,
                _ => false,
            }
    }
}

impl Eq for Fingerprint {}

/// Build the fingerprint for an answer computed against `snapshot`: its
/// edge count and total weight, and the versions of the `touched`
/// shards, the sorted shard list of the nodes the search noted (from
/// [`QueryWorkspace::take_touched_shards`]). `None`, for a search that
/// noted nothing, conservatively pins every shard, as does a list of
/// every shard.
///
/// [`QueryWorkspace::take_touched_shards`]: dmcs_graph::view::QueryWorkspace::take_touched_shards
pub fn fingerprint(snapshot: &Snapshot, touched: Option<&[u32]>) -> Fingerprint {
    let versions = snapshot.shared_shard_versions();
    let shards = touched
        .filter(|shards| shards.len() < versions.len())
        .map(Box::from);
    Fingerprint {
        m: snapshot.m(),
        w_g: snapshot.total_weight().to_bits(),
        versions,
        shards,
    }
}

/// Default entry capacity of an engine's cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// The byte budget of a cache, per entry of its capacity: the sum of
/// what its entries count toward [`ResponseCache::bytes`] stays within
/// `capacity × BYTES_PER_ENTRY`.
pub const BYTES_PER_ENTRY: u64 = 16 * 1024;

/// What one cache entry answers: the served search outcome (its removal
/// orders empty) plus the display name of the algorithm that ran and the
/// wall time of the *original* computation (replayed on hits, keeping
/// output byte-stable).
///
/// The outcome is a *list* of communities: single queries store exactly
/// one ([`CachedAnswer::single`] / [`CachedAnswer::into_single_result`]),
/// top-k enumerations store one per round. The two never collide — the
/// key's [`CacheKey::top_k`] field separates them.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// Display name of the algorithm that computed the entry.
    pub algo: &'static str,
    /// The search outcome: one community per round (exactly one for
    /// single queries).
    pub result: Result<Vec<SearchResult>, SearchError>,
    /// Wall-clock seconds of the original computation.
    pub seconds: f64,
}

impl CachedAnswer {
    /// Entry for a single-community outcome.
    pub fn single(
        algo: &'static str,
        result: Result<SearchResult, SearchError>,
        seconds: f64,
    ) -> Self {
        CachedAnswer {
            algo,
            result: result.map(|r| vec![r]),
            seconds,
        }
    }

    /// The outcome as a single-community result (the first round).
    /// Meaningful only for entries stored under a single-query key; an
    /// (impossible by construction) empty entry surfaces as
    /// [`SearchError::EmptyQuery`] rather than tearing the thread down.
    /// Consumes the answer, so a cache hit (already a private copy of
    /// the entry) moves its community out instead of cloning it again.
    pub fn into_single_result(self) -> Result<SearchResult, SearchError> {
        self.result
            .and_then(|rounds| rounds.into_iter().next().ok_or(SearchError::EmptyQuery))
    }
}

/// Append `x` to `out` as an LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Take one [`put_varint`] value off the front of `bytes`.
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    while let Some((&b, rest)) = bytes.split_first() {
        *bytes = rest;
        x |= u64::from(b & 0x7f).checked_shl(shift).unwrap_or(0);
        if b < 0x80 {
            break;
        }
        shift = shift.saturating_add(7);
    }
    x
}

/// Append `ids`: its length, then each id's zigzag delta from the one
/// before (the first from 0).
fn put_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
    put_varint(out, ids.len() as u64);
    let mut prev = 0i64;
    for &v in ids {
        let delta = i64::from(v) - prev;
        put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
        prev = i64::from(v);
    }
}

/// Take one [`put_ids`] list off the front of `bytes`.
fn take_ids(bytes: &mut &[u8]) -> Vec<NodeId> {
    // Every id takes at least one byte, which bounds the list.
    let len = take_varint(bytes).min(bytes.len() as u64) as usize;
    let mut ids = Vec::with_capacity(len);
    let mut prev = 0i64;
    for _ in 0..len {
        let z = take_varint(bytes);
        prev = prev.wrapping_add((z >> 1) as i64 ^ -((z & 1) as i64));
        ids.push(prev as NodeId);
    }
    ids
}

/// Rounds in the packed form of the module docs, in one exactly sized
/// allocation.
fn pack(rounds: &[SearchResult]) -> Box<[u8]> {
    let mut out = Vec::new();
    for r in rounds {
        out.extend_from_slice(&r.density_modularity.to_bits().to_le_bytes());
        put_varint(&mut out, r.iterations as u64);
        put_ids(&mut out, &r.community);
        put_ids(&mut out, &r.removal_order);
    }
    Box::from(out.as_slice())
}

/// The rounds [`pack`] packed.
fn unpack(mut bytes: &[u8]) -> Vec<SearchResult> {
    let mut rounds = Vec::new();
    while let Some((dm, rest)) = bytes.split_first_chunk::<8>() {
        bytes = rest;
        let iterations = take_varint(&mut bytes) as usize;
        let community = take_ids(&mut bytes);
        let removal_order = take_ids(&mut bytes);
        rounds.push(SearchResult {
            community,
            density_modularity: f64::from_bits(u64::from_le_bytes(*dm)),
            removal_order,
            iterations,
        });
    }
    rounds
}

/// Cache key: everything that determines a search outcome, *except* the
/// graph epoch — staleness is handled by each entry's
/// [`Fingerprint`], not by the key.
///
/// The whole [`AlgoSpec`] is part of the key, so every parameter it
/// carries separates entries: a weighted and an unweighted request over
/// the same label never share one. Keys hold it behind an [`Arc`] that a
/// session's keys share, and compare and hash it by value. `k`
/// participates even for algorithms that ignore it; that only costs
/// duplicate entries for off-label `--k` usage, never a wrong answer. Query nodes keep the **request's
/// order**: a multi-node FPA search roots its Steiner seed (§5.6) at the
/// first query node, so `[0, 4]` and `[4, 0]` can answer different
/// communities, and they never share an entry. The process-unique store
/// id keeps snapshots of different graphs from ever colliding in a
/// shared cache (shard versions only order mutations *within* one
/// store).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The algorithm's registry label and parameters.
    pub spec: Arc<AlgoSpec>,
    /// Query nodes, in the request's order.
    pub nodes: Box<[NodeId]>,
    /// `0` for a single-community query; for a top-k enumeration, the
    /// requested round count. Keeps a top-k answer (a *list* of
    /// communities) from ever being replayed as a single answer or vice
    /// versa, and separates different `k`s.
    pub top_k: usize,
    /// Process-unique id of the graph store the answer belongs to.
    pub store: u64,
}

impl CacheKey {
    /// Key for running `spec` on `nodes` against the store `snapshot`
    /// pins.
    pub fn new(spec: impl Into<Arc<AlgoSpec>>, nodes: &[NodeId], snapshot: &Snapshot) -> CacheKey {
        CacheKey {
            spec: spec.into(),
            nodes: nodes.into(),
            top_k: 0,
            store: snapshot.store_id(),
        }
    }

    /// Key for a top-`k` enumeration of `spec` on `nodes` against the
    /// store `snapshot` pins.
    pub fn for_top_k(
        spec: impl Into<Arc<AlgoSpec>>,
        nodes: &[NodeId],
        snapshot: &Snapshot,
        k: usize,
    ) -> CacheKey {
        CacheKey {
            top_k: k,
            ..CacheKey::new(spec, nodes, snapshot)
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// Display name of the algorithm that computed the answer.
    algo: &'static str,
    /// The rounds, packed (see the module docs), or the search error.
    rounds: Result<Box<[u8]>, SearchError>,
    /// Wall-clock seconds of the original computation.
    seconds: f64,
    last_used: u64,
    /// The tick that stored the answer: a [`Ticket`] attaches bytes only
    /// to the answer it rendered, never to one that overwrote it.
    born: u64,
    /// The graph state this entry is valid for (see [`fingerprint`]).
    fingerprint: Fingerprint,
    /// The rendered reply tail, once a hit has attached it.
    reply: Option<Reply>,
}

impl Entry {
    /// The answer as it was inserted.
    fn answer(&self) -> CachedAnswer {
        CachedAnswer {
            algo: self.algo,
            result: self.rounds.as_deref().map(unpack).map_err(Clone::clone),
            seconds: self.seconds,
        }
    }

    /// What the entry counts toward [`ResponseCache::bytes`].
    fn bytes(&self, key: &CacheKey) -> u64 {
        let packed = self.rounds.as_ref().map_or(0, |rounds| rounds.len());
        let reply = self.reply.as_ref().map_or(0, |r| r.bytes.len());
        (4 * key.nodes.len() + packed + reply) as u64
    }
}

/// A `response` line's bytes after its `tag` member, and the id of the
/// id space whose original ids they name.
#[derive(Debug)]
struct Reply {
    space: u64,
    bytes: Box<str>,
}

/// What a [`ResponseCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup {
    /// No entry matches the snapshot.
    Miss,
    /// The entry's reply tail, rendered under the asking id space, was
    /// appended to the caller's buffer. `seconds` and `ok` are the
    /// answer's, for the caller's tally.
    Copied {
        /// Wall-clock seconds of the original computation.
        seconds: f64,
        /// Whether the answer is a community rather than an error.
        ok: bool,
    },
    /// A hit without usable bytes: the decoded answer, and on the
    /// entry's first hit the [`Ticket`] that attaches its rendering.
    Hit(CachedAnswer, Option<Ticket>),
}

/// Permission to [attach](ResponseCache::attach) a rendered reply to the
/// entry a [`Lookup::Hit`] came from.
#[derive(Debug, Clone, Copy)]
pub struct Ticket(u64);

/// Buckets per key: sessions pinned to *different epochs* can each keep
/// a live entry under the same key (their fingerprints differ), so an
/// old-epoch reader's replay never thrashes a new-epoch writer's entry.
/// A bucket is sized for the entries it holds, almost always one.
#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<CacheKey, Vec<Entry>>,
    tick: u64,
    /// Entries across all buckets.
    entries: usize,
    /// Sum of [`Entry::bytes`] over all entries.
    bytes: u64,
}

impl LruInner {
    /// Evict the least-recently-used entry; `false` when there is none.
    ///
    /// The scan is a linear min-scan over u64 recency ticks, compared in
    /// place; only the victim's key is cloned (to remove it once the
    /// scan's borrow ends). At the default capacity the scan costs about
    /// 30 reply-copying hits (`cache_insert_full` in bench_store);
    /// cloning every key cost about 290 (1024 `String` + `Vec`
    /// allocations), all under the mutex every worker shares. An index
    /// that made the scan O(log n) would clone keys on every *hit*, the
    /// wrong trade. Ticks are unique, so the victim is well defined.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .map
            .iter()
            .filter_map(|(k, bucket)| {
                bucket
                    .iter()
                    .map(|e| e.last_used)
                    .min()
                    .map(|used| (used, k))
            })
            .min_by_key(|&(used, _)| used)
            .map(|(used, k)| (k.clone(), used));
        let Some((k, used)) = victim else {
            return false;
        };
        if let Some(bucket) = self.map.get_mut(&k) {
            if let Some(i) = bucket.iter().position(|e| e.last_used == used) {
                self.bytes -= bucket.remove(i).bytes(&k);
                self.entries -= 1;
            }
            if bucket.is_empty() {
                self.map.remove(&k);
            }
        }
        true
    }
}

/// A bounded, thread-safe LRU of query answers with hit/miss counters.
///
/// One instance is shared by everything serving a given
/// [`GraphStore`](dmcs_graph::GraphStore) — the engine hands clones of
/// one `Arc<ResponseCache>` to every [`Session`](crate::Session) it
/// opens, so a batch worker's miss becomes the next request's hit.
///
/// ```
/// use dmcs_engine::cache::{fingerprint, CacheKey, CachedAnswer, ResponseCache};
/// use dmcs_engine::AlgoSpec;
///
/// use dmcs_graph::{GraphBuilder, Snapshot};
///
/// let cache = ResponseCache::new(2);
/// let snap = Snapshot::freeze(GraphBuilder::from_edges(34, &[(0, 33)]));
/// let key = CacheKey::new(AlgoSpec::new("fpa"), &[33, 0], &snap);
/// assert!(cache.get(&key, &snap).is_none());
/// cache.insert(
///     key.clone(),
///     CachedAnswer {
///         algo: "FPA",
///         result: Err(dmcs_core::SearchError::EmptyQuery),
///         seconds: 0.25,
///     },
///     fingerprint(&snap, None),
/// );
/// assert_eq!(cache.get(&key, &snap).unwrap().seconds, 0.25);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct ResponseCache {
    inner: Mutex<LruInner>,
    capacity: usize,
    /// `capacity × BYTES_PER_ENTRY`.
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// An empty cache holding at most `capacity` entries and
    /// `capacity ×` [`BYTES_PER_ENTRY`] bytes (0 disables storage: every
    /// lookup is a miss and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(LruInner::default()),
            capacity,
            budget: (capacity as u64).saturating_mul(BYTES_PER_ENTRY),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    // A poisoned mutex means some other thread panicked mid-operation;
    // the LRU state is still structurally sound (every mutation below
    // is panic-free between lock and unlock), so serve through it
    // rather than cascading the panic into every serving thread.
    fn lock(&self) -> std::sync::MutexGuard<'_, LruInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Find the entry under `key` that `snapshot` still certifies, bump
    /// its recency and the hit/miss counters, and hand it to `hit`.
    /// Entries that no longer match are left to age out.
    fn find<R>(
        &self,
        key: &CacheKey,
        snapshot: &Snapshot,
        hit: impl FnOnce(&Entry) -> R,
    ) -> Option<R> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .map
            .get_mut(key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.fingerprint.matches(snapshot)));
        match entry {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit(entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look `key` up for a caller serving at the pinned `snapshot`,
    /// bumping the matched entry's recency and the hit/miss counters, and
    /// decode the answer. An entry matches while the snapshot carries its
    /// fingerprint's edge count, total weight and shard versions.
    pub fn get(&self, key: &CacheKey, snapshot: &Snapshot) -> Option<CachedAnswer> {
        self.find(key, snapshot, Entry::answer)
    }

    /// [`get`](ResponseCache::get) for a caller that renders replies
    /// under the id space `space`: when the entry holds a reply tail
    /// rendered under `space`, it is appended to `out` and the answer is
    /// not decoded. A hit on an entry without bytes hands out the
    /// [`Ticket`] to [`attach`](ResponseCache::attach) them.
    pub fn lookup(
        &self,
        key: &CacheKey,
        snapshot: &Snapshot,
        space: u64,
        out: &mut String,
    ) -> Lookup {
        self.find(key, snapshot, |e| match &e.reply {
            Some(reply) if reply.space == space => {
                out.push_str(&reply.bytes);
                Lookup::Copied {
                    seconds: e.seconds,
                    ok: e.rounds.is_ok(),
                }
            }
            Some(_) => Lookup::Hit(e.answer(), None),
            None => Lookup::Hit(e.answer(), Some(Ticket(e.born))),
        })
        .unwrap_or(Lookup::Miss)
    }

    /// Keep `bytes`, the reply tail rendered under the id space `space`,
    /// in the entry `ticket` came from. A no-op when that answer has
    /// since been evicted or overwritten, already holds bytes, or when
    /// the bytes would take the cache over its byte budget.
    pub fn attach(&self, key: &CacheKey, ticket: Ticket, space: u64, bytes: String) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let added = bytes.len() as u64;
        if inner.bytes + added > self.budget {
            return;
        }
        let Some(entry) = inner
            .map
            .get_mut(key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.born == ticket.0))
            .filter(|e| e.reply.is_none())
        else {
            return;
        };
        entry.reply = Some(Reply {
            space,
            bytes: bytes.into_boxed_str(),
        });
        inner.bytes += added;
    }

    /// Store `answer` under `key` with its validity `fingerprint`,
    /// evicting least-recently-used entries until the cache holds fewer
    /// than `capacity` entries and the answer fits in the byte budget.
    /// An existing entry with the *same* fingerprint is overwritten in
    /// place, dropping its rendered reply; entries for other epochs
    /// coexist in the key's bucket.
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer, fingerprint: Fingerprint) {
        if self.capacity == 0 {
            return;
        }
        let CachedAnswer {
            algo,
            result,
            seconds,
        } = answer;
        let mut entry = Entry {
            algo,
            rounds: result.map(|rounds| pack(&rounds)),
            seconds,
            last_used: 0,
            born: 0,
            fingerprint,
            reply: None,
        };
        let added = entry.bytes(&key);
        if added > self.budget {
            return;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        (entry.last_used, entry.born) = (inner.tick, inner.tick);
        if let Some(existing) = inner.map.get_mut(&key).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.fingerprint == entry.fingerprint)
        }) {
            inner.bytes = inner.bytes - existing.bytes(&key) + added;
            *existing = entry;
            // The overwritten entry is now the most recent, so this
            // evicts others only.
            while inner.bytes > self.budget && inner.evict_lru() {}
            return;
        }
        while (inner.entries >= self.capacity || inner.bytes + added > self.budget)
            && inner.evict_lru()
        {}
        inner.entries += 1;
        inner.bytes += added;
        match inner.map.entry(key) {
            Slot::Occupied(mut bucket) => {
                bucket.get_mut().reserve_exact(1);
                bucket.get_mut().push(entry);
            }
            Slot::Vacant(slot) => {
                slot.insert(vec![entry]);
            }
        }
    }

    /// Number of live entries (across all epochs).
    pub fn len(&self) -> usize {
        self.lock().entries
    }

    /// What the live entries hold, in bytes: their packed rounds, 4 per
    /// query node of their keys and their attached reply bytes (see the
    /// module docs). At most `capacity ×` [`BYTES_PER_ENTRY`].
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count (across every consumer sharing this cache).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(secs: f64) -> CachedAnswer {
        CachedAnswer::single(
            "FPA",
            Ok(SearchResult {
                community: vec![0, 1],
                density_modularity: 0.5,
                removal_order: vec![],
                iterations: 1,
            }),
            secs,
        )
    }

    fn key(nodes: &[NodeId]) -> CacheKey {
        CacheKey {
            spec: Arc::new(AlgoSpec::new("fpa")),
            nodes: nodes.into(),
            top_k: 0,
            store: 0,
        }
    }

    /// The total edge weight of every snapshot [`at`] builds.
    const W_G: f64 = 64.0;

    /// A snapshot whose shard `s` sits at version `versions[s]`, with
    /// `versions.len() + 1` edges of total weight `w_g`: a weighted store
    /// with one edge inside each of those shards, moved by weight-only
    /// updates, and a last shard whose one edge takes up the rest of
    /// `w_g`. So the edge count depends on the shard count only, and
    /// `w_g` on nothing else.
    fn at_weight(versions: &[u64], w_g: f64) -> Snapshot {
        use dmcs_graph::{GraphBuilder, GraphStore};
        let shards = versions.len() + 1;
        let mut b = GraphBuilder::weighted(2 * shards);
        for s in 0..shards as NodeId {
            b.add_weighted_edge(2 * s, 2 * s + 1, 1.0);
        }
        let store = GraphStore::from_graph_sharded(b.build(), shards);
        let mut rest = w_g;
        for (s, &v) in versions.iter().enumerate() {
            let u = 2 * s as NodeId;
            for i in 0..v {
                store.set_weight(u, u + 1, if i % 2 == 0 { 2.0 } else { 1.0 });
            }
            rest -= store.edge_weight(u, u + 1).unwrap();
        }
        let last = 2 * versions.len() as NodeId;
        store.set_weight(last, last + 1, rest);
        let snap = store.snapshot();
        assert_eq!(&snap.shard_versions()[..versions.len()], versions);
        assert_eq!((snap.m(), snap.total_weight()), (shards, w_g));
        snap
    }

    /// [`at_weight`] with the total weight [`W_G`].
    fn at(versions: &[u64]) -> Snapshot {
        at_weight(versions, W_G)
    }

    /// Fingerprint of shard `shard` at version `v` in a snapshot with
    /// `m` edges of total weight [`W_G`].
    fn pin(m: usize, shard: u32, v: u64) -> Fingerprint {
        let mut versions = vec![0; shard as usize + 1];
        versions[shard as usize] = v;
        Fingerprint {
            m,
            w_g: W_G.to_bits(),
            versions: versions.into(),
            shards: Some(Box::new([shard])),
        }
    }

    impl Fingerprint {
        /// The `(shard, version)` pairs the certificate pins.
        fn pairs(&self) -> Vec<(u32, u64)> {
            match &self.shards {
                Some(shards) => shards
                    .iter()
                    .map(|&s| (s, self.versions[s as usize]))
                    .collect(),
                None => (0..).zip(self.versions.iter().copied()).collect(),
            }
        }
    }

    /// What [`answer`] counts once packed: 8 bytes of DM, then one byte
    /// each for the iteration count, the community's length, its ids 0
    /// and 1 (deltas 0 and 1) and the empty removal order's length.
    const PACKED: u64 = 13;

    /// Fingerprint of `at(&[v])`: shard 0 at version `v`.
    fn fp(v: u64) -> Fingerprint {
        pin(2, 0, v)
    }

    #[test]
    fn keys_keep_node_order_and_separate_params_and_stores() {
        use dmcs_graph::GraphBuilder;
        let snap = Snapshot::freeze(GraphBuilder::from_edges(34, &[(0, 33)]));
        assert_ne!(
            CacheKey::new(AlgoSpec::new("fpa"), &[33, 0], &snap),
            CacheKey::new(AlgoSpec::new("fpa"), &[0, 33], &snap),
            "the first query node roots the Steiner seed"
        );
        assert_ne!(
            CacheKey::for_top_k(AlgoSpec::new("fpa"), &[33, 0], &snap, 2),
            CacheKey::for_top_k(AlgoSpec::new("fpa"), &[0, 33], &snap, 2),
        );
        assert_ne!(
            CacheKey::new(AlgoSpec::new("fpa"), &[0], &snap),
            CacheKey::new(AlgoSpec::new("nca"), &[0], &snap),
        );
        assert_ne!(
            CacheKey::new(AlgoSpec::with_k("kc", 3), &[0], &snap),
            CacheKey::new(AlgoSpec::with_k("kc", 4), &[0], &snap),
        );
        assert_ne!(
            CacheKey::new(AlgoSpec::new("fpa"), &[0], &snap),
            CacheKey::new(AlgoSpec::new("fpa").weighted(), &[0], &snap),
            "weightedness separates entries"
        );
        assert_ne!(
            CacheKey::new(AlgoSpec::new("fpa"), &[0], &snap),
            CacheKey::new(AlgoSpec::new("fpa").without_pruning(), &[0], &snap),
            "so does every other parameter"
        );
        // A top-k enumeration never shares an entry with the single
        // query (or a different k) over the same nodes.
        assert_ne!(
            CacheKey::new(AlgoSpec::new("fpa"), &[0], &snap),
            CacheKey::for_top_k(AlgoSpec::new("fpa"), &[0], &snap, 3),
        );
        assert_ne!(
            CacheKey::for_top_k(AlgoSpec::new("fpa"), &[0], &snap, 2),
            CacheKey::for_top_k(AlgoSpec::new("fpa"), &[0], &snap, 3),
        );
        // Two different graphs frozen at the same version must never
        // share an entry: the process-unique store id separates them.
        let other = Snapshot::freeze(GraphBuilder::from_edges(34, &[(0, 1)]));
        assert_eq!((snap.version(), other.version()), (0, 0));
        assert_ne!(
            CacheKey::new(AlgoSpec::new("fpa"), &[0], &snap),
            CacheKey::new(AlgoSpec::new("fpa"), &[0], &other),
            "store identity is part of the key"
        );
    }

    #[test]
    fn round_trip_and_counters() {
        let cache = ResponseCache::new(8);
        let snap = at(&[0]);
        assert!(cache.get(&key(&[0]), &snap).is_none());
        cache.insert(key(&[0]), answer(0.125), fp(0));
        let got = cache.get(&key(&[0]), &snap).unwrap();
        assert_eq!(got.seconds, 0.125, "original timing replayed");
        assert_eq!(got.into_single_result().unwrap().community, vec![0, 1]);
        let empty = CachedAnswer {
            result: Ok(vec![]),
            ..answer(0.0)
        };
        assert_eq!(empty.into_single_result(), Err(SearchError::EmptyQuery));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResponseCache::new(2);
        let snap = at(&[0]);
        cache.insert(key(&[0]), answer(0.1), fp(0));
        cache.insert(key(&[1]), answer(0.2), fp(0));
        // Touch [0] so [1] is the coldest.
        assert!(cache.get(&key(&[0]), &snap).is_some());
        cache.insert(key(&[2]), answer(0.3), fp(0));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&key(&[0]), &snap).is_some(),
            "recently used survives"
        );
        assert!(cache.get(&key(&[1]), &snap).is_none(), "coldest evicted");
        assert!(cache.get(&key(&[2]), &snap).is_some());
    }

    #[test]
    fn reinserting_a_fingerprint_overwrites_in_place() {
        let cache = ResponseCache::new(2);
        let snap = at(&[0]);
        cache.insert(key(&[0]), answer(0.1), fp(0));
        cache.insert(key(&[1]), answer(0.2), fp(0));
        cache.insert(key(&[0]), answer(0.9), fp(0)); // overwrite, no eviction
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(&[0]), &snap).unwrap().seconds, 0.9);
        assert!(cache.get(&key(&[1]), &snap).is_some());
    }

    #[test]
    fn a_hit_copies_the_reply_its_first_hit_attached() {
        let cache = ResponseCache::new(2);
        let snap = at(&[0]);
        let mut out = String::new();
        let lookup = |space, out: &mut String| cache.lookup(&key(&[0]), &snap, space, out);
        assert!(matches!(lookup(1, &mut out), Lookup::Miss));
        // One query node and the packed answer, no reply.
        cache.insert(key(&[0]), answer(0.5), fp(0));
        assert_eq!((cache.len(), cache.bytes()), (1, 4 + PACKED));
        let Lookup::Hit(hit, Some(ticket)) = lookup(1, &mut out) else {
            panic!("the first hit carries a ticket");
        };
        assert_eq!(hit.seconds, 0.5);
        cache.attach(&key(&[0]), ticket, 1, "tail\n".into());
        assert_eq!(cache.bytes(), 4 + PACKED + 5);
        // The same id space copies the bytes ...
        assert!(matches!(
            lookup(1, &mut out),
            Lookup::Copied { seconds, ok: true } if seconds == 0.5
        ));
        assert_eq!(out, "tail\n");
        // ... another gets the answer to render, and no ticket.
        assert!(matches!(lookup(2, &mut out), Lookup::Hit(_, None)));
        cache.attach(&key(&[0]), ticket, 2, "other\n".into());
        assert_eq!((out.as_str(), cache.bytes()), ("tail\n", 4 + PACKED + 5));
        assert_eq!((cache.hits(), cache.misses()), (3, 1));

        // Overwriting the answer drops its bytes, and a ticket for the
        // old answer attaches nothing to the new one.
        cache.insert(key(&[0]), answer(0.75), fp(0));
        assert_eq!(cache.bytes(), 4 + PACKED);
        cache.attach(&key(&[0]), ticket, 1, "stale\n".into());
        assert_eq!(cache.bytes(), 4 + PACKED);
        assert!(matches!(lookup(1, &mut out), Lookup::Hit(_, Some(_))));

        // Eviction takes the evicted entry's bytes out of the total.
        cache.insert(key(&[1]), answer(0.1), fp(0));
        cache.insert(key(&[1, 2]), answer(0.2), fp(0));
        assert_eq!((cache.len(), cache.bytes()), (2, 4 + PACKED + 8 + PACKED));
        assert!(
            matches!(lookup(1, &mut out), Lookup::Miss),
            "[0] was coldest"
        );
    }

    #[test]
    fn a_served_entry_counts_its_query_and_community_ids() {
        use crate::{QueryRequest, Session};
        use dmcs_graph::GraphBuilder;
        use std::sync::Arc;
        // Two triangles joined by a bridge: NCA peels all but the query
        // and keeps the triangle around it.
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let cache = Arc::new(ResponseCache::new(8));
        let mut session = Session::new(Snapshot::freeze(g), &AlgoSpec::new("nca"))
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let full = session.search(&[0]).unwrap();
        assert_eq!(
            (full.community, full.removal_order.len()),
            (vec![0, 1, 2], 5)
        );
        assert!(full.iterations < 128, "{}", full.iterations);
        let served = session.query(&QueryRequest::new(vec![0])).unwrap();
        assert!(served.result.unwrap().removal_order.is_empty());
        // One query id (4 bytes) and the packed round: 8 bytes of DM, then
        // one byte each for the iteration count, the community's length,
        // its three ids (deltas 0, 1 and 1) and the empty removal order's
        // length.
        assert_eq!((cache.len(), cache.bytes()), (1, 4 + 8 + 1 + 1 + 3 + 1));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResponseCache::new(0);
        cache.insert(key(&[0]), answer(0.1), fp(0));
        assert!(cache.is_empty());
        assert!(cache.get(&key(&[0]), &at(&[0])).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn shard_scoped_invalidation() {
        let cache = ResponseCache::new(8);
        // An answer whose search noted only shard 1 (version 5) of a
        // 4-edge graph.
        cache.insert(key(&[0]), answer(0.1), pin(4, 1, 5));
        // Updates in other shards that keep m and w_G leave the entry
        // hot ...
        assert!(cache.get(&key(&[0]), &at(&[9, 5, 7])).is_some());
        assert!(cache.get(&key(&[0]), &at(&[0, 5, 99])).is_some());
        // ... but a shard-1 move kills it, and so does a change of m or
        // of w_G with shard 1 untouched.
        assert!(cache.get(&key(&[0]), &at(&[9, 6, 7])).is_none());
        assert!(cache.get(&key(&[0]), &at(&[9, 5, 7, 0])).is_none());
        assert!(cache
            .get(&key(&[0]), &at_weight(&[9, 5, 7], W_G + 0.5))
            .is_none());
        // A fingerprint naming a shard the serving layout lacks never
        // matches (defensive: store ids should already prevent this).
        cache.insert(key(&[1]), answer(0.2), pin(3, 7, 0));
        assert!(cache.get(&key(&[1]), &at(&[0, 0])).is_none());
    }

    #[test]
    fn epochs_coexist_in_one_bucket() {
        let cache = ResponseCache::new(8);
        // Old epoch (shard 0 @ 0) and new epoch (shard 0 @ 1) both live.
        cache.insert(key(&[0]), answer(0.1), fp(0));
        cache.insert(key(&[0]), answer(0.2), fp(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.get(&key(&[0]), &at(&[0])).unwrap().seconds,
            0.1,
            "old-epoch pinned session replays its own entry"
        );
        assert_eq!(cache.get(&key(&[0]), &at(&[1])).unwrap().seconds, 0.2);
    }

    #[test]
    fn eviction_takes_only_the_coldest_entry_of_a_two_epoch_bucket() {
        let cache = ResponseCache::new(3);
        // A five-node community: 4 + 8 + 1 + 1 + 5 + 1 = 20 bytes, where
        // the other entries hold 4 + PACKED = 17.
        let wide = CachedAnswer::single(
            "FPA",
            Ok(SearchResult {
                community: vec![0, 1, 2, 3, 4],
                density_modularity: 0.5,
                removal_order: vec![],
                iterations: 1,
            }),
            0.1,
        );
        // Bucket [0] holds the new epoch first, then the old one.
        cache.insert(key(&[0]), answer(0.2), fp(1));
        cache.insert(key(&[0]), wide, fp(0));
        cache.insert(key(&[1]), answer(0.3), fp(0));
        // Touch the new epoch's entry and [1]: the old epoch's entry,
        // second in its bucket, is now the coldest.
        assert!(cache.get(&key(&[0]), &at(&[1])).is_some());
        assert!(cache.get(&key(&[1]), &at(&[0])).is_some());
        let (small, wide) = (4 + PACKED, 20);
        assert_eq!((cache.len(), cache.bytes()), (3, small + wide + small));

        cache.insert(key(&[2]), answer(0.4), fp(0));
        assert_eq!(
            (cache.len(), cache.bytes()),
            (3, small + wide + small - wide + small),
            "exactly the victim's share left"
        );
        assert!(
            cache.get(&key(&[0]), &at(&[0])).is_none(),
            "the coldest entry is evicted"
        );
        assert_eq!(
            cache.get(&key(&[0]), &at(&[1])).unwrap().seconds,
            0.2,
            "the other epoch's entry in that bucket stays and hits"
        );
        assert!(cache.get(&key(&[1]), &at(&[0])).is_some());
        assert!(cache.get(&key(&[2]), &at(&[0])).is_some());
    }

    #[test]
    fn fingerprint_builder_covers_touched_or_all_shards() {
        use dmcs_graph::GraphBuilder;
        let snap = Snapshot::freeze(GraphBuilder::from_edges(4, &[(0, 1)]));
        let one_shard = fingerprint(&snap, None);
        assert_eq!(
            (one_shard.m, one_shard.w_g, one_shard.pairs()),
            (1, 1f64.to_bits(), vec![(0, 0)]),
            "freeze: one shard"
        );
        assert_eq!(fingerprint(&snap, Some(&[0])), one_shard);

        let store = dmcs_graph::GraphStore::with_shards(8, 4);
        store.insert_edge(0, 7); // shards 0 and 3
        let snap = store.snapshot();
        assert_eq!(
            fingerprint(&snap, Some(&[0, 3])).pairs(),
            vec![(0, 1), (3, 1)],
            "touched shards pin their current versions"
        );
        let all = fingerprint(&snap, None);
        assert_eq!(
            all.pairs(),
            vec![(0, 1), (1, 0), (2, 0), (3, 1)],
            "no tracking: conservative all-shard pin"
        );
        assert_eq!(fingerprint(&snap, Some(&[0, 1, 2, 3])), all);
        assert!(
            all.shards.is_none() && Arc::ptr_eq(&all.versions, &snap.shared_shard_versions()),
            "an all-shard pin keeps no list and shares the epoch's versions"
        );
        assert_eq!(fingerprint(&snap, Some(&[0])).m, 1, "m is always pinned");
        let print = fingerprint(&at_weight(&[0], 7.5), Some(&[0]));
        let want = Fingerprint {
            w_g: 7.5f64.to_bits(),
            ..pin(2, 0, 0)
        };
        assert_eq!(print, want, "and so is w_G");
    }

    #[test]
    fn get_decodes_exactly_what_was_inserted() {
        let cache = ResponseCache::new(8);
        let snap = at(&[0]);
        let round = |community: Vec<NodeId>, removal_order: Vec<NodeId>| SearchResult {
            community,
            density_modularity: -0.0,
            removal_order,
            iterations: usize::MAX,
        };
        let answers = [
            CachedAnswer {
                algo: "FPA",
                result: Ok(vec![
                    round(vec![0, 7, 8, 200, NodeId::MAX], vec![NodeId::MAX, 0, 5]),
                    round(vec![], vec![]),
                    round(vec![9, 3, 3, 0], vec![1]),
                ]),
                seconds: 1e-300,
            },
            CachedAnswer {
                algo: "NCA",
                result: Ok(vec![]),
                seconds: 0.5,
            },
            CachedAnswer {
                algo: "FPA",
                result: Err(SearchError::Graph(dmcs_graph::GraphError::NodeOutOfRange(
                    NodeId::MAX,
                ))),
                seconds: 0.0,
            },
        ];
        for (i, answer) in answers.iter().enumerate() {
            cache.insert(key(&[i as NodeId]), answer.clone(), fp(0));
            let got = cache.get(&key(&[i as NodeId]), &snap).unwrap();
            assert_eq!(got, *answer);
            if let (Ok(got), Ok(want)) = (&got.result, &answer.result) {
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(
                        g.density_modularity.to_bits(),
                        w.density_modularity.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn the_byte_budget_caps_giant_communities() {
        // 20,000 ids 100 apart: 8 bytes of DM, one for the iteration
        // count, three for the length, one for the first id and two for
        // each later delta, one for the empty removal order.
        let giant = |seconds| CachedAnswer {
            seconds,
            ..CachedAnswer::single(
                "FPA",
                Ok(SearchResult {
                    community: (0..20_000).map(|i| 100 * i).collect(),
                    density_modularity: 0.5,
                    removal_order: vec![],
                    iterations: 1,
                }),
                0.0,
            )
        };
        let entry = 4 + 8 + 1 + 3 + 1 + 2 * 19_999 + 1;
        let snap = at(&[0]);

        // Four entries of capacity: a 64 KiB budget holds one giant.
        let cache = ResponseCache::new(4);
        cache.insert(key(&[0]), giant(0.1), fp(0));
        assert_eq!((cache.len(), cache.bytes()), (1, entry));
        cache.insert(key(&[1]), giant(0.2), fp(0));
        assert_eq!(
            (cache.len(), cache.bytes()),
            (1, entry),
            "the second giant evicts the first though the cache has room"
        );
        assert!(cache.get(&key(&[0]), &snap).is_none());
        assert_eq!(cache.get(&key(&[1]), &snap), Some(giant(0.2)));
        // Small entries still fit beside it, and a reply tail that would
        // take the total over the budget is not kept.
        cache.insert(key(&[2]), answer(0.3), fp(0));
        assert_eq!((cache.len(), cache.bytes()), (2, entry + 4 + PACKED));
        let mut out = String::new();
        let Lookup::Hit(_, Some(ticket)) = cache.lookup(&key(&[2]), &snap, 1, &mut out) else {
            panic!("the first hit carries a ticket");
        };
        let room = 4 * BYTES_PER_ENTRY - cache.bytes();
        cache.attach(&key(&[2]), ticket, 1, "x".repeat(room as usize + 1));
        assert_eq!(cache.bytes(), entry + 4 + PACKED);
        cache.attach(&key(&[2]), ticket, 1, "x".repeat(room as usize));
        assert_eq!(cache.bytes(), 4 * BYTES_PER_ENTRY);

        // One entry of capacity: a 16 KiB budget keeps no giant at all.
        let cache = ResponseCache::new(1);
        cache.insert(key(&[0]), giant(0.1), fp(0));
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        cache.insert(key(&[1]), answer(0.2), fp(0));
        assert_eq!((cache.len(), cache.bytes()), (1, 4 + PACKED));
    }
}
