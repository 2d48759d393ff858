//! Versioned-store and cache benchmarks backing the performance claims
//! of the live-update path (results committed as `BENCH_7.json` and,
//! with the cache group, `BENCH_25.json`; regenerate with
//! `scripts/bench_to_json.py`):
//!
//! 1. **Copy-forward rebuild beats compiling the CSR from scratch** —
//!    `store_snapshot_rebuild` measures a mutate→snapshot cycle at 10k
//!    and 50k nodes on a 16-shard store: `one_dirty_shard` toggles one
//!    edge (the rebuild copies every unchanged row forward from the
//!    previous snapshot and splices in the two changed ones), and
//!    `all_dirty` toggles one edge in each of the 16 shards.
//!    `full_rebuild` and `full_rebuild_batch` time what a rebuild costs
//!    without copy-forward: `GraphBuilder::from_edges` over the same
//!    graph's edge list (with the one toggled edge, or the 16, present),
//!    which a store without copy-forward would pay on every rebuild.
//!    `cached_read` is the no-mutation baseline: snapshot() between
//!    versions is an Arc clone.
//! 2. **Repeated queries are dominated by the result cache** —
//!    `cached_repeats` compares a repeated single query on the
//!    fragmented-50k serving graph with the shard-scoped cache against
//!    the same query recomputed every time (cache capacity 0), plus the
//!    mutate→snapshot→query worst case.
//! 3. **An evicting insert stays cheap next to a hit** —
//!    `cache_insert_full` fills a default-capacity (1024-entry)
//!    `ResponseCache` with two-node keys holding 200-node answers, then
//!    times one hit and one insert of a new key, which packs the answer
//!    and evicts the least recently used entry. The hit is the daemon's:
//!    a `lookup` that copies the reply tail its entry keeps, so its cost
//!    does not grow with the answer's decoding. `bench_to_json.py`
//!    derives `evicting_insert_over_hit`, which CI bounds.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmcs_core::SearchResult;
use dmcs_engine::cache::{
    fingerprint, CacheKey, CachedAnswer, Lookup, ResponseCache, DEFAULT_CACHE_CAPACITY,
};
use dmcs_engine::{AlgoSpec, Engine, QueryRequest};
use dmcs_gen::sbm;
use dmcs_graph::{Graph, GraphBuilder, GraphStore, NodeId, Snapshot};
use std::sync::Arc;

/// Shard count of the incremental-rebuild benches (the store default).
const SHARDS: usize = 16;

/// The fragmented serving graph of the engine's other benches: 250
/// disconnected ~200-node blocks.
fn fragmented(blocks: usize) -> Graph {
    let sizes = vec![200usize; blocks];
    let (g, _) = sbm::planted_partition(&sizes, 0.06, 0.0, 7);
    g
}

/// One intra-block node pair per shard (for `n` nodes over [`SHARDS`]
/// shards): toggling these edges dirties every shard at once.
fn per_shard_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let shard_size = n.div_ceil(SHARDS);
    (0..SHARDS)
        .map(|s| {
            let v = (s * shard_size) as NodeId;
            (v, v + 1)
        })
        .collect()
}

fn bench_snapshot_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_snapshot_rebuild");
    group.sample_size(10);
    for blocks in [50usize, 250] {
        let n = blocks * 200;

        // One edge toggled (an intra-block pair, so the final graph does
        // not change): the rebuild copies every other row forward from
        // the previous snapshot. The full rebuild compiles the same
        // graph's CSR from its edge list.
        let store = GraphStore::from_graph_sharded(fragmented(blocks), SHARDS);
        store.insert_edge(0, 1); // ensure the toggled edge exists
        let edges: Vec<(NodeId, NodeId)> = store.snapshot().edges().collect();
        group.bench_function(format!("full_rebuild_n{n}"), |b| {
            b.iter(|| black_box(GraphBuilder::from_edges(n, &edges).m()))
        });
        group.bench_function(format!("one_dirty_shard_n{n}"), |b| {
            b.iter(|| {
                store.remove_edge(0, 1);
                store.insert_edge(0, 1);
                black_box(store.snapshot().m())
            })
        });

        // One edge toggled per shard, all 16 shards dirty, which must
        // not regress against compiling the same graph from scratch.
        let store = GraphStore::from_graph_sharded(fragmented(blocks), SHARDS);
        let pairs = per_shard_pairs(n);
        for &(u, v) in &pairs {
            store.insert_edge(u, v); // ensure every toggled edge exists
        }
        let edges: Vec<(NodeId, NodeId)> = store.snapshot().edges().collect();
        group.bench_function(format!("full_rebuild_batch_n{n}"), |b| {
            b.iter(|| black_box(GraphBuilder::from_edges(n, &edges).m()))
        });
        group.bench_function(format!("all_dirty_n{n}"), |b| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    store.remove_edge(u, v);
                    store.insert_edge(u, v);
                }
                black_box(store.snapshot().m())
            })
        });

        // Read-only: snapshot() between mutations is an Arc clone.
        let store = GraphStore::from_graph(fragmented(blocks));
        store.snapshot();
        group.bench_function(format!("cached_read_n{n}"), |b| {
            b.iter(|| black_box(store.snapshot().m()))
        });
    }
    group.finish();
}

fn bench_cached_repeats(c: &mut Criterion) {
    let g = fragmented(250);
    let spec = AlgoSpec::new("fpa");
    let req = [QueryRequest::new(vec![0])];

    let mut group = c.benchmark_group("cached_repeats_fragmented50k");
    group.sample_size(10);

    // Uncached: capacity 0 disables the cache, every repeat recomputes
    // (workspace reuse still applies via per-batch sessions).
    let uncached = Engine::with_cache_capacity(GraphStore::from_graph(g.clone()), 0);
    group.bench_function("uncached_repeated_query", |b| {
        b.iter(|| black_box(uncached.run_batch(&spec, &req, 1).unwrap().succeeded()))
    });

    // Cached: after the first miss every repeat is a fingerprint-valid
    // hit.
    let cached = Engine::from_graph(g);
    cached.run_batch(&spec, &req, 1).unwrap(); // warm the entry
    group.bench_function("cached_repeated_query", |b| {
        b.iter(|| black_box(cached.run_batch(&spec, &req, 1).unwrap().cache_hits))
    });

    // Update-then-query: each iteration invalidates the queried
    // component's shard and recomputes, plus pays one (incremental)
    // snapshot rebuild — the worst case of the mutate→snapshot→query
    // cycle.
    let churn = Engine::from_graph(fragmented(250));
    group.bench_function("update_then_query", |b| {
        b.iter(|| {
            churn.remove_edge(0, 1);
            churn.insert_edge(0, 1);
            black_box(churn.run_batch(&spec, &req, 1).unwrap().cache_misses)
        })
    });
    group.finish();
}

fn bench_cache_insert_full(c: &mut Criterion) {
    let snap = Snapshot::freeze(GraphBuilder::from_edges(2, &[(0, 1)]));
    // One spec shared by every key, as a session's keys share it.
    let spec = Arc::new(AlgoSpec::new("fpa"));
    let key = |i: NodeId| CacheKey::new(Arc::clone(&spec), &[2 * i, 2 * i + 1], &snap);
    let answer = CachedAnswer::single(
        "FPA",
        Ok(SearchResult {
            community: (0..200).collect(),
            density_modularity: 0.5,
            removal_order: vec![],
            iterations: 1,
        }),
        0.001,
    );
    let print = fingerprint(&snap, None);
    let cache = ResponseCache::new(DEFAULT_CACHE_CAPACITY);
    let full = DEFAULT_CACHE_CAPACITY as NodeId;
    for i in 0..full {
        cache.insert(key(i), answer.clone(), print.clone());
    }

    // The hot entry keeps its rendered reply tail, as after a daemon's
    // first hit: about 1 KB for the 200-node community.
    let hot = key(0);
    let mut out = String::new();
    let Lookup::Hit(_, Some(ticket)) = cache.lookup(&hot, &snap, 1, &mut out) else {
        panic!("the first hit carries a ticket");
    };
    let ids: Vec<String> = (0..200).map(|v| v.to_string()).collect();
    let tail = format!(
        ",\"algo\":\"FPA\",\"query\":[0,1],\"ok\":true,\"size\":200,\"dm\":0.5,\
         \"iterations\":1,\"seconds\":0.001,\"community\":[{}]}}\n",
        ids.join(",")
    );
    cache.attach(&hot, ticket, 1, tail);

    let mut group = c.benchmark_group("cache_insert_full");
    group.sample_size(10);
    group.bench_function("hit", |b| {
        b.iter(|| {
            out.clear();
            let copied = matches!(
                cache.lookup(&hot, &snap, 1, &mut out),
                Lookup::Copied { .. }
            );
            black_box(copied)
        })
    });
    // Every key is new, so every insert evicts one entry.
    let mut next = full;
    group.bench_function("evicting_insert", |b| {
        b.iter(|| {
            cache.insert(key(next), answer.clone(), print.clone());
            next += 1;
        })
    });
    assert_eq!(cache.len(), DEFAULT_CACHE_CAPACITY, "the cache stayed full");
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot_rebuild,
    bench_cached_repeats,
    bench_cache_insert_full
);
criterion_main!(benches);
