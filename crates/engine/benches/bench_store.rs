//! Versioned-store benchmarks backing the performance claims of the
//! live-update path (results committed as `BENCH_7.json`; regenerate
//! with `scripts/bench_to_json.py`):
//!
//! 1. **Incremental rebuild beats full rebuild** — `store_snapshot_rebuild`
//!    measures a mutate→snapshot cycle at 10k and 50k nodes three ways:
//!    `full_rebuild` (a single-shard store — the pre-sharding code path,
//!    every row re-serialized), `one_dirty_shard` (16 shards, the update
//!    touches one — the rebuild re-serializes that shard's rows and
//!    copies the other 15 shards' segments forward from the previous
//!    snapshot), and `all_dirty` (16 shards, every shard touched — the
//!    worst case, which must not regress against `full_rebuild_batch`,
//!    the *same* 16-edge write batch on a single-shard store).
//!    `cached_read` is the no-mutation baseline: snapshot() between
//!    versions is an Arc clone.
//! 2. **Repeated queries are dominated by the result cache** —
//!    `cached_repeats` compares a repeated single query on the
//!    fragmented-50k serving graph with the shard-scoped cache against
//!    the same query recomputed every time (cache capacity 0), plus the
//!    mutate→snapshot→query worst case.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmcs_engine::{AlgoSpec, Engine, QueryRequest};
use dmcs_gen::sbm;
use dmcs_graph::{Graph, GraphStore, NodeId};

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

        // Full rebuild: a single-shard store re-serializes every row —
        // the pre-sharding baseline. The 0-1 toggle (an intra-block
        // pair) bumps the version without changing the final graph.
        let store = GraphStore::from_graph_sharded(fragmented(blocks), 1);
        store.insert_edge(0, 1); // ensure the toggled edge exists
        group.bench_function(format!("full_rebuild_n{n}"), |b| {
            b.iter(|| {
                store.remove_edge(0, 1);
                store.insert_edge(0, 1);
                black_box(store.snapshot().m())
            })
        });

        // One dirty shard of 16: the same toggle leaves 15 shards'
        // CSR segments to be copied forward from the previous snapshot.
        let store = GraphStore::from_graph_sharded(fragmented(blocks), SHARDS);
        store.insert_edge(0, 1);
        store.snapshot();
        group.bench_function(format!("one_dirty_shard_n{n}"), |b| {
            b.iter(|| {
                store.remove_edge(0, 1);
                store.insert_edge(0, 1);
                black_box(store.snapshot().m())
            })
        });

        // The same 16-edge batch on a single-shard store: the fair
        // baseline for `all_dirty` below (identical write workload,
        // pre-sharding layout).
        let store = GraphStore::from_graph_sharded(fragmented(blocks), 1);
        let pairs = per_shard_pairs(n);
        for &(u, v) in &pairs {
            store.insert_edge(u, v); // ensure every toggled edge exists
        }
        store.snapshot();
        group.bench_function(format!("full_rebuild_batch_n{n}"), |b| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    store.remove_edge(u, v);
                    store.insert_edge(u, v);
                }
                black_box(store.snapshot().m())
            })
        });

        // All 16 shards dirty: one edge toggled per shard — the
        // incremental path's worst case, which must not regress against
        // the full rebuild of the same batch.
        let store = GraphStore::from_graph_sharded(fragmented(blocks), SHARDS);
        for &(u, v) in &pairs {
            store.insert_edge(u, v); // ensure every toggled edge exists
        }
        store.snapshot();
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

criterion_group!(benches, bench_snapshot_rebuild, bench_cached_repeats);
criterion_main!(benches);
