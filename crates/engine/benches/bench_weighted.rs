//! Weighted-serving benchmarks backing the performance claims of the
//! weights-lane design:
//!
//! 1. **The unweighted hot path did not regress** — the weights lane is
//!    pay-for-what-you-use. `per_query_latency` measures single-query
//!    FPA on the fragmented-50k serving graph three ways: unweighted FPA
//!    on a bare graph, unweighted FPA on a *lane-carrying* graph (the
//!    lane must be inert for unweighted algorithms), and W-FPA on the
//!    weighted graph (the price of the weighted objective: the same
//!    kernel summing f64 weights where it counts edges).
//! 2. **Weighted FPA keeps up on one big component** —
//!    `one_component_lfr20k` times ten one-node queries of `fpa` and of
//!    `fpa --weighted` on a community-weighted LFR graph, where pruned
//!    FPA's layered walk stops early on either weighting.
//! 3. **Weighted snapshot rebuilds stay `O(|V| + |E|)`** —
//!    `snapshot_rebuild` compares a forced mutate→snapshot cycle on an
//!    unweighted vs a weighted 50k-node store (the weighted rebuild
//!    copies unchanged rows' slot weights and strengths forward with
//!    their rows, sums only the changed rows' strengths, and re-sums
//!    the total over the strengths).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmcs_engine::{AlgoSpec, Engine, QueryRequest};
use dmcs_gen::weighting::{weight_by_communities, WeightingConfig};
use dmcs_gen::{lfr, sbm};
use dmcs_graph::traversal::connected_components;
use dmcs_graph::{Graph, GraphStore, NodeId};

/// The fragmented serving graph of the engine's other benches: 250
/// disconnected ~200-node blocks (50k nodes), plus its planted blocks.
fn fragmented(blocks: usize) -> (Graph, Vec<Vec<NodeId>>) {
    let sizes = vec![200usize; blocks];
    sbm::planted_partition(&sizes, 0.06, 0.0, 7)
}

/// Community-correlated weights over the fragmented topology (intra 5x,
/// seeded jitter) — the weighted regime of Definition 2.
fn weighted_fragmented(blocks: usize) -> Graph {
    let (g, comms) = fragmented(blocks);
    weight_by_communities(&g, &comms, WeightingConfig::default())
}

fn bench_per_query_latency(c: &mut Criterion) {
    let (bare, _) = fragmented(250);
    let laned = weighted_fragmented(250);
    let req = [QueryRequest::new(vec![0])];

    let mut group = c.benchmark_group("weighted_per_query_fragmented50k");
    group.sample_size(10);

    // Caching disabled throughout: every iteration pays the real search.
    let baseline = Engine::with_cache_capacity(GraphStore::from_graph(bare), 0);
    let spec = AlgoSpec::new("fpa");
    group.bench_function("fpa_unweighted_bare_graph", |b| {
        b.iter(|| black_box(baseline.run_batch(&spec, &req, 1).unwrap().succeeded()))
    });

    // Same unweighted algorithm, lane present: must be within noise of
    // the bare-graph number (the lane is never consulted).
    let inert = Engine::with_cache_capacity(GraphStore::from_graph(laned.clone()), 0);
    group.bench_function("fpa_unweighted_lane_carrying_graph", |b| {
        b.iter(|| black_box(inert.run_batch(&spec, &req, 1).unwrap().succeeded()))
    });

    // The weighted objective on the same graph.
    let wspec = AlgoSpec::new("fpa").weighted();
    group.bench_function("wfpa_weighted_graph", |b| {
        b.iter(|| black_box(inert.run_batch(&wspec, &req, 1).unwrap().succeeded()))
    });
    group.finish();
}

/// Ten one-node queries spread evenly over the ids of an LFR graph with
/// n = 20k at the Table 2 defaults (average degree 20, maximum 400,
/// μ 0.2), weighted by its communities; one iteration answers all ten,
/// cache off.
fn bench_one_component(c: &mut Criterion) {
    let g = lfr::generate(&lfr::LfrConfig {
        n: 20_000,
        ..lfr::LfrConfig::default()
    });
    assert_eq!(connected_components(&g.graph).1, 1, "one component");
    let weighted = weight_by_communities(&g.graph, &g.communities, WeightingConfig::default());
    let n = weighted.n();
    let reqs: Vec<QueryRequest> = (0..10)
        .map(|i| QueryRequest::new(vec![(i * n / 10) as NodeId]))
        .collect();
    let engine = Engine::with_cache_capacity(GraphStore::from_graph(weighted), 0);

    let mut group = c.benchmark_group("one_component_lfr20k");
    group.sample_size(10);
    for (name, spec) in [
        ("fpa_10_queries", AlgoSpec::new("fpa")),
        ("fpa_weighted_10_queries", AlgoSpec::new("fpa").weighted()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.run_batch(&spec, &reqs, 1).unwrap().succeeded()))
        });
    }
    group.finish();
}

fn bench_snapshot_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_snapshot_rebuild_n50k");
    group.sample_size(10);

    // Unweighted baseline: toggle one edge, rebuild.
    let (bare, _) = fragmented(250);
    let store = GraphStore::from_graph(bare);
    group.bench_function("rebuild_unweighted", |b| {
        b.iter(|| {
            store.remove_edge(0, 1);
            store.insert_edge(0, 1);
            black_box(store.snapshot().m())
        })
    });

    // Weighted: same toggle (weight preserved) plus the lane rebuild.
    let wstore = GraphStore::from_graph(weighted_fragmented(250));
    let w01 = wstore.edge_weight(0, 1).expect("intra-block edge");
    group.bench_function("rebuild_weighted", |b| {
        b.iter(|| {
            wstore.remove_edge(0, 1);
            wstore.insert_edge_w(0, 1, w01);
            black_box(wstore.snapshot().m())
        })
    });

    // Weight-only churn: set_weight → rebuild (the setw serving cycle).
    group.bench_function("setw_then_rebuild", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            wstore.set_weight(0, 1, if flip { w01 * 2.0 } else { w01 });
            black_box(wstore.snapshot().m())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_per_query_latency,
    bench_one_component,
    bench_snapshot_rebuild
);
criterion_main!(benches);
