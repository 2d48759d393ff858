//! Fig 13 micro: FPA with vs without the layer-based pruning strategy,
//! and pruned FPA's one-node and two-node queries on a one-component
//! LFR graph at the paper's Table 2 defaults, where the layered walk,
//! and a two-node query's Steiner walk, stop long before they have
//! covered the component.

use criterion::{criterion_group, criterion_main, Criterion};
use dmcs_core::{CommunitySearch, Fpa};
use dmcs_gen::{lfr, queries, Dataset};
use dmcs_graph::traversal::bfs_distances;
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::NodeId;

fn bench_pruning(c: &mut Criterion) {
    let g = lfr::generate(&lfr::LfrConfig {
        n: 3000,
        avg_degree: 15.0,
        max_degree: 150,
        min_community: 20,
        max_community: 300,
        seed: 13,
        ..lfr::LfrConfig::default()
    });
    let ds = Dataset {
        name: "lfr-3000".into(),
        graph: g.graph,
        communities: g.communities,
        overlapping: false,
    };
    let (q, _) = queries::sample_query_sets(&ds, 1, 1, 4, 5)
        .pop()
        .expect("query sampled");
    let mut group = c.benchmark_group("fig13_pruning");
    group.bench_function("FPA_with_pruning", |b| {
        let a = Fpa::default();
        b.iter(|| {
            let _ = a.search(&ds.graph, &q);
        })
    });
    group.bench_function("FPA_without_pruning", |b| {
        let a = Fpa::without_pruning();
        b.iter(|| {
            let _ = a.search(&ds.graph, &q);
        })
    });
    group.finish();
}

/// Twenty one-node queries spread evenly over the ids of an LFR graph
/// with n = 100k, average degree 20, maximum degree 400 and μ = 0.2,
/// answered in turn through one warm workspace; one iteration is the
/// whole set. Then the same twenty nodes, each paired with the
/// smallest-id node two hops from it, so the Steiner seed (§5.6) runs
/// too.
fn bench_stopped_walk(c: &mut Criterion) {
    let g = lfr::generate(&lfr::LfrConfig {
        n: 100_000,
        mu: 0.2,
        ..lfr::LfrConfig::default()
    })
    .graph;
    let queries: Vec<NodeId> = (0..20).map(|i| (i * g.n() / 20) as NodeId).collect();
    let pairs: Vec<[NodeId; 2]> = queries
        .iter()
        .map(|&q| {
            let dist = bfs_distances(&g, q);
            let far = (0..g.n() as NodeId)
                .find(|&v| dist[v as usize] == 2)
                .expect("LFR-100k has a node two hops from every node");
            [q, far]
        })
        .collect();
    let fpa = Fpa::default();
    let mut ws = QueryWorkspace::new();
    let mut group = c.benchmark_group("fpa_one_node_lfr100k");
    group.bench_function("pruned_20_queries", |b| {
        b.iter(|| {
            for &q in &queries {
                let _ = fpa.search_with_workspace(&g, &[q], &mut ws);
            }
        })
    });
    group.finish();
    let mut group = c.benchmark_group("fpa_two_node_lfr100k");
    group.bench_function("pruned_20_queries", |b| {
        b.iter(|| {
            for q in &pairs {
                let _ = fpa.search_with_workspace(&g, q, &mut ws);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pruning, bench_stopped_walk);
criterion_main!(benches);
