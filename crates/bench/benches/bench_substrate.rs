//! Substrate micro-benchmarks: the graph primitives whose complexity the
//! paper's §5 analysis cites (BFS, articulation points, core and truss
//! decomposition, Steiner seed).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmcs_gen::lfr;
use dmcs_graph::{
    articulation, cores, diameter, pagerank, steiner, traversal, truss, GraphStore, SubgraphView,
};

fn bench_substrate(c: &mut Criterion) {
    let g = lfr::generate(&lfr::LfrConfig {
        n: 2000,
        avg_degree: 12.0,
        max_degree: 80,
        min_community: 20,
        max_community: 200,
        seed: 7,
        ..lfr::LfrConfig::default()
    })
    .graph;

    let mut group = c.benchmark_group("substrate_lfr2000");
    group.sample_size(20);
    group.bench_function("bfs_multi_source", |b| {
        b.iter(|| traversal::multi_source_bfs(black_box(&g), black_box(&[0, 500, 1500])))
    });
    group.bench_function("articulation_nodes", |b| {
        let view = SubgraphView::full(&g);
        b.iter(|| articulation::articulation_nodes(black_box(&view)))
    });
    group.bench_function("core_decomposition", |b| {
        b.iter(|| cores::core_decomposition(black_box(&g)))
    });
    group.bench_function("truss_decomposition", |b| {
        b.iter(|| {
            let idx = truss::EdgeIndex::new(black_box(&g));
            truss::truss_decomposition(&g, &idx)
        })
    });
    group.bench_function("steiner_seed_3_queries", |b| {
        b.iter(|| steiner::steiner_seed(black_box(&g), black_box(&[0, 500, 1500])))
    });
    group.bench_function("connected_components", |b| {
        b.iter(|| traversal::connected_components(black_box(&g)))
    });
    group.bench_function("pagerank", |b| {
        b.iter(|| pagerank::pagerank(black_box(&g), pagerank::PageRankConfig::default()))
    });
    group.bench_function("personalized_pagerank", |b| {
        b.iter(|| {
            pagerank::personalized_pagerank(
                black_box(&g),
                black_box(&[0]),
                pagerank::PageRankConfig::default(),
            )
        })
    });
    group.bench_function("ifub_diameter", |b| {
        b.iter(|| diameter::ifub_diameter(black_box(&g)))
    });
    group.bench_function("dynamic_insert_remove_1000", |b| {
        b.iter(|| {
            let store = GraphStore::from_graph(g.clone());
            for i in 0..1000u32 {
                store.insert_edge(i, (i * 7 + 3) % 2000);
            }
            for i in 0..1000u32 {
                store.remove_edge(i, (i * 7 + 3) % 2000);
            }
            black_box(store.m())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
