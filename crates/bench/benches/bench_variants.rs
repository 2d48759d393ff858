//! Fig 14 micro: the four (removable-rule x scorer) variant combinations.

use criterion::{criterion_group, criterion_main, Criterion};
use dmcs_core::{CommunitySearch, Fpa, FpaDmg, Nca, NcaDr};
use dmcs_gen::{lfr, queries, Dataset};

fn bench_variants(c: &mut Criterion) {
    let g = lfr::generate(&lfr::LfrConfig {
        n: 800,
        avg_degree: 12.0,
        max_degree: 60,
        min_community: 20,
        max_community: 120,
        seed: 14,
        ..lfr::LfrConfig::default()
    });
    let ds = Dataset {
        name: "lfr-800".into(),
        graph: g.graph,
        communities: g.communities,
        overlapping: false,
    };
    let (q, _) = queries::sample_query_sets(&ds, 1, 1, 4, 5)
        .pop()
        .expect("query sampled");
    let mut group = c.benchmark_group("fig14_variants");
    group.sample_size(10);
    for algo in [
        &Nca::default() as &dyn CommunitySearch,
        &NcaDr,
        &FpaDmg,
        &Fpa::default(),
    ] {
        group.bench_function(algo.name(), |b| {
            b.iter(|| {
                let _ = algo.search(&ds.graph, &q);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
