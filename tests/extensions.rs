//! Integration tests for the extension subsystems through the public
//! umbrella API: edge-list I/O, weighted DMCS, exact solver, DM detection,
//! and the classic random generators.

use dmcs::core::{CommunitySearch, Exact, Fpa, FpaDmg, Nca, NcaDr};
use dmcs::gen::{karate, random};
use dmcs::graph::io::{read_communities, read_edge_list, write_edge_list};
use dmcs::graph::GraphBuilder;

#[test]
fn karate_roundtrips_through_edge_list_io() {
    let g = karate::karate();
    let mut buf = Vec::new();
    write_edge_list(&g, &mut buf).unwrap();
    let (g2, original) = read_edge_list(&buf[..]).unwrap();
    assert_eq!(g2.n(), 34);
    assert_eq!(g2.m(), 78);
    // Ids were already dense, so the mapping is a permutation of 0..34
    // (first-appearance order of the written edge list, not necessarily
    // the identity).
    let mut sorted = original.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..34u64).collect::<Vec<_>>());
    // Searching the reloaded graph gives the same community once mapped
    // back through the relabelling.
    let a = Fpa::default().search(&g, &[0]).unwrap();
    let q2 = original.iter().position(|&raw| raw == 0).unwrap() as u32;
    let b = Fpa::default().search(&g2, &[q2]).unwrap();
    let mut b_orig: Vec<u64> = b.community.iter().map(|&v| original[v as usize]).collect();
    b_orig.sort_unstable();
    let mut a_sorted: Vec<u64> = a.community.iter().map(|&v| v as u64).collect();
    a_sorted.sort_unstable();
    assert_eq!(a_sorted, b_orig);
}

#[test]
fn snap_style_community_file_parses() {
    let edges = "0 1\n1 2\n2 0\n2 3\n";
    let (g, original) = read_edge_list(edges.as_bytes()).unwrap();
    let comms = read_communities("0 1 2\n3\n".as_bytes(), &original).unwrap();
    assert_eq!(comms.len(), 2);
    assert_eq!(g.internal_edges(&comms[0]), 3);
}

#[test]
fn weighted_search_on_karate_with_unit_weights_matches_topology_dm() {
    let g = karate::karate();
    let mut b = GraphBuilder::weighted(34);
    for (u, v) in g.edges() {
        b.add_weighted_edge(u, v, 1.0);
    }
    let wg = b.build();
    let r = Fpa::default().weighted().search(&wg, &[0]).unwrap();
    let expect = dmcs::core::measure::density_modularity(&g, &r.community);
    assert!((r.density_modularity - expect).abs() < 1e-9);
}

#[test]
fn exact_dominates_all_heuristics_on_random_graphs() {
    for seed in 0..10u64 {
        let g = random::erdos_renyi(16, 0.3, seed);
        let q = 0u32;
        let Ok(opt) = Exact.search(&g, &[q]) else {
            continue;
        };
        for algo in [
            &Fpa::default() as &dyn CommunitySearch,
            &Fpa::without_pruning(),
            &FpaDmg,
            &Nca::default(),
            &NcaDr,
        ] {
            let h = algo.search(&g, &[q]).unwrap();
            assert!(
                h.density_modularity <= opt.density_modularity + 1e-9,
                "{} beat the exact optimum on seed {seed}",
                algo.name()
            );
        }
    }
}

#[test]
fn detection_covers_ba_graph() {
    let g = random::barabasi_albert(200, 3, 17);
    let (labels, comms) =
        dmcs::core::detect::detect_communities(&g, dmcs::core::detect::DetectConfig::default());
    assert_eq!(labels.len(), 200);
    assert_eq!(comms.iter().map(|c| c.len()).sum::<usize>(), 200);
}

#[test]
fn local_search_kcore_agrees_with_global_on_karate() {
    use dmcs::baselines::{KCore, LocalKCore};
    let g = karate::karate();
    // Where LS succeeds, its core is a (connected) subset of the global
    // k-core community.
    for q in [0u32, 33] {
        if let Ok(local) = LocalKCore::new(3).search(&g, &[q]) {
            let global = KCore::new(3).search(&g, &[q]).unwrap();
            for v in &local.community {
                assert!(global.community.contains(v));
            }
        }
    }
}
