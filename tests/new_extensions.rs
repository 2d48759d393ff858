//! Integration tests for the second extension batch through the umbrella
//! API: branch-and-bound exact search, weighted NCA, PageRank, the LPA
//! baseline, cover metrics, structural goodness, and the CLI.

use dmcs::baselines::Lpa;
use dmcs::core::{BranchAndBound, CommunitySearch, Exact, Fpa, Nca};
use dmcs::gen::{karate, random, ring, sbm};
use dmcs::graph::pagerank::{pagerank, personalized_pagerank, rank_of, PageRankConfig};
use dmcs::graph::weighted::WeightedGraphBuilder;
use dmcs::metrics::overlap::{average_f1, omega_index, onmi};
use dmcs::metrics::Goodness;

#[test]
fn bnb_matches_bitmask_on_karate_subsets() {
    // Karate has 34 nodes — over the bitmask cap — so compare on induced
    // 18-node subgraphs instead.
    let g = karate::karate();
    let nodes: Vec<u32> = (0..18).collect();
    let (sub, _map) = g.induced(&nodes);
    for q in [0u32, 5, 17] {
        let a = Exact.search(&sub, &[q]).unwrap();
        let b = BranchAndBound::default().search(&sub, &[q]).unwrap();
        assert!(
            (a.density_modularity - b.density_modularity).abs() < 1e-9,
            "query {q}"
        );
    }
}

#[test]
fn bnb_certifies_fpa_on_the_resolution_limit_ring() {
    // Example 3's ring: the exact optimum is the query's clique, and FPA
    // attains it — certified, not just asserted.
    let g = ring::ring_of_cliques(5, 6);
    let opt = BranchAndBound::default().search(&g, &[0]).unwrap();
    let fpa = Fpa::without_pruning().search(&g, &[0]).unwrap();
    assert_eq!(opt.community.len(), 6);
    assert!((fpa.density_modularity - opt.density_modularity).abs() < 1e-9);
}

#[test]
fn weighted_algorithms_agree_with_unweighted_on_unit_karate() {
    let topo = karate::karate();
    let mut b = WeightedGraphBuilder::new(topo.n());
    for (u, v) in topo.edges() {
        b.add_edge(u, v, 1.0);
    }
    let wg = b.build();
    for q in 0..topo.n() as u32 {
        // On unit weights every weighted sum is an exact integer, so the
        // weighted kernels take the unweighted ones' every step, Θ ties
        // included: the results agree in every field, DM bits too.
        for fpa in [Fpa::without_pruning(), Fpa::default()] {
            let wf = fpa.weighted().search(&wg, &[q]).unwrap();
            let uf = fpa.search(&topo, &[q]).unwrap();
            let recomputed = dmcs::core::measure::density_modularity(&topo, &wf.community);
            assert!(
                (wf.density_modularity - recomputed).abs() < 1e-9,
                "unit-weight DM must equal unweighted DM on the same set"
            );
            assert_eq!(wf, uf, "FPA query {q}, pruning {}", fpa.layer_pruning);
            assert_eq!(
                wf.density_modularity.to_bits(),
                uf.density_modularity.to_bits(),
                "FPA query {q}"
            );
        }
        let wn = Nca::default().weighted().search(&wg, &[q]).unwrap();
        let un = Nca::default().search(&topo, &[q]).unwrap();
        assert_eq!(wn.community, un.community, "NCA query {q}");
        assert_eq!(wn, un, "NCA query {q}");
        assert_eq!(
            wn.density_modularity.to_bits(),
            un.density_modularity.to_bits(),
            "NCA query {q}"
        );
    }
}

#[test]
fn weights_flip_the_winning_block() {
    // Symmetric topology, asymmetric weights: the same query lands in
    // the heavy block's community under both weighted algorithms.
    let (topo, comms) = sbm::planted_partition(&[16, 16], 0.5, 0.1, 5);
    let mut b = WeightedGraphBuilder::new(topo.n());
    for (u, v) in topo.edges() {
        let left = (u as usize) < 16 && (v as usize) < 16;
        b.add_edge(u, v, if left { 4.0 } else { 1.0 });
    }
    let wg = b.build();
    let q = comms[0][0];
    for r in [
        Fpa::default().weighted().search(&wg, &[q]).unwrap(),
        Nca::default().weighted().search(&wg, &[q]).unwrap(),
    ] {
        let inside = r.community.iter().filter(|&&v| (v as usize) < 16).count();
        assert!(
            inside * 2 > r.community.len(),
            "community should live mostly in the heavy block: {inside}/{}",
            r.community.len()
        );
    }
}

#[test]
fn pagerank_ranks_karate_hubs_first() {
    let g = karate::karate();
    let pr = pagerank(&g, PageRankConfig::default());
    // Nodes 33 and 0 are the two club leaders — the famous hubs.
    let r33 = rank_of(&pr, 33);
    let r0 = rank_of(&pr, 0);
    assert!(r33 <= 2 && r0 <= 2, "leaders ranked {r33} and {r0}");
    let sum: f64 = pr.iter().sum();
    assert!((sum - 1.0).abs() < 1e-8);
}

#[test]
fn personalized_pagerank_localizes_to_the_query_community() {
    let g = karate::karate();
    let fpa = Fpa::default().search(&g, &[0]).unwrap();
    let ppr = personalized_pagerank(&g, &[0], PageRankConfig::default());
    // Average PPR mass inside the returned community beats the average
    // outside it.
    let inside: f64 =
        fpa.community.iter().map(|&v| ppr[v as usize]).sum::<f64>() / fpa.community.len() as f64;
    let outside_nodes: Vec<u32> = (0..34u32).filter(|v| !fpa.community.contains(v)).collect();
    let outside: f64 =
        outside_nodes.iter().map(|&v| ppr[v as usize]).sum::<f64>() / outside_nodes.len() as f64;
    assert!(inside > outside, "inside {inside} vs outside {outside}");
}

#[test]
fn lpa_behaves_like_a_community_search() {
    let g = karate::karate();
    let r = Lpa::default().search(&g, &[0]).unwrap();
    assert!(r.community.contains(&0));
    let view = dmcs::graph::SubgraphView::from_nodes(&g, &r.community);
    assert!(view.is_connected());
    // LPA on the barbell-ish BA graph never panics across seeds.
    let ba = random::barabasi_albert(150, 2, 3);
    for seed in 0..5 {
        let r = Lpa::new(seed).search(&ba, &[0]).unwrap();
        assert!(r.community.contains(&0));
    }
}

#[test]
fn cover_metrics_rank_candidate_covers_sensibly() {
    // Ground truth: the two karate factions.
    let g = karate::karate();
    let faction1: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 16, 17, 19, 21];
    let faction2: Vec<u32> = (0..34u32).filter(|v| !faction1.contains(v)).collect();
    let truth = vec![faction1.clone(), faction2.clone()];

    // Candidate A: FPA communities from each faction's leader.
    let c0 = Fpa::default().search(&g, &[0]).unwrap().community;
    let c33 = Fpa::default().search(&g, &[33]).unwrap().community;
    let candidate = vec![c0, c33];
    // Candidate B: a nonsense parity cover.
    let even: Vec<u32> = (0..34).filter(|v| v % 2 == 0).collect();
    let odd: Vec<u32> = (0..34).filter(|v| v % 2 == 1).collect();
    let nonsense = vec![even, odd];

    let n = 34;
    assert!(onmi(n, &truth, &candidate) > onmi(n, &truth, &nonsense));
    assert!(average_f1(&truth, &candidate) > average_f1(&truth, &nonsense));
    assert!(omega_index(n, &truth, &candidate) > omega_index(n, &truth, &nonsense));
    // Self-comparison is perfect under all three.
    assert!((onmi(n, &truth, &truth) - 1.0).abs() < 1e-12);
    assert!((average_f1(&truth, &truth) - 1.0).abs() < 1e-12);
    assert!((omega_index(n, &truth, &truth) - 1.0).abs() < 1e-12);
}

#[test]
fn goodness_of_fpa_community_beats_whole_graph() {
    let g = karate::karate();
    let r = Fpa::default().search(&g, &[0]).unwrap();
    let stats = |c: &[u32]| {
        Goodness::from_counts(
            g.n(),
            c.len(),
            g.internal_edges(c),
            g.degree_sum(c),
            g.m() as u64,
        )
    };
    let comm = stats(&r.community);
    let whole: Vec<u32> = (0..34).collect();
    let all = stats(&whole);
    assert!(comm.internal_density() > all.internal_density());
    assert!(comm.average_internal_degree() > 0.0);
    assert!(comm.conductance() < 1.0);
}

#[test]
fn cli_round_trip_on_generated_file() {
    // Save a generated graph, search it through the CLI layer, confirm
    // the result is the same community FPA returns via the API.
    let (g, comms) = sbm::planted_partition(&[12, 12], 0.7, 0.05, 11);
    let dir = std::env::temp_dir().join("dmcs_integration_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sbm.txt");
    dmcs::graph::io::save_edge_list(&g, &path).unwrap();

    let q = comms[0][0] as u64;
    let cfg = dmcs::cli::CliConfig {
        graph_path: Some(path.display().to_string()),
        query: vec![q],
        algo: "fpa".into(),
        max_print: 0,
        ..Default::default()
    };
    let mut out = Vec::new();
    dmcs::cli::run(&cfg, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("24 nodes"), "{text}");

    let api = Fpa::default().search(&g, &[q as u32]).unwrap();
    // Every member the API returns must be printed (original = dense ids
    // here because save_edge_list writes dense ids).
    for v in &api.community {
        assert!(text.contains(&v.to_string()), "member {v} missing: {text}");
    }
}

#[test]
fn exact_solvers_and_heuristics_form_a_total_order() {
    // exact == bnb >= nca/fpa on every solvable random graph.
    for seed in 0..10u64 {
        let g = random::erdos_renyi(15, 0.3, seed);
        let Ok(e) = Exact.search(&g, &[0]) else {
            continue;
        };
        let b = BranchAndBound::default().search(&g, &[0]).unwrap();
        assert!((e.density_modularity - b.density_modularity).abs() < 1e-9);
        for h in [
            Fpa::default().search(&g, &[0]).unwrap(),
            Nca::default().search(&g, &[0]).unwrap(),
        ] {
            assert!(h.density_modularity <= b.density_modularity + 1e-9);
        }
    }
}
