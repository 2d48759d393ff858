//! Property-based tests for the extension subsystems: branch-and-bound
//! optimality, weighted/unweighted consistency (unit weights answer
//! bit for bit like no weights), PageRank stochasticity,
//! cover metrics, structural goodness, and LPA's search contract.

use dmcs::baselines::Lpa;
use dmcs::core::measure::density_modularity;
use dmcs::core::topk::{top_k_communities_with, TopKConfig};
use dmcs::core::{BranchAndBound, CommunitySearch, Exact, Fpa, Nca, SearchResult};
use dmcs::engine::AlgoSpec;
use dmcs::gen::{lfr, sbm};
use dmcs::graph::pagerank::{pagerank, personalized_pagerank, PageRankConfig};
use dmcs::graph::view::QueryWorkspace;
use dmcs::graph::weighted::WeightedGraphBuilder;
use dmcs::graph::{Graph, GraphBuilder, NodeId, SubgraphView};
use dmcs::metrics::overlap::{average_f1, omega_index, onmi, set_f1};
use dmcs::metrics::Goodness;
use proptest::prelude::*;

/// Random simple graph on up to `max_n` nodes via an edge-probability mask.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        proptest::collection::vec(proptest::bool::weighted(0.3), pairs).prop_map(move |mask| {
            let mut b = GraphBuilder::new(n);
            let mut k = 0usize;
            for u in 0..n {
                for v in (u + 1)..n {
                    if mask[k] {
                        b.add_edge(u as NodeId, v as NodeId);
                    }
                    k += 1;
                }
            }
            b.build()
        })
    })
}

/// Every flag of `dmcs` and `dmcs serve`.
const CLI_FLAGS: &[&str] = &[
    "--help",
    "-h",
    "--graph",
    "--demo",
    "--weighted",
    "--algo",
    "--k",
    "--no-pruning",
    "--shards",
    "--layout",
    "--query",
    "--queries",
    "--updates",
    "--threads",
    "--format",
    "--stats",
    "--max-print",
    "--top-k",
    "--dot",
    "--plan",
    "--unix",
    "--tcp",
    "--queue-cap",
    "--max-line-bytes",
];

/// One command-line token: a flag of either grammar half the time, a
/// random word (a value, a typo, a stray dash) otherwise.
fn cli_token() -> impl Strategy<Value = String> {
    (0..2 * CLI_FLAGS.len()).prop_flat_map(|i| {
        "[-a-z0-9,]{0,12}".prop_map(move |word| match CLI_FLAGS.get(i) {
            Some(flag) => flag.to_string(),
            None => word,
        })
    })
}

/// Random cover of `n` nodes: 1..4 possibly-overlapping non-empty sets.
fn arb_cover(n: usize) -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..n as NodeId, 1..n.max(2)),
        1..4,
    )
    .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
}

/// On unit weights every weighted sum is an exact integer, so `fpa`
/// (pruned and unpruned) and `nca` built with the weighted parameter
/// must answer every query, and every top-k round, exactly as their
/// unweighted builds, DM bits included, whether the graph carries a
/// unit weights lane or none.
fn check_unit_weight_parity(g: &Graph, picks: &[Vec<usize>]) -> Result<(), TestCaseError> {
    let unit = g.clone().with_unit_weights();
    let specs = [
        AlgoSpec::new("fpa"),
        AlgoSpec::new("fpa").without_pruning(),
        AlgoSpec::new("nca"),
    ];
    for spec in specs {
        let plain = spec.build().unwrap();
        let weighted = spec.clone().weighted().build().unwrap();
        for pick in picks {
            let q: Vec<NodeId> = pick.iter().map(|&i| (i % g.n()) as NodeId).collect();
            let want = plain.search(g, &q);
            let cfg = TopKConfig { k: 2, min_dm: 0.0 };
            let mut ws = QueryWorkspace::new();
            let want_rounds = top_k_communities_with(g, &q, cfg, plain.as_ref(), false, &mut ws);
            for (lane, graph) in [("no lane", g), ("unit lane", &unit)] {
                let got = weighted.search(graph, &q);
                prop_assert_eq!(&got, &want, "{:?} query {:?}, {}", spec, q, lane);
                // Top-k rounds score the weighted DM of each community.
                let rounds =
                    top_k_communities_with(graph, &q, cfg, weighted.as_ref(), true, &mut ws);
                prop_assert_eq!(&rounds, &want_rounds, "{:?} top-k {:?}, {}", spec, q, lane);
                let bits = |r: &[SearchResult]| -> Vec<u64> {
                    r.iter().map(|r| r.density_modularity.to_bits()).collect()
                };
                if let (Ok(got), Ok(want)) = (&got, &want) {
                    prop_assert_eq!(
                        got.density_modularity.to_bits(),
                        want.density_modularity.to_bits()
                    );
                }
                if let (Ok(got), Ok(want)) = (&rounds, &want_rounds) {
                    prop_assert_eq!(bits(got), bits(want));
                }
            }
        }
    }
    Ok(())
}

/// 1–3 query nodes per query, as indices reduced modulo `n`.
fn query_picks() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..100_000, 1..4), 6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn unit_weights_answer_like_no_weights_on_sbm(
        seed in 0u64..10_000,
        p_out_permille in 0u32..40,
        picks in query_picks(),
    ) {
        let p_out = f64::from(p_out_permille) / 1000.0;
        let (g, _) = sbm::planted_partition(&[16, 14, 12, 10, 8], 0.35, p_out, seed);
        check_unit_weight_parity(&g, &picks)?;
    }

    #[test]
    fn unit_weights_answer_like_no_weights_on_lfr(seed in 0u64..10_000, picks in query_picks()) {
        let cfg = lfr::LfrConfig {
            n: 120,
            avg_degree: 8.0,
            max_degree: 24,
            min_community: 8,
            max_community: 30,
            seed,
            ..lfr::LfrConfig::default()
        };
        check_unit_weight_parity(&lfr::generate(&cfg).graph, &picks)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bnb_equals_bitmask_exact(g in arb_graph(13), q in 0..13u32) {
        if g.m() == 0 { return Ok(()) } // DM is -inf everywhere: vacuous
        let q = q % g.n() as u32;
        let (Ok(a), Ok(b)) = (Exact.search(&g, &[q]), BranchAndBound::default().search(&g, &[q]))
        else { return Ok(()) };
        prop_assert!((a.density_modularity - b.density_modularity).abs() < 1e-9,
            "bitmask {} vs bnb {}", a.density_modularity, b.density_modularity);
        // Both communities actually attain their reported objective.
        prop_assert!((density_modularity(&g, &b.community) - b.density_modularity).abs() < 1e-9);
    }

    #[test]
    fn bnb_dominates_every_heuristic(g in arb_graph(14), q in 0..14u32) {
        let q = q % g.n() as u32;
        let Ok(opt) = BranchAndBound::default().search(&g, &[q]) else { return Ok(()) };
        for algo in [&Fpa::default() as &dyn CommunitySearch, &Nca::default()] {
            let h = algo.search(&g, &[q]).unwrap();
            prop_assert!(h.density_modularity <= opt.density_modularity + 1e-9,
                "{} beat the certified optimum", algo.name());
        }
        let view = SubgraphView::from_nodes(&g, &opt.community);
        prop_assert!(view.is_connected());
        prop_assert!(opt.community.contains(&q));
    }

    #[test]
    fn unit_weighted_dm_is_unweighted_dm(g in arb_graph(14), q in 0..14u32) {
        if g.m() == 0 { return Ok(()) } // DM is -inf everywhere: vacuous
        let q = q % g.n() as u32;
        let mut b = WeightedGraphBuilder::new(g.n());
        for (u, v) in g.edges() {
            b.add_edge(u, v, 1.0);
        }
        let wg = b.build();
        // The weighted objective evaluated on any community equals the
        // unweighted DM of that community.
        for r in [
            Fpa::default().weighted().search(&wg, &[q]),
            Nca::default().weighted().search(&wg, &[q]),
        ] {
            let Ok(r) = r else { continue };
            prop_assert!(
                (r.density_modularity - density_modularity(&g, &r.community)).abs() < 1e-9
            );
            let view = SubgraphView::from_nodes(&g, &r.community);
            prop_assert!(view.is_connected());
            prop_assert!(r.community.contains(&q));
        }
    }

    #[test]
    fn weight_scaling_scales_the_objective(g in arb_graph(12), scale_x10 in 1..50u32) {
        // DM(G, C; λ·w) = λ·DM(G, C; w): scaling all weights scales DM.
        if g.m() == 0 { return Ok(()) }
        let lambda = scale_x10 as f64 / 10.0;
        let build = |w: f64| {
            let mut b = WeightedGraphBuilder::new(g.n());
            for (u, v) in g.edges() { b.add_edge(u, v, w); }
            b.build()
        };
        let unit = build(1.0);
        let scaled = build(lambda);
        let c: Vec<NodeId> = (0..g.n().min(5) as NodeId).collect();
        prop_assert!(
            (scaled.density_modularity(&c) - lambda * unit.density_modularity(&c)).abs() < 1e-9
        );
    }

    #[test]
    fn pagerank_is_stochastic_and_positive(g in arb_graph(20)) {
        let pr = pagerank(&g, PageRankConfig::default());
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        for &p in &pr {
            prop_assert!(p > 0.0, "teleport keeps every score positive");
        }
    }

    #[test]
    fn personalized_pagerank_is_stochastic(g in arb_graph(16), s in 0..16u32) {
        let s = s % g.n() as u32;
        let pr = personalized_pagerank(&g, &[s], PageRankConfig::default());
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        // The seed's score is at least the uniform share.
        prop_assert!(pr[s as usize] >= 1.0 / g.n() as f64 - 1e-9);
    }

    #[test]
    fn cover_metrics_bounds_and_symmetry(a in arb_cover(10), b in arb_cover(10)) {
        let n = 10;
        let o_ab = onmi(n, &a, &b);
        let o_ba = onmi(n, &b, &a);
        prop_assert!((o_ab - o_ba).abs() < 1e-9, "ONMI symmetric");
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&o_ab), "ONMI in [0,1]: {o_ab}");
        prop_assert!((onmi(n, &a, &a) - 1.0).abs() < 1e-9, "ONMI self = 1");

        let f_ab = average_f1(&a, &b);
        prop_assert!((f_ab - average_f1(&b, &a)).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f_ab));
        prop_assert!((average_f1(&a, &a) - 1.0).abs() < 1e-12);

        let w_ab = omega_index(n, &a, &b);
        prop_assert!((w_ab - omega_index(n, &b, &a)).abs() < 1e-9);
        prop_assert!(w_ab <= 1.0 + 1e-9);
        prop_assert!((omega_index(n, &a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn set_f1_bounds(a in proptest::collection::vec(0..20u32, 0..10),
                     b in proptest::collection::vec(0..20u32, 0..10)) {
        let f = set_f1(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        prop_assert!((f - set_f1(&b, &a)).abs() < 1e-12, "F1 symmetric");
    }

    #[test]
    fn goodness_invariants(g in arb_graph(16), size in 1..12usize) {
        if g.m() == 0 { return Ok(()) }
        let c: Vec<NodeId> = (0..size.min(g.n()) as NodeId).collect();
        let good = Goodness::from_counts(
            g.n(), c.len(), g.internal_edges(&c), g.degree_sum(&c), g.m() as u64);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&good.conductance()));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&good.internal_density()));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&good.cut_ratio()));
        prop_assert!(good.expansion() >= 0.0);
        prop_assert!(good.separability() >= 0.0);
        // cut + 2l == vol, by construction.
        prop_assert_eq!(good.cut() + 2 * good.internal_edges, good.volume);
    }

    #[test]
    fn ifub_diameter_matches_brute_force(g in arb_graph(20)) {
        use dmcs::graph::diameter::{brute_force_diameter, ifub_diameter};
        prop_assert_eq!(ifub_diameter(&g), brute_force_diameter(&g));
    }

    #[test]
    fn ppr_sweep_contract_on_random_graphs(g in arb_graph(16), q in 0..16u32) {
        use dmcs::baselines::PprSweep;
        let q = q % g.n() as u32;
        let r = PprSweep::default().search(&g, &[q]).unwrap();
        prop_assert!(r.community.contains(&q));
        let view = SubgraphView::from_nodes(&g, &r.community);
        prop_assert!(view.is_connected());
    }

    #[test]
    fn community_weighting_respects_bands(g in arb_graph(14), noise_x10 in 0..8u32) {
        use dmcs::gen::weighting::{weight_by_communities, WeightingConfig};
        let n = g.n();
        let comms = vec![
            (0..n as u32 / 2).collect::<Vec<_>>(),
            (n as u32 / 2..n as u32).collect::<Vec<_>>(),
        ];
        let cfg = WeightingConfig {
            w_in: 4.0,
            w_out: 1.0,
            noise: noise_x10 as f64 / 10.0,
            seed: 1,
        };
        let wg = weight_by_communities(&g, &comms, cfg);
        prop_assert_eq!(wg.m(), g.m(), "topology preserved");
        let band = cfg.noise;
        for (u, v) in g.edges() {
            let w = wg.edge_weight(u, v).expect("edge kept");
            let base = if ((u as usize) < n / 2) == ((v as usize) < n / 2) { 4.0 } else { 1.0 };
            prop_assert!(w >= base * (1.0 - band) - 1e-9);
            prop_assert!(w <= base * (1.0 + band) + 1e-9);
        }
    }

    #[test]
    fn cli_parse_never_panics(tokens in proptest::collection::vec(cli_token(), 0..8)) {
        // Arbitrary argv must parse or error under both grammars — never
        // panic.
        let _ = dmcs::cli::parse(&tokens);
        let _ = dmcs::cli::parse_serve(&tokens);
    }

    #[test]
    fn top_k_rounds_share_only_query_nodes(g in arb_graph(16), q in 0..16u32) {
        use dmcs::core::topk::{top_k_communities, TopKConfig};
        if g.m() == 0 { return Ok(()) }
        let q = q % g.n() as u32;
        let rounds = top_k_communities(&g, &[q], TopKConfig { k: 3, min_dm: f64::NEG_INFINITY })
            .unwrap();
        for r in &rounds {
            prop_assert!(r.community.contains(&q));
            let view = SubgraphView::from_nodes(&g, &r.community);
            prop_assert!(view.is_connected());
        }
        for i in 0..rounds.len() {
            for j in (i + 1)..rounds.len() {
                for v in &rounds[i].community {
                    if *v != q {
                        prop_assert!(!rounds[j].community.contains(v),
                            "node {} appears in rounds {} and {}", v, i, j);
                    }
                }
            }
        }
    }

    #[test]
    fn lpa_contract_on_random_graphs(g in arb_graph(18), q in 0..18u32, seed in 0..5u64) {
        let q = q % g.n() as u32;
        let r = Lpa::new(seed).search(&g, &[q]).unwrap();
        prop_assert!(r.community.contains(&q));
        let view = SubgraphView::from_nodes(&g, &r.community);
        prop_assert!(view.is_connected());
        // Deterministic per seed.
        let r2 = Lpa::new(seed).search(&g, &[q]).unwrap();
        prop_assert_eq!(r.community, r2.community);
    }
}
