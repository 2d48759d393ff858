//! Second batch of extension experiments:
//!
//! - `bnb` — the branch-and-bound exact solver: agreement with the
//!   bitmask enumerator where both run, optimality gaps of the heuristics
//!   on components *beyond* the 26-node bitmask cap, and how much of the
//!   subset lattice the bound actually prunes.
//! - `goodness` — ground-truth-free structural quality (conductance,
//!   expansion, cut ratio, separability, ...) of the communities each
//!   algorithm returns on the default LFR benchmark.
//! - `weighted` — the weighted DMCS extension: when edge weights carry
//!   the community signal that topology alone hides, FPA and NCA on the
//!   weighted objective (`W-FPA` / `W-NCA`) recover the planted blocks
//!   while the unweighted FPA cannot.

use crate::harness::{csv_line, csv_writer, f3, mean, median, print_table, Scale};
use dmcs_core::topk::{top_k_communities, TopKConfig};
use dmcs_core::{BranchAndBound, CommunitySearch, Exact, Fpa, Nca};
use dmcs_engine::registry::AlgoSpec;
use dmcs_gen::{lfr, queries, ring, sbm};
use dmcs_graph::weighted::WeightedGraphBuilder;
use dmcs_graph::{Graph, NodeId};
use dmcs_metrics::overlap::set_f1;
use dmcs_metrics::Goodness;

/// Branch-and-bound exact solver: cross-validation and optimality gaps
/// past the bitmask cap.
pub fn bnb(scale: Scale) {
    println!("Extra: branch-and-bound exact DMCS\n");
    let trials = match scale {
        Scale::Fast => 20,
        Scale::Full => 100,
    };

    // Part 1 — agreement with the bitmask enumerator on 16-node graphs.
    let mut agree = 0usize;
    let mut both = 0usize;
    for seed in 0..trials as u64 {
        let g = dmcs_gen::random::erdos_renyi(16, 0.25, seed);
        let (Ok(a), Ok(b)) = (
            Exact.search(&g, &[0]),
            BranchAndBound::default().search(&g, &[0]),
        ) else {
            continue;
        };
        both += 1;
        if (a.density_modularity - b.density_modularity).abs() < 1e-9 {
            agree += 1;
        }
    }
    println!("bitmask/bnb agreement on ER(16): {agree}/{both}\n");

    // Part 2 — heuristic optimality gaps on 28–32-node components where
    // only branch-and-bound can certify the optimum.
    let families: Vec<(&str, Vec<Graph>)> = vec![
        ("ring(5,6) 30n", vec![ring::ring_of_cliques(5, 6)]),
        (
            "sbm(2x15) 30n",
            (0..trials as u64)
                .map(|i| sbm::planted_partition(&[15, 15], 0.55, 0.06, i).0)
                .collect(),
        ),
        (
            "er(28,0.15)",
            (0..trials as u64)
                .map(|i| dmcs_gen::random::erdos_renyi(28, 0.15, i))
                .collect(),
        ),
    ];
    let mut rows = Vec::new();
    let mut w = csv_writer("extra_bnb").expect("results dir");
    csv_line(
        &mut w,
        &["family,algo,mean_ratio,optimal_rate,mean_expanded".to_string()],
    )
    .unwrap();
    for (label, graphs) in &families {
        let algos: Vec<(&str, Box<dyn CommunitySearch>)> = ["FPA", "NCA"]
            .into_iter()
            .zip(crate::harness::lineup(&[
                AlgoSpec::new("fpa"),
                AlgoSpec::new("nca"),
            ]))
            .collect();
        for (name, algo) in &algos {
            let mut ratios = Vec::new();
            let mut optimal = 0usize;
            let mut total = 0usize;
            let mut expanded = Vec::new();
            for g in graphs {
                let Ok(opt) = BranchAndBound::default().search(g, &[0]) else {
                    continue;
                };
                expanded.push(opt.iterations as f64);
                let Ok(h) = algo.search(g, &[0]) else {
                    continue;
                };
                if opt.density_modularity <= 0.0 {
                    continue;
                }
                total += 1;
                let r = h.density_modularity / opt.density_modularity;
                ratios.push(r);
                if r > 1.0 - 1e-9 {
                    optimal += 1;
                }
            }
            rows.push(vec![
                label.to_string(),
                name.to_string(),
                f3(mean(&ratios)),
                format!("{optimal}/{total}"),
                format!("{:.0}", mean(&expanded)),
            ]);
            csv_line(
                &mut w,
                &[format!(
                    "{label},{name},{:.4},{:.3},{:.0}",
                    mean(&ratios),
                    optimal as f64 / total.max(1) as f64,
                    mean(&expanded)
                )],
            )
            .unwrap();
        }
    }
    print_table(
        &[
            "family",
            "algo",
            "mean DM ratio",
            "exactly optimal",
            "bnb tree nodes",
        ],
        &rows,
    );
    println!(
        "A 30-node component has 2^30 ≈ 1.07e9 subsets; the bound keeps the\n\
         explored tree orders of magnitude smaller."
    );
}

/// Structural goodness of returned communities on the default LFR graph.
pub fn goodness(scale: Scale) {
    println!("Extra: ground-truth-free structural goodness on LFR\n");
    let cfg = lfr::LfrConfig {
        n: scale.lfr_n(),
        ..Default::default()
    };
    let g = lfr::generate(&cfg);
    let ds = dmcs_gen::Dataset {
        name: "lfr-default".into(),
        graph: g.graph,
        communities: g.communities,
        overlapping: false,
    };
    let nq = scale.query_sets();
    let queries = queries::sample_query_sets(&ds, nq, 1, 4, 7);

    let algos = crate::harness::lineup(&[
        AlgoSpec::new("fpa"),
        AlgoSpec::with_k("kc", 3),
        AlgoSpec::new("highcore"),
        AlgoSpec::new("lpa"),
        AlgoSpec::new("wu2015"),
        AlgoSpec::new("ppr"),
    ]);

    let mut rows = Vec::new();
    let mut w = csv_writer("extra_goodness").expect("results dir");
    csv_line(
        &mut w,
        &["algo,size,conductance,expansion,cut_ratio,int_density,separability".to_string()],
    )
    .unwrap();
    for algo in algos {
        let (mut sizes, mut cond, mut exp, mut cutr, mut dens, mut sep) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        for (q, _) in &queries {
            let Ok(r) = algo.search(&ds.graph, q) else {
                continue;
            };
            let c = &r.community;
            let l = ds.graph.internal_edges(c);
            let vol = ds.graph.degree_sum(c);
            let good = Goodness::from_counts(ds.graph.n(), c.len(), l, vol, ds.graph.m() as u64);
            sizes.push(c.len() as f64);
            cond.push(good.conductance());
            exp.push(good.expansion());
            cutr.push(good.cut_ratio());
            dens.push(good.internal_density());
            let s = good.separability();
            sep.push(if s.is_finite() { s } else { 1e6 });
        }
        rows.push(vec![
            algo.name().to_string(),
            format!("{:.0}", median(&sizes)),
            f3(median(&cond)),
            f3(median(&exp)),
            format!("{:.5}", median(&cutr)),
            f3(median(&dens)),
            f3(median(&sep)),
        ]);
        csv_line(
            &mut w,
            &[format!(
                "{},{:.0},{:.4},{:.4},{:.6},{:.4},{:.4}",
                algo.name(),
                median(&sizes),
                median(&cond),
                median(&exp),
                median(&cutr),
                median(&dens),
                median(&sep)
            )],
        )
        .unwrap();
    }
    print_table(
        &[
            "algo",
            "med size",
            "conductance↓",
            "expansion↓",
            "cut ratio↓",
            "int density↑",
            "separability↑",
        ],
        &rows,
    );
    println!(
        "FPA should dominate on the boundary measures (low conductance /\n\
         cut ratio) without collapsing to whole-graph communities."
    );
}

/// Top-k diverse search on overlapping LFR: do the exclusion rounds
/// recover the *distinct* ground-truth communities of an overlap node?
pub fn topk(scale: Scale) {
    println!("Extra: top-k diverse search on overlapping ground truth\n");
    let cfg = lfr::LfrConfig {
        n: scale.lfr_n().min(2000),
        overlap_fraction: 0.25,
        ..Default::default()
    };
    let g = lfr::generate(&cfg);
    // Overlap nodes: members of exactly two ground-truth communities.
    let overlap_nodes: Vec<NodeId> = (0..g.graph.n() as NodeId)
        .filter(|&v| g.membership[v as usize].len() == 2)
        .collect();
    let trials = scale.query_sets().min(overlap_nodes.len());
    println!(
        "graph: {} nodes, {} overlap nodes; evaluating {trials} queries\n",
        g.graph.n(),
        overlap_nodes.len()
    );

    // For each overlap query: best-F1 of its two ground-truth communities
    // under (a) single FPA and (b) top-2 rounds (each gt matched to its
    // best round).
    let (mut single_cover, mut topk_cover) = (Vec::new(), Vec::new());
    let mut rounds_found = Vec::new();
    for &q in overlap_nodes.iter().take(trials) {
        let gts: Vec<&Vec<NodeId>> = g.membership[q as usize]
            .iter()
            .map(|&c| &g.communities[c as usize])
            .collect();
        let Ok(single) = Fpa::default().search(&g.graph, &[q]) else {
            continue;
        };
        let Ok(rounds) = top_k_communities(&g.graph, &[q], TopKConfig { k: 2, min_dm: 0.0 }) else {
            continue;
        };
        rounds_found.push(rounds.len() as f64);
        // Coverage score: mean over the gt communities of the best F1 any
        // available community achieves against it.
        let cover = |cands: &[Vec<NodeId>]| -> f64 {
            gts.iter()
                .map(|gt| cands.iter().map(|c| set_f1(c, gt)).fold(0.0f64, f64::max))
                .sum::<f64>()
                / gts.len() as f64
        };
        single_cover.push(cover(std::slice::from_ref(&single.community)));
        topk_cover.push(cover(
            &rounds
                .iter()
                .map(|r| r.community.clone())
                .collect::<Vec<_>>(),
        ));
    }

    let mut w = csv_writer("extra_topk").expect("results dir");
    csv_line(&mut w, &["strategy,mean_coverage_f1".to_string()]).unwrap();
    csv_line(&mut w, &[format!("single,{:.4}", mean(&single_cover))]).unwrap();
    csv_line(&mut w, &[format!("top2,{:.4}", mean(&topk_cover))]).unwrap();
    print_table(
        &["strategy", "mean coverage F1 over both gt communities"],
        &[
            vec!["single FPA".into(), f3(mean(&single_cover))],
            vec!["top-2 rounds".into(), f3(mean(&topk_cover))],
        ],
    );
    println!(
        "mean rounds found: {:.1}. One community cannot cover two ground\n\
         truths; the second exclusion round should lift coverage.",
        mean(&rounds_found)
    );
}

/// Build a weighted two-block graph whose topology is nearly
/// uninformative but whose weights carry the block structure.
fn weighted_blocks(
    block: usize,
    p_in: f64,
    p_out: f64,
    w_in: f64,
    w_out: f64,
    seed: u64,
) -> (Graph, Vec<Vec<NodeId>>) {
    let (g, comms) = sbm::planted_partition(&[block, block], p_in, p_out, seed);
    let mut b = WeightedGraphBuilder::new(g.n());
    let block_of = |v: NodeId| usize::from(v as usize >= block);
    for (u, v) in g.edges() {
        let w = if block_of(u) == block_of(v) {
            w_in
        } else {
            w_out
        };
        b.add_edge(u, v, w);
    }
    (b.build(), comms)
}

/// Weighted DMCS: weights rescue the community signal.
pub fn weighted(scale: Scale) {
    println!("Extra: weighted DMCS (weights carry the signal)\n");
    let trials = match scale {
        Scale::Fast => 10,
        Scale::Full => 40,
    };
    // Topology: nearly uniform (p_in close to p_out) -> the unweighted
    // DM objective can barely separate the blocks. Weights: intra edges
    // 5x heavier.
    let (block, p_in, p_out) = (30usize, 0.30, 0.22);
    let algos = ["FPA (unweighted)", "W-FPA", "W-NCA"];
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut sizes: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for seed in 0..trials as u64 {
        let (wg, comms) = weighted_blocks(block, p_in, p_out, 5.0, 1.0, seed);
        let truth = &comms[0];
        let q = truth[0];
        let n = wg.n();
        let outcomes = [
            Fpa::default().search(&wg, &[q]),
            Fpa::default().weighted().search(&wg, &[q]),
            Nca::default().weighted().search(&wg, &[q]),
        ];
        for (i, out) in outcomes.into_iter().enumerate() {
            if let Ok(r) = out {
                scores[i].push(dmcs_metrics::nmi(n, &r.community, truth));
                sizes[i].push(r.community.len() as f64);
            }
        }
    }
    let mut rows = Vec::new();
    let mut w = csv_writer("extra_weighted").expect("results dir");
    csv_line(&mut w, &["algo,median_nmi,median_size".to_string()]).unwrap();
    for (i, name) in algos.iter().enumerate() {
        rows.push(vec![
            name.to_string(),
            f3(median(&scores[i])),
            format!("{:.0}", median(&sizes[i])),
        ]);
        csv_line(
            &mut w,
            &[format!(
                "{name},{:.4},{:.0}",
                median(&scores[i]),
                median(&sizes[i])
            )],
        )
        .unwrap();
    }
    print_table(&["algo", "median NMI", "median size"], &rows);
    println!(
        "Intra-block edges weigh 5x inter-block ones while the topology is\n\
         near-uniform (p_in={p_in}, p_out={p_out}): the weighted searches\n\
         should clearly beat the unweighted FPA.\n"
    );

    // Part 2 — realistic workload: LFR topology at high mixing (topology
    // signal weak) with community-correlated weights (weight signal
    // strong), via the gen::weighting module.
    println!("-- LFR μ=0.4 with community-correlated weights (w_in/w_out = 5)");
    let cfg = lfr::LfrConfig {
        n: scale.lfr_n().min(2000),
        mu: 0.4,
        ..Default::default()
    };
    let lg = lfr::generate(&cfg);
    let wg = dmcs_gen::weighting::weight_by_communities(
        &lg.graph,
        &lg.communities,
        dmcs_gen::weighting::WeightingConfig::default(),
    );
    let nq = scale.query_sets();
    let ds = dmcs_gen::Dataset {
        name: "lfr-weighted".into(),
        graph: lg.graph,
        communities: lg.communities,
        overlapping: false,
    };
    let sets = queries::sample_query_sets(&ds, nq, 1, 4, 99);
    let mut lfr_scores: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (q, _) in &sets {
        let truth: Vec<&Vec<NodeId>> = ds
            .communities
            .iter()
            .filter(|c| c.contains(&q[0]))
            .collect();
        let Some(truth) = truth.first() else { continue };
        let n = ds.graph.n();
        let outcomes = [
            Fpa::default().search(&ds.graph, q),
            Fpa::default().weighted().search(&wg, q),
            Nca::default().weighted().search(&wg, q),
        ];
        for (i, out) in outcomes.into_iter().enumerate() {
            if let Ok(r) = out {
                lfr_scores[i].push(dmcs_metrics::nmi(n, &r.community, truth));
            }
        }
    }
    let mut rows2 = Vec::new();
    for (i, name) in algos.iter().enumerate() {
        rows2.push(vec![name.to_string(), f3(median(&lfr_scores[i]))]);
        csv_line(
            &mut w,
            &[format!("lfr,{name},{:.4}", median(&lfr_scores[i]))],
        )
        .unwrap();
    }
    print_table(&["algo", "median NMI (LFR μ=0.4, weighted)"], &rows2);
}
