//! Layer-pruned FPA builds its peel state over the kept layers only. This
//! test pins it to the formulation it replaced: a peel over the whole
//! component's view that strips every pruned layer node by node
//! (outermost layer first, canonical id order inside a layer), offers
//! the stripped state as a snapshot, then peels the outermost kept
//! layer by Θ. The oracle below is that formulation, written
//! independently: it picks the layer prefix by measuring whole-layer
//! strips on a scratch view rather than from edge counts, and it finds
//! each Θ maximum by a linear scan rather than a lazy heap.
//!
//! Both must agree on the community, the DM bits and the iteration
//! count. The new `removal_order` lists node-level removals only, so it
//! must equal the oracle's order after the strip. Everything runs on the
//! canonical graph (identity canon) and on its bfs mirror with the
//! mirror's map as canon, through one warm workspace per substrate. The
//! oracle grows its Steiner seed on the canonical graph and translates
//! it, so the mirror leg also checks that the kernel's seed is the
//! canonical one.

use dmcs_core::measure::{density_modularity_counts, density_ratio};
use dmcs_core::{CommunitySearch, Fpa, SearchError, SearchResult};
use dmcs_gen::{lfr, sbm};
use dmcs_graph::steiner::steiner_seed;
use dmcs_graph::traversal::{multi_source_bfs, same_component, UNREACHABLE};
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{ComputeGraph, Graph, LayoutPolicy, NodeId, NodeMap, SubgraphView};
use proptest::prelude::*;

/// The pre-change pruned FPA on `g`, whose ids `canon` maps to those of
/// `canonical`. Returns the result with the bulk strip listed in
/// `removal_order`, plus the number of stripped nodes; `None` when the
/// query is disconnected.
fn oracle(
    g: &Graph,
    query: &[NodeId],
    canon: &NodeMap,
    canonical: &Graph,
) -> Option<(SearchResult, usize)> {
    if !same_component(g, query) {
        return None;
    }
    let external: Vec<NodeId> = query.iter().map(|&v| canon.to_external(v)).collect();
    let seed: Vec<NodeId> = steiner_seed(canonical, &external)
        .ok()?
        .into_iter()
        .map(|v| canon.to_internal(v))
        .collect();
    let dist = multi_source_bfs(g, &seed);
    let component: Vec<NodeId> = (0..g.n() as NodeId)
        .filter(|&v| dist[v as usize] != UNREACHABLE)
        .collect();
    let max_dist = component.iter().map(|&v| dist[v as usize]).max()? as usize;
    let mut layers: Vec<Vec<NodeId>> = vec![Vec::new(); max_dist + 1];
    for &v in &component {
        layers[dist[v as usize] as usize].push(v);
    }
    for layer in &mut layers {
        layer.sort_by_key(|&v| canon.to_external(v));
    }

    let m = g.m() as u64;
    let dm_of = |view: &SubgraphView<'_>| {
        let d_s = g.degree_sum(&view.alive_nodes());
        density_modularity_counts(view.m_alive(), d_s, view.n_alive(), m)
    };

    // Pick the layer prefix by stripping whole layers off a scratch view.
    let mut scratch = SubgraphView::from_nodes(g, &component);
    let mut best_dm = dm_of(&scratch);
    let mut target = max_dist;
    for d in (1..=max_dist).rev() {
        for &v in &layers[d] {
            scratch.remove(v);
        }
        let dm = dm_of(&scratch);
        if dm >= best_dm {
            best_dm = dm;
            target = d - 1;
        }
    }

    // Strip node by node on the real view, then take the snapshot.
    let mut view = SubgraphView::from_nodes(g, &component);
    let mut removed: Vec<NodeId> = Vec::new();
    for layer in layers[target + 1..].iter().rev() {
        for &v in layer {
            view.remove(v);
            removed.push(v);
        }
    }
    let stripped = removed.len();
    let mut best_prefix = 0;
    let dm = dm_of(&view);
    if dm >= best_dm {
        best_dm = dm;
        best_prefix = stripped;
    }

    // Peel the outermost kept layer: max Θ, ties to the smallest
    // canonical id, snapshot after every removal.
    let mut iterations = 1;
    if target > 0 {
        let mut cand = layers[target].clone();
        while !cand.is_empty() {
            let theta = |v: NodeId| density_ratio(g.degree(v) as u64, view.local_degree(v) as u64);
            let mut pick = 0;
            for i in 1..cand.len() {
                let (a, b) = (theta(cand[i]), theta(cand[pick]));
                if a > b || (a == b && canon.to_external(cand[i]) < canon.to_external(cand[pick])) {
                    pick = i;
                }
            }
            let v = cand.swap_remove(pick);
            view.remove(v);
            removed.push(v);
            iterations += 1;
            let dm = dm_of(&view);
            if dm >= best_dm && view.n_alive() > 0 {
                best_dm = dm;
                best_prefix = removed.len();
            }
        }
    }

    let dead = &removed[..best_prefix];
    let community = component
        .iter()
        .copied()
        .filter(|v| !dead.contains(v))
        .collect();
    let result = SearchResult {
        community,
        density_modularity: best_dm,
        removal_order: removed,
        iterations,
    };
    Some((result, stripped))
}

/// Run the kernel and the oracle on `g` under `canon` (mapping to
/// `canonical`'s ids) for each query (given in `g`'s own ids) and
/// require agreement.
fn assert_matches_oracle(
    g: &Graph,
    canon: &NodeMap,
    canonical: &Graph,
    queries: &[Vec<NodeId>],
) -> Result<(), TestCaseError> {
    let mut ws = QueryWorkspace::new();
    ws.set_canon(canon.clone());
    for q in queries {
        let got = Fpa::default().search_with_workspace(g, q, &mut ws);
        let Some((want, stripped)) = oracle(g, q, canon, canonical) else {
            prop_assert!(
                matches!(got, Err(SearchError::Graph(_))),
                "query {q:?}: disconnected, got {got:?}"
            );
            continue;
        };
        let got = got.map_err(|e| TestCaseError::fail(format!("query {q:?}: {e}")))?;
        prop_assert_eq!(&got.community, &want.community, "query {:?}", q);
        prop_assert_eq!(
            got.density_modularity.to_bits(),
            want.density_modularity.to_bits(),
            "query {:?}",
            q
        );
        prop_assert_eq!(got.iterations, want.iterations, "query {:?}", q);
        prop_assert_eq!(
            &got.removal_order[..],
            &want.removal_order[stripped..],
            "query {:?}",
            q
        );
    }
    Ok(())
}

/// Check `g` under the identity canon and on its bfs mirror.
fn check_both_substrates(g: &Graph, picks: &[Vec<usize>]) -> Result<(), TestCaseError> {
    let n = g.n();
    let queries: Vec<Vec<NodeId>> = picks
        .iter()
        .map(|p| p.iter().map(|&i| (i % n) as NodeId).collect())
        .collect();
    assert_matches_oracle(g, &NodeMap::identity(), g, &queries)?;

    let mirror = ComputeGraph::build(g, LayoutPolicy::Bfs).expect("bfs builds a mirror");
    let map = mirror.map();
    let internal: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| q.iter().map(|&v| map.to_internal(v)).collect())
        .collect();
    assert_matches_oracle(mirror.graph(), map, g, &internal)
}

/// 1–3 query nodes per query, as indices reduced modulo `n`.
fn query_picks() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..100_000, 1..4), 12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Sparse cross-block edges: deep BFS layers, so most queries strip
    // several outer layers; a zero `p_out` draw leaves the blocks
    // disconnected and exercises the error path.
    #[test]
    fn pruned_fpa_matches_oracle_on_sbm(
        seed in 0u64..10_000,
        p_out_permille in 0u32..30,
        picks in query_picks(),
    ) {
        let p_out = f64::from(p_out_permille) / 1000.0;
        let (g, _) = sbm::planted_partition(&[18, 14, 12, 9, 7], 0.35, p_out, seed);
        check_both_substrates(&g, &picks)?;
    }

    #[test]
    fn pruned_fpa_matches_oracle_on_lfr(seed in 0u64..10_000, picks in query_picks()) {
        let cfg = lfr::LfrConfig {
            n: 120,
            avg_degree: 5.0,
            max_degree: 20,
            min_community: 8,
            max_community: 30,
            seed,
            ..lfr::LfrConfig::default()
        };
        check_both_substrates(&lfr::generate(&cfg).graph, &picks)?;
    }
}
