//! Layer-pruned FPA builds its peel state over the kept layers only. This
//! test pins it to the formulation it replaced: a peel over the whole
//! component's view that strips every pruned layer node by node
//! (outermost layer first, canonical id order inside a layer), offers
//! the stripped state as a snapshot, then peels the outermost kept
//! layer by Θ. The oracle below is that formulation, written
//! independently: it picks the layer prefix by measuring whole-layer
//! strips on a scratch view rather than from edge counts, and it finds
//! each Θ maximum by a linear scan rather than a heap.
//!
//! Both must agree on the community, the DM bits and the iteration
//! count. The new `removal_order` lists node-level removals only, so it
//! must equal the oracle's order after the strip. Everything runs on the
//! canonical graph (identity canon) and on its bfs mirror with the
//! mirror's map as canon, through one warm workspace per substrate. The
//! oracle grows its Steiner seed on the canonical graph and translates
//! it, so the mirror leg also checks that the kernel's seed is the
//! canonical one.
//!
//! The oracle always layers the whole component, while the kernel stops
//! its walk once no deeper prefix can win, and a multi-node query's
//! Steiner walk once it is D hops out, D being the distance from the
//! first query node to the farthest one. The workspace tracks shards
//! with one node per shard, so the touched shards are the nodes the
//! kernel noted for the cache certificate: they must lie inside the
//! component and hold the community, and a multi-node query's must hold
//! every node within distance D of its first query node. The
//! one-component legs count the queries whose noted nodes stop short of
//! the component.
//!
//! The oracle sums edge weights (unit weights on a graph without a
//! weights lane, where its sums are exact integers and the legs above
//! compare DM bits). The weighted legs draw continuous weights and run
//! weighted FPA on the canonical graph; the oracle's from-scratch sums
//! round differently from the kernel's running ones, so their DMs agree
//! to 1e-12 relative, while community, removal order and iterations
//! agree exactly.

use dmcs_core::measure::density_modularity_sums;
use dmcs_core::{CommunitySearch, Fpa, SearchError, SearchResult};
use dmcs_gen::{lfr, sbm};
use dmcs_graph::steiner::steiner_seed;
use dmcs_graph::traversal::{
    bfs_distances, connected_components, multi_source_bfs, same_component, UNREACHABLE,
};
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{
    ComputeGraph, Graph, GraphBuilder, LayoutPolicy, NodeId, NodeMap, ShardLayout, SubgraphView,
};
use proptest::prelude::*;

/// What the oracle answers for one query.
struct Expected {
    /// The result, with the bulk strip listed in `removal_order`.
    result: SearchResult,
    /// How many nodes the bulk strip removed.
    stripped: usize,
    /// The seed's connected component, ascending.
    component: Vec<NodeId>,
}

/// The pre-change pruned FPA on `g`, on its edge weights, whose ids
/// `canon` maps to those of `canonical`; `None` when the query is
/// disconnected.
fn oracle(g: &Graph, query: &[NodeId], canon: &NodeMap, canonical: &Graph) -> Option<Expected> {
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

    // `v`'s alive incident weight, summed from scratch.
    let k = |view: &SubgraphView<'_>, v: NodeId| -> f64 {
        g.weighted_neighbors(v)
            .filter(|&(u, _)| view.contains(u))
            .map(|(_, w)| w)
            .fold(0.0, |a, w| a + w)
    };
    let dm_of = |view: &SubgraphView<'_>| {
        let alive = view.alive_nodes();
        let l: f64 = alive.iter().map(|&v| k(view, v)).fold(0.0, |a, x| a + x) / 2.0;
        let d = alive.iter().map(|&v| g.strength(v)).fold(0.0, |a, x| a + x);
        density_modularity_sums(l, d, view.n_alive(), g.total_weight())
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
            let theta = |v: NodeId| match view.local_degree(v) {
                0 => f64::INFINITY,
                _ => g.strength(v) / k(&view, v),
            };
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
    Some(Expected {
        result,
        stripped,
        component,
    })
}

/// Run `fpa` and the oracle on `g` under `canon` (mapping to
/// `canonical`'s ids) for each query (given in `g`'s own ids) and
/// require agreement, with DM bits equal unless `fpa` is weighted.
/// Returns how many queries noted a strict subset of their component,
/// i.e. stopped their walks early.
fn assert_matches_oracle(
    fpa: Fpa,
    g: &Graph,
    canon: &NodeMap,
    canonical: &Graph,
    queries: &[Vec<NodeId>],
) -> Result<usize, TestCaseError> {
    let mut ws = QueryWorkspace::new();
    ws.set_canon(canon.clone());
    let mut stopped = 0;
    for q in queries {
        // One node per shard: the touched shards are the noted nodes,
        // in canonical ids.
        ws.begin_shard_tracking(ShardLayout::new(g.n(), g.n()));
        let got = fpa.search_with_workspace(g, q, &mut ws);
        let noted = ws.take_touched_shards();
        let Some(Expected {
            result: want,
            stripped,
            component,
        }) = oracle(g, q, canon, canonical)
        else {
            prop_assert!(
                matches!(got, Err(SearchError::Graph(_))),
                "query {q:?}: disconnected, got {got:?}"
            );
            continue;
        };
        let got = got.map_err(|e| TestCaseError::fail(format!("query {q:?}: {e}")))?;
        let noted =
            noted.ok_or_else(|| TestCaseError::fail(format!("query {q:?}: nothing noted")))?;
        let external = |nodes: &[NodeId]| {
            let mut ids: Vec<u32> = nodes.iter().map(|&v| canon.to_external(v)).collect();
            ids.sort_unstable();
            ids
        };
        let component = external(&component);
        prop_assert!(
            noted.iter().all(|v| component.binary_search(v).is_ok()),
            "query {:?}: noted nodes outside the component",
            q
        );
        prop_assert!(
            external(&got.community)
                .iter()
                .all(|v| noted.binary_search(v).is_ok()),
            "query {:?}: community not inside the noted nodes",
            q
        );
        if q.len() > 1 {
            // The Steiner seed reads the distances of every node within
            // D of the root, so all of them must be noted.
            let from_root = bfs_distances(g, q[0]);
            let reach = q.iter().map(|&v| from_root[v as usize]).max().unwrap_or(0);
            let ball: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|&v| from_root[v as usize] <= reach)
                .collect();
            prop_assert!(
                external(&ball)
                    .iter()
                    .all(|v| noted.binary_search(v).is_ok()),
                "query {:?}: a node within distance {} of its root not noted",
                q,
                reach
            );
        }
        if noted.len() < component.len() {
            stopped += 1;
        }
        prop_assert_eq!(&got.community, &want.community, "query {:?}", q);
        let (a, b) = (got.density_modularity, want.density_modularity);
        if fpa.weighted {
            // Relative to 1 at least: DMs near 0 (a whole graph's is 0 up
            // to rounding) agree to within rounding only absolutely.
            prop_assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
                "query {:?}: DM {} vs {}",
                q,
                a,
                b
            );
        } else {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "query {:?}", q);
        }
        prop_assert_eq!(got.iterations, want.iterations, "query {:?}", q);
        prop_assert_eq!(
            &got.removal_order[..],
            &want.removal_order[stripped..],
            "query {:?}",
            q
        );
    }
    Ok(stopped)
}

/// Check `g` under the identity canon and on its bfs mirror; returns
/// the stopped walks counted on each.
fn check_both_substrates(g: &Graph, picks: &[Vec<usize>]) -> Result<[usize; 2], TestCaseError> {
    let n = g.n();
    let queries: Vec<Vec<NodeId>> = picks
        .iter()
        .map(|p| p.iter().map(|&i| (i % n) as NodeId).collect())
        .collect();
    let canonical = assert_matches_oracle(Fpa::default(), g, &NodeMap::identity(), g, &queries)?;

    let mirror = ComputeGraph::build(g, LayoutPolicy::Bfs).expect("bfs builds a mirror");
    let map = mirror.map();
    let internal: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| q.iter().map(|&v| map.to_internal(v)).collect())
        .collect();
    Ok([
        canonical,
        assert_matches_oracle(Fpa::default(), mirror.graph(), map, g, &internal)?,
    ])
}

/// `g` with one edge added from each component's smallest node to the
/// previous component's, so the whole graph is one component.
fn connected(g: &Graph) -> Graph {
    let (labels, count) = connected_components(g);
    let mut first = vec![NodeId::MAX; count];
    for v in (0..g.n() as NodeId).rev() {
        first[labels[v as usize] as usize] = v;
    }
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    edges.extend(first.windows(2).map(|w| (w[0], w[1])));
    GraphBuilder::from_edges(g.n(), &edges)
}

/// Check a one-component graph. Its queries must stop their walks as
/// often on the mirror as on the canonical graph, since the stops read
/// only counts and distances, which renumbering leaves alone. And some
/// must stop, or the leg would not cover stopped walks at all.
fn check_one_component(g: &Graph, picks: &[Vec<usize>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(connected_components(g).1, 1);
    let [canonical, mirror] = check_both_substrates(g, picks)?;
    prop_assert_eq!(canonical, mirror, "stopped walks per substrate");
    let one_node = picks.iter().filter(|p| p.len() == 1).count();
    prop_assert!(
        one_node == 0 || canonical > 0,
        "none of {} one-node walks stopped",
        one_node
    );
    Ok(())
}

/// `g` with a weight uniform in [0.5, 4) on every edge, drawn from `seed`.
fn with_random_weights(g: &Graph, seed: u64) -> Graph {
    let mut b = GraphBuilder::weighted(g.n());
    let mut state = seed;
    for (u, v) in g.edges() {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        b.add_weighted_edge(u, v, 0.5 + 3.5 * (z >> 11) as f64 / (1u64 << 53) as f64);
    }
    b.build()
}

/// Check weighted FPA on `g` with random weights; returns the stopped
/// walks.
fn check_weighted(g: &Graph, seed: u64, picks: &[Vec<usize>]) -> Result<usize, TestCaseError> {
    let g = with_random_weights(g, seed);
    let queries: Vec<Vec<NodeId>> = picks
        .iter()
        .map(|p| p.iter().map(|&i| (i % g.n()) as NodeId).collect())
        .collect();
    let fpa = Fpa::default().weighted();
    assert_matches_oracle(fpa, &g, &NodeMap::identity(), &g, &queries)
}

/// [`check_weighted`] on a one-component graph, where some one-node
/// walks must stop.
fn check_weighted_one_component(
    g: &Graph,
    seed: u64,
    picks: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(connected_components(g).1, 1);
    let stopped = check_weighted(g, seed, picks)?;
    let one_node = picks.iter().filter(|p| p.len() == 1).count();
    prop_assert!(
        one_node == 0 || stopped > 0,
        "none of {} weighted one-node walks stopped",
        one_node
    );
    Ok(())
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

    // One component of a few hundred nodes, where the kernel's walk
    // stops early for most one-node queries and the oracle's never does.
    #[test]
    fn stopped_walks_match_oracle_on_connected_sbm(
        seed in 0u64..10_000,
        p_out_permille in 2u32..20,
        picks in query_picks(),
    ) {
        let p_out = f64::from(p_out_permille) / 1000.0;
        let (g, _) = sbm::planted_partition(&[60, 50, 45, 40, 35, 30], 0.2, p_out, seed);
        check_one_component(&connected(&g), &picks)?;
    }

    #[test]
    fn stopped_walks_match_oracle_on_connected_lfr(seed in 0u64..10_000, picks in query_picks()) {
        let cfg = lfr::LfrConfig {
            n: 300,
            avg_degree: 20.0,
            max_degree: 60,
            min_community: 20,
            max_community: 60,
            seed,
            ..lfr::LfrConfig::default()
        };
        check_one_component(&connected(&lfr::generate(&cfg).graph), &picks)?;
    }

    // Weighted FPA with continuous weights: a zero `p_out` draw leaves
    // the SBM fragmented, the sparse LFR graphs often are.
    #[test]
    fn weighted_fpa_matches_oracle_on_sbm(
        seed in 0u64..10_000,
        p_out_permille in 0u32..30,
        picks in query_picks(),
    ) {
        let p_out = f64::from(p_out_permille) / 1000.0;
        let (g, _) = sbm::planted_partition(&[18, 14, 12, 9, 7], 0.35, p_out, seed);
        check_weighted(&g, seed, &picks)?;
    }

    #[test]
    fn weighted_fpa_matches_oracle_on_lfr(seed in 0u64..10_000, picks in query_picks()) {
        let cfg = lfr::LfrConfig {
            n: 120,
            avg_degree: 5.0,
            max_degree: 20,
            min_community: 8,
            max_community: 30,
            seed,
            ..lfr::LfrConfig::default()
        };
        check_weighted(&lfr::generate(&cfg).graph, seed, &picks)?;
    }

    #[test]
    fn weighted_stopped_walks_match_oracle_on_connected_sbm(
        seed in 0u64..10_000,
        p_out_permille in 2u32..20,
        picks in query_picks(),
    ) {
        let p_out = f64::from(p_out_permille) / 1000.0;
        let (g, _) = sbm::planted_partition(&[60, 50, 45, 40, 35, 30], 0.2, p_out, seed);
        check_weighted_one_component(&connected(&g), seed, &picks)?;
    }

    #[test]
    fn weighted_stopped_walks_match_oracle_on_connected_lfr(
        seed in 0u64..10_000,
        picks in query_picks(),
    ) {
        let cfg = lfr::LfrConfig {
            n: 300,
            avg_degree: 20.0,
            max_degree: 60,
            min_community: 20,
            max_community: 60,
            seed,
            ..lfr::LfrConfig::default()
        };
        check_weighted_one_component(&connected(&lfr::generate(&cfg).graph), seed, &picks)?;
    }
}
