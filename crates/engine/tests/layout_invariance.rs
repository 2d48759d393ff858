//! Layout must be invisible: a store configured with the bfs compute
//! mirror answers every query with **byte-identical** response JSON to
//! the identity-layout store — same communities, same DM, same errors,
//! same external node ids — for every registered algorithm, at every
//! thread count, with planning on and off, across random update
//! interleavings. Under `--plan auto` every query of a mirror-safe,
//! unweighted spec *executes on the permuted mirror*, multi-node and
//! out-of-range ones included (the canonical tie-break shim keeps every
//! byte identical; plan `off` and other specs stay on the canonical
//! external-id CSR), so this test pins down both halves of the
//! contract: the bytes never move, and the mirror really serves.

use dmcs_engine::output::response_json;
use dmcs_engine::registry::{self, AlgoSpec};
use dmcs_engine::{BatchRunner, PlanMode, QueryRequest};
use dmcs_gen::{lfr, sbm};
use dmcs_graph::{Graph, GraphStore, LayoutPolicy, NodeId, Snapshot};
use proptest::prelude::*;

/// Render a report's responses as JSON with the timing field zeroed —
/// `seconds` is the only legitimately nondeterministic member.
fn canonical_lines(report: &dmcs_engine::BatchReport) -> Vec<String> {
    report
        .responses
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.seconds = 0.0;
            response_json(&r, None).render()
        })
        .collect()
}

/// Deterministic update interleaving derived from `seed`: a mix of edge
/// inserts (possibly re-connecting components), deletes and fresh
/// nodes, applied identically to every store under test.
fn apply_updates(store: &GraphStore, seed: u64, rounds: usize) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound.max(1)
    };
    for _ in 0..rounds {
        let n = store.n() as u64;
        let u = next(n) as NodeId;
        let v = next(n) as NodeId;
        match next(4) {
            0 => {
                store.remove_edge(u, v);
            }
            3 => {
                store.add_node();
            }
            _ => {
                if u != v {
                    store.insert_edge(u, v);
                }
            }
        }
    }
}

/// The property: the bfs layout serves the same bytes as identity, for
/// each algorithm, at 1/2/4 threads, with planning on and off.
fn assert_layouts_invisible(g: &Graph, seed: u64, specs: &[AlgoSpec], queries: &[Vec<NodeId>]) {
    let requests = QueryRequest::from_node_lists(queries);
    let snapshots: Vec<(LayoutPolicy, Snapshot)> = LayoutPolicy::ALL
        .iter()
        .map(|&policy| {
            let store = GraphStore::from_graph(g.clone()).with_layout(policy);
            apply_updates(&store, seed, 12);
            let snap = store.snapshot();
            assert_eq!(
                snap.layout_policy(),
                policy,
                "snapshot carries its store's policy"
            );
            assert_eq!(
                snap.compute().is_some(),
                policy != LayoutPolicy::Identity,
                "mirror built exactly for non-identity policies"
            );
            (policy, snap)
        })
        .collect();

    for spec in specs {
        for threads in [1usize, 2, 4] {
            for plan in [PlanMode::Auto, PlanMode::Off] {
                let mut baseline: Option<Vec<String>> = None;
                for (policy, snap) in &snapshots {
                    let report = BatchRunner::new(spec.clone(), threads)
                        .expect("registered algorithm")
                        .with_plan(plan)
                        .run(snap, &requests)
                        .expect("batch runs");
                    let lines = canonical_lines(&report);
                    match &baseline {
                        None => baseline = Some(lines),
                        Some(expect) => assert_eq!(
                            expect, &lines,
                            "{}: layout {policy} changed response bytes \
                             ({threads} threads, plan {plan})",
                            spec.name
                        ),
                    }
                    // The mirror must actually serve: every plan-auto
                    // run on a mirrored snapshot of a mirror-safe
                    // algorithm executes every query there; plan off and
                    // identity layouts never mirror.
                    let mirror_safe = registry::find(&spec.name)
                        .is_some_and(|e| e.mirror_safe && !spec.params.weighted);
                    if plan == PlanMode::Auto && snap.compute().is_some() && mirror_safe {
                        assert_eq!(
                            report.mirror_served, report.unique_queries as u64,
                            "{}: layout {policy} must mirror-serve every \
                             executed query ({threads} threads)",
                            spec.name
                        );
                    } else {
                        assert_eq!(
                            report.mirror_served, 0,
                            "{}: layout {policy} plan {plan} must not mirror",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}

/// Queries covering every component: each node alone plus a few
/// multi-node queries (same-component and cross-component — the latter
/// must fail identically everywhere), and ids past the end of the
/// graph, which must fail identically too.
fn query_mix(g: &Graph) -> Vec<Vec<NodeId>> {
    let n = g.n() as NodeId;
    let mut queries: Vec<Vec<NodeId>> = (0..n).step_by(3).map(|v| vec![v]).collect();
    if n >= 8 {
        queries.push(vec![0, 1]);
        queries.push(vec![0, n - 1]);
        queries.push(vec![n / 2, n / 2 + 1]);
    }
    queries.push(vec![n + 3]);
    queries.push(vec![0, n + 3]);
    queries
}

/// Exponential exact solvers only on graphs they can enumerate.
fn specs_for(n_nodes: usize) -> Vec<AlgoSpec> {
    registry::names()
        .into_iter()
        .filter(|name| n_nodes <= 16 || !matches!(*name, "exact" | "bnb"))
        .map(AlgoSpec::new)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Fragmented SBM (isolated blocks) — layout reorders aggressively
    // (components become contiguous under bfs) and grouping kicks
    // in; the polynomial algorithms must not notice.
    #[test]
    fn layouts_invisible_on_fragmented_sbm(seed in 0u64..1000) {
        let (g, _) = sbm::planted_partition(&[9, 8, 7], 0.7, 0.0, seed);
        let specs = specs_for(g.n());
        assert_layouts_invisible(&g, seed, &specs, &query_mix(&g));
    }

    // Small dense SBM: every algorithm, including the exact solvers.
    #[test]
    fn layouts_invisible_for_every_algorithm(seed in 0u64..1000) {
        let (g, _) = sbm::planted_partition(&[7, 7], 0.7, 0.1, seed);
        let specs = specs_for(g.n());
        assert_layouts_invisible(&g, seed, &specs, &query_mix(&g));
    }

    // LFR with a hub-heavy degree sequence: updates splinter and regrow
    // components.
    #[test]
    fn layouts_invisible_on_lfr(seed in 0u64..1000) {
        let cfg = lfr::LfrConfig {
            n: 48,
            avg_degree: 5.0,
            max_degree: 16,
            min_community: 8,
            max_community: 20,
            seed,
            ..lfr::LfrConfig::default()
        };
        let g = lfr::generate(&cfg).graph;
        let specs = specs_for(g.n());
        assert_layouts_invisible(&g, seed, &specs, &query_mix(&g));
    }
}
