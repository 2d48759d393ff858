//! Served answers keep only what a reply renders. `Session::query`
//! (behind a single `--query`, batches, `--updates` and the daemon) and
//! `Session::top_k` answer and cache the community, its density
//! modularity and the iteration count with an empty removal order, so a
//! cache hit equals the miss that stored it field for field.
//! `Session::search` still returns the kernel's whole answer, its
//! removal order translated from the bfs mirror back to external ids.
//!
//! Random graphs on both lanes, stores under the identity and bfs
//! layouts, FPA and NCA, and 1–3-node queries that always include a
//! pair split across components and an id past the graph.

use dmcs::core::topk::{top_k_communities_with, TopKConfig};
use dmcs::core::{SearchError, SearchResult};
use dmcs::engine::{AlgoSpec, Engine, QueryRequest, QueryResponse, Session};
use dmcs::graph::view::QueryWorkspace;
use dmcs::graph::{Graph, GraphBuilder, GraphStore, LayoutPolicy, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The random edges join nodes below `NODES`; node `ISOLATED` has no
/// edge, and `PAST` is one past the graph.
const NODES: NodeId = 12;
const ISOLATED: NodeId = NODES;
const PAST: NodeId = NODES + 1;

/// Rounds of the top-k enumerations.
const K: usize = 3;

fn edge_strategy() -> impl Strategy<Value = (NodeId, NodeId)> {
    (0..NODES).prop_flat_map(|u| (0..NODES).prop_map(move |v| (u, v)))
}

/// One to three nodes, the isolated node and the id past the graph
/// included.
fn query_strategy() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(0..=PAST, 1..4)
}

/// `edges` on `NODES + 1` nodes; with a weights lane, edge `i` weighs
/// `0.5 * (1 + i % 4)`. Self-loops are dropped.
fn graph(edges: &[(NodeId, NodeId)], weighted: bool) -> Graph {
    let n = ISOLATED as usize + 1;
    if !weighted {
        return GraphBuilder::from_edges(n, edges);
    }
    let mut b = GraphBuilder::weighted(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        b.add_weighted_edge(u, v, 0.5 * (1 + i % 4) as f64);
    }
    b.build()
}

/// An engine over `g` whose store keeps the `layout`.
fn engine(g: &Graph, layout: LayoutPolicy) -> Engine {
    let store = GraphStore::from_graph(g.clone());
    store.set_layout_policy(layout);
    Engine::new(store)
}

/// What a reply renders of an answer: community, DM bits and
/// iterations, or the error.
type Rendered = Result<(Vec<NodeId>, u64, usize), SearchError>;

fn rendered(r: Result<&SearchResult, &SearchError>) -> Rendered {
    r.map(|r| {
        let dm = r.density_modularity.to_bits();
        (r.community.clone(), dm, r.iterations)
    })
    .map_err(Clone::clone)
}

/// [`rendered`] for each round of a top-k enumeration.
fn rendered_rounds(rounds: &Result<Vec<SearchResult>, SearchError>) -> Vec<Rendered> {
    match rounds {
        Ok(rounds) => rounds.iter().map(|r| rendered(Ok(r))).collect(),
        Err(e) => vec![Err(e.clone())],
    }
}

/// Every served answer of `spec` on `g` under `layout`, for `queries`,
/// against the kernel's own answers.
fn check(
    g: &Graph,
    layout: LayoutPolicy,
    spec: &AlgoSpec,
    queries: &[Vec<NodeId>],
) -> Result<(), TestCaseError> {
    let served_engine = engine(g, layout);
    let mut served = served_engine.session(spec).unwrap();
    let mut full = Session::new(served_engine.snapshot(), spec).unwrap();
    let kernel = spec.build().unwrap();
    let cfg = TopKConfig {
        k: K,
        ..TopKConfig::default()
    };
    let mut seen = BTreeSet::new();
    let mut answers = Vec::new();
    for q in queries {
        let context = format!("{spec:?} {layout:?} query {q:?} on {g:?}");
        let req = QueryRequest::new(q.clone());
        let miss = served.query(&req).unwrap();
        let mut set = q.clone();
        set.sort_unstable();
        if seen.insert(set) {
            prop_assert!(!miss.cached, "{}", context);
            let hit = served.query(&req).unwrap();
            let want = QueryResponse {
                cached: true,
                ..miss.clone()
            };
            prop_assert_eq!(&hit, &want, "a hit equals its miss: {}", context);
        }
        if let Ok(r) = &miss.result {
            prop_assert!(r.removal_order.is_empty(), "served order: {}", context);
        }

        // The library path keeps the whole answer, on the mirror too.
        let whole = kernel.search(g, q);
        prop_assert_eq!(&full.search(q), &whole, "{}", context);
        let want = rendered(whole.as_ref());
        prop_assert_eq!(rendered(miss.result.as_ref()), want, "{}", context);

        let outcome = served.top_k(q, K);
        let mut tracker = QueryWorkspace::new();
        let rounds = top_k_communities_with(
            g,
            q,
            cfg,
            kernel.as_ref(),
            spec.params.weighted,
            &mut tracker,
        );
        let orders = outcome.rounds.iter().flatten().map(|r| &r.removal_order);
        prop_assert!(
            orders.into_iter().all(Vec::is_empty),
            "top-k orders: {}",
            context
        );
        prop_assert_eq!(
            rendered_rounds(&outcome.rounds),
            rendered_rounds(&rounds),
            "top-k: {}",
            context
        );
        answers.push(miss.result);
    }
    if served_engine.snapshot().compute().is_some() && !spec.params.weighted {
        prop_assert_eq!(full.mirror_served(), queries.len() as u64);
    }

    // A batch on a fresh engine computes what the session served, at
    // either thread count.
    let requests = QueryRequest::from_node_lists(queries);
    for threads in [1, 2] {
        let report = engine(g, layout)
            .run_batch(spec, &requests, threads)
            .unwrap();
        let got: Vec<_> = report.responses.into_iter().map(|r| r.result).collect();
        prop_assert_eq!(
            &got,
            &answers,
            "{:?} {:?} threads {}",
            spec,
            layout,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn served_answers_drop_only_the_removal_order(
        edges in proptest::collection::vec(edge_strategy(), 0..30),
        mut queries in proptest::collection::vec(query_strategy(), 1..8),
    ) {
        // A pair split across components, and an id past the graph.
        queries.extend([vec![0, ISOLATED], vec![PAST], vec![PAST, 0]]);
        for weighted in [false, true] {
            let g = graph(&edges, weighted);
            for layout in [LayoutPolicy::Identity, LayoutPolicy::Bfs] {
                for name in ["fpa", "nca"] {
                    let spec = if weighted {
                        AlgoSpec::new(name).weighted()
                    } else {
                        AlgoSpec::new(name)
                    };
                    check(&g, layout, &spec, &queries)?;
                }
            }
        }
    }
}
