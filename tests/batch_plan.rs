//! Every batch runs the one plan, and the plan never changes an answer.
//! A batch's responses equal what one canonical session (no component
//! memo, no compute mirror) answers for the same requests in submission
//! order, and its summary label says `+mirror` exactly when its worker
//! sessions served queries from the compute mirror.
//!
//! Random graphs on both lanes, stores under the identity and bfs
//! layouts, `fpa`, `nca`, `kc` and weighted `fpa`, 1 and 2 threads, and
//! a fresh engine for every batch, so no answer comes from an earlier
//! batch's cache.

use dmcs::engine::{AlgoSpec, Engine, QueryRequest, QueryResponse, Session};
use dmcs::graph::{Graph, GraphBuilder, GraphStore, LayoutPolicy, NodeId};
use proptest::prelude::*;

/// The random edges join nodes below `NODES`; node `ISOLATED` has no
/// edge, and `PAST` is one past the graph.
const NODES: NodeId = 14;
const ISOLATED: NodeId = NODES;
const PAST: NodeId = NODES + 1;

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

/// A fresh engine over `g` whose store keeps the `layout`.
fn engine(g: &Graph, layout: LayoutPolicy) -> Engine {
    let store = GraphStore::from_graph(g.clone());
    store.set_layout_policy(layout);
    Engine::new(store)
}

/// The density modularity's bits, when the search succeeded.
fn dm_bits(r: &QueryResponse) -> Option<u64> {
    r.result
        .as_ref()
        .ok()
        .map(|r| r.density_modularity.to_bits())
}

/// Batches of `spec` on `g` under `layout` against the reference.
fn check(
    g: &Graph,
    layout: LayoutPolicy,
    spec: &AlgoSpec,
    requests: &[QueryRequest],
) -> Result<(), TestCaseError> {
    for threads in [1, 2] {
        let engine = engine(g, layout);
        let report = engine.run_batch(spec, requests, threads).unwrap();
        let mut reference = Session::new(engine.snapshot(), spec)
            .unwrap()
            .without_mirror()
            .without_memo();
        let context = format!("{spec:?} {layout:?} threads {threads} on {g:?}");
        prop_assert_eq!(report.responses.len(), requests.len(), "{}", context);
        for (got, req) in report.responses.iter().zip(requests) {
            let want = reference.query(req).unwrap();
            prop_assert_eq!(&got.request, req, "{}", context);
            prop_assert_eq!(got.algo, want.algo, "{:?}: {}", req, context);
            prop_assert_eq!(&got.result, &want.result, "{:?}: {}", req, context);
            prop_assert_eq!(dm_bits(got), dm_bits(&want), "{:?}: {}", req, context);
        }
        prop_assert_eq!(
            report.plan.contains("+mirror"),
            report.mirror_served > 0,
            "plan {:?} with mirror_served {}: {}",
            report.plan,
            report.mirror_served,
            context
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batches_answer_like_the_reference_session_and_label_their_substrate(
        edges in proptest::collection::vec(edge_strategy(), 0..30),
        mut queries in proptest::collection::vec(query_strategy(), 1..10),
    ) {
        // A pair split across components, and an id past the graph.
        queries.extend([vec![0, ISOLATED], vec![PAST]]);
        let requests = QueryRequest::from_node_lists(&queries);
        for weighted in [false, true] {
            let g = graph(&edges, weighted);
            let specs = if weighted {
                vec![AlgoSpec::new("fpa").weighted()]
            } else {
                vec![AlgoSpec::new("fpa"), AlgoSpec::new("nca"), AlgoSpec::new("kc")]
            };
            for layout in [LayoutPolicy::Identity, LayoutPolicy::Bfs] {
                for spec in &specs {
                    check(&g, layout, spec, &requests)?;
                }
            }
        }
    }
}
