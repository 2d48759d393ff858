//! The engine's central correctness property: for **every registered
//! algorithm**, `BatchRunner` at any thread count returns bit-identical
//! outcomes (same community ids, same order, same DM, same errors) to
//! sequential execution — on SBM and LFR graphs alike. This pins down
//! both the deterministic result re-ordering of the fan-out and the
//! behavioural equivalence of workspace-reusing search paths.

use dmcs_engine::registry::{self, AlgoSpec};
use dmcs_engine::{BatchRunner, QueryRequest};
use dmcs_gen::{lfr, sbm};
use dmcs_graph::{Graph, NodeId, Snapshot};
use proptest::prelude::*;

/// Compare a multi-threaded batch against the single-threaded reference
/// for one algorithm, on every thread count worth distinguishing.
fn assert_batch_deterministic(spec: &AlgoSpec, g: &Graph, queries: &[Vec<NodeId>]) {
    let snap = Snapshot::freeze(g.clone());
    let requests = QueryRequest::from_node_lists(queries);
    let reference = BatchRunner::new(spec.clone(), 1)
        .expect("registered algorithm")
        .run(&snap, &requests)
        .expect("batch runs");
    for threads in [2usize, 4] {
        let parallel = BatchRunner::new(spec.clone(), threads)
            .expect("registered algorithm")
            .run(&snap, &requests)
            .expect("batch runs");
        assert_eq!(reference.responses.len(), parallel.responses.len());
        for (i, (s, p)) in reference
            .responses
            .iter()
            .zip(&parallel.responses)
            .enumerate()
        {
            assert_eq!(
                s.request.nodes, p.request.nodes,
                "{}: query {i} reordered",
                spec.name
            );
            assert_eq!(
                s.result, p.result,
                "{}: query {i} differs at {threads} threads",
                spec.name
            );
        }
    }
}

/// The exponential-time exact solvers stay on graphs small enough to
/// enumerate; everything else runs everywhere.
fn specs_for(n_nodes: usize) -> Vec<AlgoSpec> {
    registry::names()
        .into_iter()
        .filter(|name| n_nodes <= 16 || !matches!(*name, "exact" | "bnb"))
        .map(AlgoSpec::new)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Small SBM: every algorithm, including the exact solvers.
    #[test]
    fn all_algorithms_deterministic_on_sbm(seed in 0u64..1000, p_in_pct in 50u32..80) {
        let (g, comms) = sbm::planted_partition(&[7, 7], p_in_pct as f64 / 100.0, 0.15, seed);
        let queries: Vec<Vec<NodeId>> = (0..g.n() as NodeId).map(|v| vec![v]).collect();
        // Plus one multi-node query per block (exercises Steiner seeds
        // and the kt single-query error path identically on both sides).
        let mut queries = queries;
        for c in &comms {
            queries.push(vec![c[0], c[c.len() / 2]]);
        }
        for spec in specs_for(g.n()) {
            assert_batch_deterministic(&spec, &g, &queries);
        }
    }

    // Larger LFR: the polynomial algorithms.
    #[test]
    fn all_algorithms_deterministic_on_lfr(seed in 0u64..1000) {
        let cfg = lfr::LfrConfig {
            n: 60,
            avg_degree: 6.0,
            max_degree: 20,
            min_community: 10,
            max_community: 25,
            seed,
            ..lfr::LfrConfig::default()
        };
        let g = lfr::generate(&cfg).graph;
        let queries: Vec<Vec<NodeId>> =
            (0..g.n() as NodeId).step_by(5).map(|v| vec![v]).collect();
        for spec in specs_for(g.n()) {
            assert_batch_deterministic(&spec, &g, &queries);
        }
    }
}
