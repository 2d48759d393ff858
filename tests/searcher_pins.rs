//! Pinned outcomes of every registered searcher: the query checks each
//! one runs before it searches, and the tuned Figure 3 kernels' answers
//! on a barbell. Both tables hold exact errors, communities and DM bits,
//! so a refactor of the shared query checks or the kernels that moves
//! any of them fails here.

use dmcs::core::{CommunitySearch, Fpa, FpaDmg, Nca, NcaDr};
use dmcs::engine::registry::{self, AlgoSpec};
use dmcs::graph::view::QueryWorkspace;
use dmcs::graph::{Graph, GraphBuilder, NodeId};

const EMPTY: &str = "EmptyQuery";
const OUT: &str = "Graph(NodeOutOfRange(10))";
const SPLIT: &str = "Graph(QueryDisconnected)";
const KT_ONE: &str =
    "Graph(NoFeasibleSolution(\"the k-truss community model supports a single query node\"))";
const CLIQUE_ONE: &str =
    "Graph(NoFeasibleSolution(\"clique percolation supports a single query node\"))";

/// The queries of [`PINNED`], in column order.
const QUERIES: [&[NodeId]; 5] = [&[], &[10], &[0, 10], &[10, 0], &[0, 5]];

/// Per label, at default params, the outcome of each of [`QUERIES`] on
/// [`two_cliques`]: the `SearchError`'s `Debug` form, or the community
/// and the bits of its density modularity.
const PINNED: [(&str, [&str; 5]); 21] = [
    ("fpa", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("nca", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("fpa-dmg", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("nca-dr", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("exact", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("bnb", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("kc", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("kt", [EMPTY, OUT, KT_ONE, KT_ONE, KT_ONE]),
    ("kecc", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("highcore", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("hightruss", [EMPTY, OUT, KT_ONE, KT_ONE, KT_ONE]),
    ("ls", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("huang2015", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("wu2015", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("clique", [EMPTY, OUT, CLIQUE_ONE, CLIQUE_ONE, CLIQUE_ONE]),
    ("cnm", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("gn", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("icwi2008", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("lpa", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("louvain", [EMPTY, OUT, OUT, OUT, SPLIT]),
    ("ppr", [EMPTY, OUT, OUT, OUT, SPLIT]),
];

/// Two disjoint 5-cliques: nodes 0–4 and 5–9.
fn two_cliques() -> Graph {
    let mut edges = Vec::new();
    for base in [0u32, 5] {
        for u in base..base + 5 {
            for v in u + 1..base + 5 {
                edges.push((u, v));
            }
        }
    }
    GraphBuilder::from_edges(10, &edges)
}

fn outcome(algo: &dyn CommunitySearch, g: &Graph, query: &[NodeId]) -> String {
    let plain = algo.search(g, query);
    let pooled = algo.search_with_workspace(g, query, &mut QueryWorkspace::new());
    assert_eq!(
        plain,
        pooled,
        "{} {query:?}: workspace path differs",
        algo.name()
    );
    match plain {
        Ok(r) => format!(
            "Ok({:?}, {:#018x})",
            r.community,
            r.density_modularity.to_bits()
        ),
        Err(e) => format!("{e:?}"),
    }
}

#[test]
fn every_label_keeps_its_query_check_outcomes() {
    let g = two_cliques();
    for (label, expected) in PINNED {
        assert!(registry::find(label).is_some(), "{label} is registered");
        let algo = AlgoSpec::new(label).build().unwrap();
        for (query, want) in QUERIES.iter().zip(expected) {
            assert_eq!(outcome(algo.as_ref(), &g, query), want, "{label} {query:?}");
        }
    }
}

#[test]
fn tuned_figure3_kernels_keep_their_barbell_answers() {
    // Two triangles joined by the bridge 2-3: every kernel keeps the
    // query's triangle, whose DM is (3 - 7²/28) / 3.
    let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
    let kernels: [&dyn CommunitySearch; 4] =
        [&Nca::default(), &NcaDr, &FpaDmg, &Fpa::without_pruning()];
    let triangle = 0x3fdaaaaaaaaaaaaa_u64;
    for q in 0..6u32 {
        let side = if q < 3 { "[0, 1, 2]" } else { "[3, 4, 5]" };
        for algo in kernels {
            assert_eq!(
                outcome(algo, &g, &[q]),
                format!("Ok({side}, {triangle:#018x})"),
                "{} query {q}",
                algo.name()
            );
        }
    }
}
