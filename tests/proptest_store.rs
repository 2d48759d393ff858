//! Property: applying a random interleaving of edge inserts, edge
//! removals and node additions to a [`GraphStore`] and snapshotting is
//! indistinguishable from building the final edge set from scratch with
//! [`GraphBuilder`] — and the mutation version is monotone, bumping
//! exactly on effective mutations. The same interleaving with
//! interleaved snapshot reads, which fold the store's overlay of changed
//! rows into a fresh CSR, agrees too — including *sharded* stores, whose
//! per-shard version vector must bump exactly on the effective ops
//! touching each shard (cross-shard edges dirty both endpoint shards).
//! The weighted variant drives weighted inserts / removals /
//! `set_weight` through a weighted store and compares against a
//! from-scratch [`WeightedGraphBuilder`] build, pinning down that
//! weight-only updates bump the version exactly when the stored weight
//! changes. Finally, an [`Engine`] over a sharded store answers random
//! query / update / re-pin transcripts, and every answer, cache hits
//! included, must equal a cache-less session's on the pinned edge set,
//! DM bits included: for FPA and NCA on both weightings and for FPA
//! top-k, on a base of three components, on one that is a single
//! component, so FPA's stopped layered walks feed the cache too, and on
//! a weighted store whose updates include `setw`. Fixed cases pin what
//! an answer covers: the nodes a multi-node query's stopped Steiner
//! walk and layered walk found, and nothing else; w_G beside m for a
//! weighted answer; and the query's component for NCA and top-k on a
//! mirrored store.

use dmcs::core::{SearchError, SearchResult};
use dmcs::engine::{AlgoSpec, Engine, QueryRequest, Session};
use dmcs::graph::weighted::WeightedGraphBuilder;
use dmcs::graph::{Graph, GraphBuilder, GraphStore, LayoutPolicy, NodeId, Snapshot};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One scripted mutation. Node ids are drawn a little beyond the
/// initial node count so out-of-range rejections (and later, post-grow
/// acceptances of the same id) are exercised.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(NodeId, NodeId),
    Remove(NodeId, NodeId),
    AddNode,
}

fn op_strategy(id_bound: u32) -> impl Strategy<Value = Op> {
    // The vendored proptest shim has no tuple strategies or prop_oneof;
    // chain flat_maps: kind 0-3 insert, 4-6 remove, 7 add-node.
    (0u8..8).prop_flat_map(move |kind| {
        (0..id_bound).prop_flat_map(move |u| {
            (0..id_bound).prop_map(move |v| match kind {
                0..=3 => Op::Insert(u, v),
                4..=6 => Op::Remove(u, v),
                _ => Op::AddNode,
            })
        })
    })
}

/// Reference model: the node count plus the normalized edge set.
#[derive(Debug, Default, Clone)]
struct Model {
    n: usize,
    edges: BTreeSet<(NodeId, NodeId)>,
}

impl Model {
    fn apply(&mut self, op: Op) -> bool {
        match op {
            Op::Insert(u, v) => {
                if u == v || u as usize >= self.n || v as usize >= self.n {
                    return false;
                }
                self.edges.insert((u.min(v), u.max(v)))
            }
            Op::Remove(u, v) => {
                if u as usize >= self.n || v as usize >= self.n {
                    return false;
                }
                self.edges.remove(&(u.min(v), u.max(v)))
            }
            Op::AddNode => {
                self.n += 1;
                true
            }
        }
    }

    fn build(&self) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = self.edges.iter().copied().collect();
        GraphBuilder::from_edges(self.n, &edges)
    }
}

/// One step of a serving transcript: a store mutation, a 1- or 2-node
/// query on the pinned session, or a re-pin.
#[derive(Debug, Clone)]
enum Step {
    Mutate(WOp),
    Query(Vec<NodeId>),
    Repin,
}

fn step_strategy(id_bound: u32) -> impl Strategy<Value = Step> {
    // kind 0-1 mutate (through `wop_strategy`), 2-3 query, 4 re-pin; a
    // second node drawn at or past `id_bound` (3 times in 4) makes a
    // 1-node query, so repeats, and with them cache hits, are common.
    (0u8..5).prop_flat_map(move |kind| {
        wop_strategy(id_bound).prop_flat_map(move |op| {
            (0..id_bound).prop_flat_map(move |a| {
                (0..4 * id_bound).prop_map(move |b| match kind {
                    0..=1 => Step::Mutate(op),
                    2..=3 if b < id_bound => Step::Query(vec![a, b]),
                    2..=3 => Step::Query(vec![a]),
                    _ => Step::Repin,
                })
            })
        })
    })
}

fn assert_same_graph(got: &Graph, want: &Graph) {
    assert_eq!(got.n(), want.n(), "node counts diverge");
    assert_eq!(got.m(), want.m(), "edge counts diverge");
    for v in 0..want.n() as NodeId {
        assert_eq!(got.neighbors(v), want.neighbors(v), "adjacency of {v}");
    }
}

/// One scripted *weighted* mutation. Weights are quantised to multiples
/// of 0.5 in (0, 3.5] so equality comparisons are exact.
#[derive(Debug, Clone, Copy)]
enum WOp {
    InsertW(NodeId, NodeId, f64),
    Remove(NodeId, NodeId),
    SetW(NodeId, NodeId, f64),
    AddNode,
}

fn wop_strategy(id_bound: u32) -> impl Strategy<Value = WOp> {
    // Same chained flat_map idiom as `op_strategy` (the vendored
    // proptest shim has no tuple strategies): kind 0-3 weighted insert,
    // 4-5 remove, 6 set-weight, 7 add-node.
    (0u8..8).prop_flat_map(move |kind| {
        (0..id_bound).prop_flat_map(move |u| {
            (0..id_bound).prop_flat_map(move |v| {
                (1u32..8).prop_map(move |wq| {
                    let w = wq as f64 * 0.5;
                    match kind {
                        0..=3 => WOp::InsertW(u, v, w),
                        4..=5 => WOp::Remove(u, v),
                        6 => WOp::SetW(u, v, w),
                        _ => WOp::AddNode,
                    }
                })
            })
        })
    })
}

/// Weighted reference model: node count + normalized edge -> weight map.
#[derive(Debug, Default, Clone)]
struct WModel {
    n: usize,
    edges: BTreeMap<(NodeId, NodeId), f64>,
}

impl WModel {
    /// Apply `op`; returns whether it was an effective mutation.
    fn apply(&mut self, op: WOp) -> bool {
        match op {
            WOp::InsertW(u, v, w) => {
                if u == v || u as usize >= self.n || v as usize >= self.n {
                    return false;
                }
                let key = (u.min(v), u.max(v));
                if self.edges.contains_key(&key) {
                    return false;
                }
                self.edges.insert(key, w);
                true
            }
            WOp::Remove(u, v) => {
                if u as usize >= self.n || v as usize >= self.n {
                    return false;
                }
                self.edges.remove(&(u.min(v), u.max(v))).is_some()
            }
            WOp::SetW(u, v, w) => {
                if u as usize >= self.n || v as usize >= self.n {
                    return false;
                }
                match self.edges.get_mut(&(u.min(v), u.max(v))) {
                    Some(old) if *old != w => {
                        *old = w;
                        true
                    }
                    _ => false,
                }
            }
            WOp::AddNode => {
                self.n += 1;
                true
            }
        }
    }

    fn build(&self) -> Graph {
        let mut b = WeightedGraphBuilder::new(self.n);
        for (&(u, v), &w) in &self.edges {
            b.add_edge(u, v, w);
        }
        let g = b.build().into_graph();
        // WeightedGraphBuilder grows to the max edge endpoint; isolated
        // trailing nodes exist only in the model's count.
        assert!(g.n() <= self.n);
        g
    }

    /// The graph, with its weights when `weighted`, laneless otherwise.
    fn graph(&self, weighted: bool) -> Graph {
        if weighted {
            return self.build();
        }
        let edges: Vec<(NodeId, NodeId)> = self.edges.keys().copied().collect();
        GraphBuilder::from_edges(self.n, &edges)
    }
}

fn assert_same_weighted_graph(got: &Graph, model: &WModel) {
    let want = model.build();
    assert_eq!(got.n(), model.n, "node counts diverge");
    assert_eq!(got.m(), want.m(), "edge counts diverge");
    assert!(got.is_weighted(), "snapshot must carry the lane");
    for (&(u, v), &w) in &model.edges {
        assert_eq!(got.edge_weight(u, v), Some(w), "weight of ({u},{v})");
    }
    let total: f64 = model.edges.values().sum();
    assert!(
        (got.total_weight() - total).abs() < 1e-9,
        "total weight {} vs model {total}",
        got.total_weight()
    );
    // A rebuild carries strengths forward and sums only changed rows;
    // both must still match the builder's derivation bit for bit.
    for v in 0..want.n() as NodeId {
        assert_eq!(
            got.strength(v).to_bits(),
            want.strength(v).to_bits(),
            "strength of {v}"
        );
    }
    assert_eq!(
        got.total_weight().to_bits(),
        want.total_weight().to_bits(),
        "total weight bits"
    );
}

/// One answer as the transcripts compare it: every round (exactly one
/// for a single query), or the error.
type Rounds = Result<Vec<SearchResult>, SearchError>;

/// Ask `session` for `nodes`: a single query when `k` is 0, a top-`k`
/// enumeration otherwise. Returns the answer and whether it was cached.
fn ask(session: &mut Session, nodes: &[NodeId], k: usize) -> (Rounds, bool) {
    if k == 0 {
        let resp = session.query(&QueryRequest::new(nodes.to_vec())).unwrap();
        (resp.result.map(|r| vec![r]), resp.cached)
    } else {
        let outcome = session.top_k(nodes, k);
        (outcome.rounds, outcome.cached)
    }
}

/// The density-modularity bits of every round.
fn dm_bits(rounds: &Rounds) -> Vec<u64> {
    rounds
        .iter()
        .flatten()
        .map(|r| r.density_modularity.to_bits())
        .collect()
}

/// Drive `steps` through a cached engine over a 3-shard store seeded
/// with `base` (carrying its weights when `weighted`, laneless
/// otherwise), asking every query of `spec` (a top-`k` enumeration when
/// `k > 0`), and require every answer, cache hits included, to equal a
/// cache-less session's on the pinned edge set, DM bits included.
fn check_cached_transcript(
    base: &WModel,
    weighted: bool,
    spec: &AlgoSpec,
    k: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let engine = Engine::new(GraphStore::from_graph_sharded(base.graph(weighted), 3));
    let mut live = base.clone();
    let mut pinned = live.clone();
    let mut session = engine.session(spec).unwrap();

    for step in steps {
        match step {
            Step::Mutate(op) => {
                // A laneless store refuses every `setw`.
                let effective = (weighted || !matches!(op, WOp::SetW(..))) && live.apply(*op);
                let changed = match *op {
                    WOp::InsertW(u, v, w) if weighted => engine.insert_edge_w(u, v, w),
                    WOp::InsertW(u, v, _) => engine.insert_edge(u, v),
                    WOp::Remove(u, v) => engine.remove_edge(u, v),
                    WOp::SetW(u, v, w) => {
                        matches!(engine.set_weight(u, v, w), Some(old) if old != w)
                    }
                    WOp::AddNode => {
                        engine.add_node();
                        true
                    }
                };
                prop_assert_eq!(changed, effective, "effectiveness of {:?}", op);
            }
            Step::Repin => {
                if session.snapshot().version() != engine.version() {
                    session = engine.session(spec).unwrap();
                    pinned = live.clone();
                }
            }
            Step::Query(nodes) => {
                let (got, cached) = ask(&mut session, nodes, k);
                let mut reference =
                    Session::new(Snapshot::freeze(pinned.graph(weighted)), spec).unwrap();
                let (want, _) = ask(&mut reference, nodes, k);
                let context = format!(
                    "{spec:?} k={k} query {nodes:?} (cached: {cached}) on base {base:?} after {steps:?}"
                );
                prop_assert_eq!(&got, &want, "{}", context);
                prop_assert_eq!(dm_bits(&got), dm_bits(&want), "{}", context);
            }
        }
    }
    Ok(())
}

/// A multi-node query's Steiner seed reads distances across everything
/// its BFS visited, so a cached answer must pin those shards, not only
/// the shards of the nodes FPA's stopped layered walk discovered. From
/// the seed 10..16 the walk stops one layer out, at {0, 20, 100..129},
/// short of 60..62 (shard 4 of 16). The edge 60–61 then opens a second
/// shortest 10–16 path, through 0, 24, 61, 60 and 20, which the seed
/// takes, and removing 200–201 keeps m unchanged.
#[test]
fn multi_node_hits_pin_the_shards_the_steiner_walk_read() {
    let mut edges: Vec<(NodeId, NodeId)> = (10..16).map(|v| (v, v + 1)).collect();
    edges.extend([
        (16, 0),
        (10, 20),
        (20, 60),
        (60, 62),
        (62, 61),
        (61, 24),
        (24, 0),
    ]);
    for u in 100..130 {
        edges.extend(((u + 1)..130).map(|v| (u, v)));
        edges.push((u, 13));
    }
    edges.push((200, 201));
    let store = GraphStore::from_graph_sharded(GraphBuilder::from_edges(202, &edges), 16);
    let engine = Engine::new(store);
    let spec = AlgoSpec::new("fpa");
    let req = QueryRequest::new(vec![10, 16]);
    let first = engine.session(&spec).unwrap().query(&req).unwrap();
    let path: Vec<NodeId> = (10..=16).collect();
    assert_eq!(first.result.unwrap().community, path);

    assert!(engine.insert_edge(60, 61));
    assert!(engine.remove_edge(200, 201));
    edges.retain(|&e| e != (200, 201));
    edges.push((60, 61));
    let got = engine.session(&spec).unwrap().query(&req).unwrap();
    let reference = Session::new(
        Snapshot::freeze(GraphBuilder::from_edges(202, &edges)),
        &spec,
    )
    .unwrap()
    .query(&req)
    .unwrap();
    assert_eq!(got.result, reference.result, "cached: {}", got.cached);
    assert_eq!(
        got.result.unwrap().community,
        vec![0, 10, 16, 20, 24, 60, 61, 62]
    );
}

/// A multi-node answer pins only what its walks found. The clique 0..8
/// leads a path 7, 8, …, 63 in a 16-shard store (4 nodes per shard).
/// For the query [0, 1] the Steiner walk stops one hop out, at 0..8,
/// and the layered walk from the seed {0, 1} stops after closing the
/// layer {8}, having found 0..10: shards 0 to 2. Swapping the edge
/// 40–41 for 40–42 keeps m and the component and touches shard 10 only,
/// so the repeat is a hit, equal to a cache-less search on the new
/// graph, DM bits included.
#[test]
fn multi_node_hits_survive_updates_outside_both_walks() {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for u in 0..8 {
        edges.extend(((u + 1)..8).map(|v| (u, v)));
    }
    edges.extend((7..63).map(|v| (v, v + 1)));
    let engine = Engine::new(GraphStore::from_graph_sharded(
        GraphBuilder::from_edges(64, &edges),
        16,
    ));
    let spec = AlgoSpec::new("fpa");
    let req = QueryRequest::new(vec![0, 1]);
    let first = engine.session(&spec).unwrap().query(&req).unwrap();
    assert!(!first.cached);
    assert_eq!(first.result.unwrap().community, (0..8).collect::<Vec<_>>());

    assert!(engine.remove_edge(40, 41));
    assert!(engine.insert_edge(40, 42));
    edges.retain(|&e| e != (40, 41));
    edges.push((40, 42));
    let got = engine.session(&spec).unwrap().query(&req).unwrap();
    let reference = Session::new(
        Snapshot::freeze(GraphBuilder::from_edges(64, &edges)),
        &spec,
    )
    .unwrap()
    .query(&req)
    .unwrap();
    assert!(
        got.cached,
        "the update is outside both walks: the repeat must hit"
    );
    let (got, want) = (got.result.unwrap(), reference.result.unwrap());
    assert_eq!(got, want);
    assert_eq!(
        got.density_modularity.to_bits(),
        want.density_modularity.to_bits()
    );
}

/// A multi-node answer also pins what its layered walk found past the
/// Steiner walk. For the query [0, 1] on the edges 0–1, 0–2 and 1–8..12
/// in a 64-node, 16-shard store, the Steiner walk stops at {0, 1, 2} in
/// shard 0, while the layered walk from the seed {0, 1} reads the rows
/// of 8..12 in shard 2. Joining 8..12 into a clique, and removing as
/// many edges from the far clique 40..48 to keep m, changes the answer:
/// the repeat must miss and equal a cache-less search.
#[test]
fn multi_node_hits_pin_the_shards_the_layered_walk_read() {
    let mut edges: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 2), (1, 8), (1, 9), (1, 10), (1, 11)];
    for u in 40..48 {
        edges.extend(((u + 1)..48).map(|v| (u, v)));
    }
    let engine = Engine::new(GraphStore::from_graph_sharded(
        GraphBuilder::from_edges(64, &edges),
        16,
    ));
    let spec = AlgoSpec::new("fpa");
    let req = QueryRequest::new(vec![0, 1]);
    let first = engine.session(&spec).unwrap().query(&req).unwrap();
    let first = first.result.unwrap();

    let clique: Vec<(NodeId, NodeId)> = (8..12)
        .flat_map(|u| ((u + 1)..12).map(move |v| (u, v)))
        .collect();
    let far: Vec<(NodeId, NodeId)> = (41..47).map(|v| (40, v)).collect();
    for (&(u, v), &(x, y)) in clique.iter().zip(&far) {
        assert!(engine.insert_edge(u, v));
        assert!(engine.remove_edge(x, y));
    }
    edges.retain(|e| !far.contains(e));
    edges.extend(&clique);
    let got = engine.session(&spec).unwrap().query(&req).unwrap();
    let reference = Session::new(
        Snapshot::freeze(GraphBuilder::from_edges(64, &edges)),
        &spec,
    )
    .unwrap()
    .query(&req)
    .unwrap();
    assert!(
        !got.cached,
        "the layered walk read 8..12: the repeat must miss"
    );
    let (got, want) = (got.result.unwrap(), reference.result.unwrap());
    assert_ne!(
        got.community, first.community,
        "the clique moves the answer"
    );
    assert_eq!(got, want);
}

/// Weighted DM divides by the total edge weight w_G, so a weighted
/// answer pins w_G beside m and the shards its search read. Component A
/// (0..4) lives in shard 0 of a 3-shard, 12-node store and component B
/// (8..12) in shard 2. Moving half a unit of weight between two edges of
/// B keeps m, w_G and every row A's search read: the repeat must hit and
/// equal a cache-less session, DM bits included. A `setw` on an edge of
/// B that moves w_G must miss, and equal a cache-less session too.
#[test]
fn weighted_hits_pin_w_g_and_the_shards_they_read() {
    let weighted = |w89: f64, w1011: f64| {
        let mut b = WeightedGraphBuilder::new(12);
        for (u, v, w) in [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, 1.0)] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [(8, 9, w89), (9, 10, 1.0), (8, 10, 1.0), (10, 11, w1011)] {
            b.add_edge(u, v, w);
        }
        b.build().into_graph()
    };
    let engine = Engine::new(GraphStore::from_graph_sharded(weighted(1.0, 1.0), 3));
    let spec = AlgoSpec::new("fpa").weighted();
    let repeat = |graph: Graph| {
        let (got, cached) = ask(&mut engine.session(&spec).unwrap(), &[0], 0);
        let (want, _) = ask(
            &mut Session::new(Snapshot::freeze(graph), &spec).unwrap(),
            &[0],
            0,
        );
        assert_eq!(got, want);
        assert_eq!(dm_bits(&got), dm_bits(&want));
        cached
    };
    assert!(!repeat(weighted(1.0, 1.0)));

    assert_eq!(engine.set_weight(8, 9, 1.5), Some(1.0));
    assert_eq!(engine.set_weight(10, 11, 0.5), Some(1.0));
    assert!(
        repeat(weighted(1.5, 0.5)),
        "m and w_G kept, the update is outside A: the repeat must hit"
    );

    assert_eq!(engine.set_weight(8, 9, 50.0), Some(1.5));
    assert!(
        !repeat(weighted(50.0, 0.5)),
        "w_G moved: the repeat must miss"
    );
}

/// NCA and top-k answers pin the component they read, also when the
/// session serves from a bfs-layout mirror (top-k itself runs on the
/// canonical CSR). In a 16-node, 4-shard store the component X of the
/// query node 0 is {0, 12, 13, 14, 15} (shards 0 and 3), Y is 4..12
/// (shards 1 and 2), and 1, 2, 3 are isolated. The bfs layout numbers
/// X's nodes 0..5 and Y's 8..16, so an id of X read as a mirror id
/// names a node of Y. Rewiring Y keeps m and must leave both answers
/// hot; rewiring X inside shard 3 keeps m and must evict them. Every
/// answer equals a cache-less session's, DM bits included.
#[test]
fn nca_and_top_k_hits_on_a_mirrored_store_pin_the_component_they_read() {
    let mut edges: Vec<(NodeId, NodeId)> = vec![
        (0, 12),
        (0, 13),
        (12, 13),
        (12, 14),
        (13, 14),
        (14, 15),
        (12, 15),
    ];
    edges.extend((4..11).map(|v| (v, v + 1)));
    edges.extend([(4, 11), (4, 6), (8, 10)]);
    let store = GraphStore::from_graph_sharded(GraphBuilder::from_edges(16, &edges), 4);
    store.set_layout_policy(LayoutPolicy::Bfs);
    let engine = Engine::new(store);
    let order = engine.snapshot().compute().unwrap().map().clone();
    assert_eq!(
        order.to_external(12),
        7,
        "X's ids name Y's nodes on the mirror"
    );

    let rewire =
        |edges: &mut Vec<(NodeId, NodeId)>, old: (NodeId, NodeId), new: (NodeId, NodeId)| {
            assert!(engine.remove_edge(old.0, old.1) && engine.insert_edge(new.0, new.1));
            edges.retain(|&e| e != old);
            edges.push(new);
        };
    for (spec, k) in [(AlgoSpec::new("nca"), 0), (AlgoSpec::new("fpa"), 2)] {
        let repeat = |edges: &[(NodeId, NodeId)]| {
            let mut session = engine.session(&spec).unwrap();
            let (got, cached) = ask(&mut session, &[0], k);
            let graph = GraphBuilder::from_edges(16, edges);
            let (want, _) = ask(
                &mut Session::new(Snapshot::freeze(graph), &spec).unwrap(),
                &[0],
                k,
            );
            assert_eq!(got, want, "{spec:?} k={k}");
            assert_eq!(dm_bits(&got), dm_bits(&want), "{spec:?} k={k}");
            assert!(!got.unwrap().is_empty(), "{spec:?} k={k}");
            cached
        };
        assert!(!repeat(&edges), "{spec:?} k={k}: a first query misses");
        rewire(&mut edges, (5, 6), (5, 7));
        assert!(repeat(&edges), "{spec:?} k={k}: the update is outside X");
        rewire(&mut edges, (14, 15), (13, 15));
        assert!(!repeat(&edges), "{spec:?} k={k}: the update is inside X");
        // Undo both, for the next spec.
        rewire(&mut edges, (5, 7), (5, 6));
        rewire(&mut edges, (13, 15), (14, 15));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaving_then_snapshot_equals_from_scratch(
        n0 in 0usize..10,
        ops in proptest::collection::vec(op_strategy(14), 0..80),
    ) {
        let store = GraphStore::new(n0);
        let mut model = Model { n: n0, ..Model::default() };
        let mut version = store.version();
        prop_assert_eq!(version, 0, "construction is not a mutation");

        for &op in &ops {
            let effective = model.apply(op);
            let changed = match op {
                Op::Insert(u, v) => store.insert_edge(u, v),
                Op::Remove(u, v) => store.remove_edge(u, v),
                Op::AddNode => { store.add_node(); true }
            };
            prop_assert_eq!(changed, effective, "effectiveness agrees with the model on {:?}", op);
            // Version monotonicity: +1 on effective mutations, frozen otherwise.
            let next = store.version();
            prop_assert_eq!(next, version + u64::from(effective), "version step on {:?}", op);
            version = next;
        }

        prop_assert_eq!(store.n(), model.n);
        prop_assert_eq!(store.m(), model.edges.len());
        assert_same_graph(&store.snapshot(), &model.build());
    }

    #[test]
    fn store_snapshots_agree_under_interleaved_reads(
        n0 in 0usize..10,
        ops in proptest::collection::vec(op_strategy(14), 0..60),
        read_every in 1usize..5,
    ) {
        let store = GraphStore::new(n0);
        let mut model = Model { n: n0, ..Model::default() };
        let mut last_version = store.version();

        for (i, &op) in ops.iter().enumerate() {
            let effective = model.apply(op);
            let changed = match op {
                Op::Insert(u, v) => store.insert_edge(u, v),
                Op::Remove(u, v) => store.remove_edge(u, v),
                Op::AddNode => { store.add_node(); true }
            };
            prop_assert_eq!(changed, effective);
            prop_assert!(store.version() >= last_version, "version is monotone");
            last_version = store.version();

            // Interleaved reads force (and then reuse) lazy rebuilds.
            if i % read_every == 0 {
                let snap = store.snapshot();
                prop_assert_eq!(snap.version(), store.version());
                prop_assert_eq!(snap.m(), model.edges.len());
                prop_assert!(store.snapshot().shares_graph(&snap),
                    "no mutation between reads: same rebuild");
            }
        }

        assert_same_graph(&store.snapshot(), &model.build());
        prop_assert_eq!(store.snapshot().version(), store.version());
    }

    #[test]
    fn sharded_stores_rebuild_to_the_from_scratch_graph(
        n0 in 0usize..10,
        shards in 1usize..6,
        ops in proptest::collection::vec(op_strategy(14), 0..60),
        read_every in 1usize..5,
    ) {
        // Interleaved reads force rebuilds that copy unchanged rows
        // forward from the previous snapshot; the final graph must still
        // be indistinguishable from a from-scratch build.
        let store = GraphStore::with_shards(n0, shards);
        prop_assert_eq!(store.shard_count(), shards);
        let mut model = Model { n: n0, ..Model::default() };

        for (i, &op) in ops.iter().enumerate() {
            let effective = model.apply(op);
            let changed = match op {
                Op::Insert(u, v) => store.insert_edge(u, v),
                Op::Remove(u, v) => store.remove_edge(u, v),
                Op::AddNode => { store.add_node(); true }
            };
            prop_assert_eq!(changed, effective);
            if i % read_every == 0 {
                let snap = store.snapshot();
                prop_assert_eq!(snap.version(), store.version());
                prop_assert_eq!(snap.m(), model.edges.len());
                prop_assert_eq!(snap.shards(), shards);
            }
        }

        assert_same_graph(&store.snapshot(), &model.build());
        let stats = store.rebuild_stats();
        prop_assert_eq!(
            stats.shards_rebuilt + stats.shards_reused,
            stats.rebuilds * shards as u64,
            "every rebuild accounts for every shard"
        );
    }

    #[test]
    fn shard_versions_bump_exactly_on_effective_ops(
        n0 in 0usize..10,
        shards in 1usize..6,
        ops in proptest::collection::vec(op_strategy(14), 0..80),
    ) {
        // Per-shard version model: an effective edge op bumps the shard
        // of *both* endpoints (once when they share a shard — so a
        // cross-shard edge dirties exactly two shards), add_node bumps
        // only the new id's shard, rejected ops bump nothing.
        let store = GraphStore::with_shards(n0, shards);
        let layout = store.shard_layout();
        prop_assert_eq!(layout.shards(), shards);
        let mut model = Model { n: n0, ..Model::default() };
        let mut want = vec![0u64; shards];
        prop_assert_eq!(store.shard_versions(), want.clone(), "construction leaves shards clean");

        for &op in &ops {
            let effective = model.apply(op);
            let changed = match op {
                Op::Insert(u, v) => store.insert_edge(u, v),
                Op::Remove(u, v) => store.remove_edge(u, v),
                Op::AddNode => { store.add_node(); true }
            };
            prop_assert_eq!(changed, effective);
            if effective {
                match op {
                    Op::Insert(u, v) | Op::Remove(u, v) => {
                        let (a, b) = (layout.shard_of(u), layout.shard_of(v));
                        want[a] += 1;
                        if b != a {
                            want[b] += 1;
                        }
                    }
                    Op::AddNode => {
                        let id = (store.n() - 1) as NodeId;
                        want[layout.shard_of(id)] += 1;
                    }
                }
            }
            prop_assert_eq!(store.shard_versions(), want.clone(), "per-shard versions after {:?}", op);
        }

        // The global version is the total of effective ops; per-shard
        // versions decompose it minus the shared-shard edge ops.
        prop_assert!(want.iter().sum::<u64>() >= store.version());
    }

    #[test]
    fn cached_answers_equal_a_cacheless_search_on_the_pinned_graph(
        steps in proptest::collection::vec(step_strategy(14), 0..60),
    ) {
        // Three components, each inside its own shard ({0..3} {4..7}
        // {8..11}), so an update inside one component leaves the other
        // components' shards — and their cached answers' fingerprints —
        // untouched.
        let components = [
            (0, 1), (0, 2), (1, 2), (2, 3),
            (4, 5), (5, 6), (6, 7), (4, 7), (4, 6),
            (8, 9), (9, 10), (10, 11),
        ];
        // The same edges bridged into one component spanning the three
        // shards: FPA's layered walk stops short of it for some one-node
        // queries (from 0 it closes {0,1,2,3} and discovers 4 only), so
        // those entries pin only the shards of the nodes it discovered.
        let mut one_component = components.to_vec();
        one_component.extend([(3, 4), (7, 8)]);
        // Weights in multiples of 0.5, so every sum is exact.
        let model = |edges: &[(NodeId, NodeId)]| WModel {
            n: 12,
            edges: edges
                .iter()
                .enumerate()
                .map(|(i, &e)| (e, 0.5 * (1 + i % 4) as f64))
                .collect(),
        };
        let specs = [
            (AlgoSpec::new("fpa"), 0),
            (AlgoSpec::new("nca"), 0),
            (AlgoSpec::new("fpa").weighted(), 0),
            (AlgoSpec::new("nca").weighted(), 0),
            (AlgoSpec::new("fpa"), 2),
        ];
        for (base, weighted) in [
            (model(&components), false),
            (model(&one_component), false),
            (model(&components), true),
        ] {
            for (spec, k) in &specs {
                check_cached_transcript(&base, weighted, spec, *k, &steps)?;
            }
        }
    }

    #[test]
    fn weighted_interleavings_match_from_scratch_builds(
        n0 in 0usize..10,
        ops in proptest::collection::vec(wop_strategy(14), 0..80),
        read_every in 1usize..5,
    ) {
        let store = GraphStore::from_graph(WeightedGraphBuilder::new(n0).build().into_graph());
        prop_assert!(store.is_weighted());
        let mut model = WModel { n: n0, ..WModel::default() };
        let mut version = store.version();
        prop_assert_eq!(version, 0, "construction is not a mutation");

        for (i, &op) in ops.iter().enumerate() {
            let effective = model.apply(op);
            let changed = match op {
                WOp::InsertW(u, v, w) => store.insert_edge_w(u, v, w),
                WOp::Remove(u, v) => store.remove_edge(u, v),
                // set_weight is effective exactly when the stored
                // weight actually changes.
                WOp::SetW(u, v, w) => matches!(store.set_weight(u, v, w), Some(old) if old != w),
                WOp::AddNode => { store.add_node(); true }
            };
            prop_assert_eq!(changed, effective, "effectiveness agrees with the model on {:?}", op);
            // Version monotonicity: +1 on effective mutations — weight-only
            // updates included — frozen otherwise.
            let next = store.version();
            prop_assert_eq!(next, version + u64::from(effective), "version step on {:?}", op);
            version = next;
            // Live reads see the overlay before any rebuild folds it in.
            if let WOp::InsertW(u, v, _) | WOp::Remove(u, v) | WOp::SetW(u, v, _) = op {
                let want = model.edges.get(&(u.min(v), u.max(v))).copied();
                prop_assert_eq!(store.edge_weight(u, v), want, "live weight of ({},{})", u, v);
                prop_assert_eq!(store.has_edge(v, u), want.is_some());
            }

            // Interleaved reads force (and then reuse) lazy rebuilds of
            // the lane-carrying snapshot.
            if i % read_every == 0 {
                let snap = store.snapshot();
                prop_assert_eq!(snap.version(), store.version());
                prop_assert_eq!(snap.m(), model.edges.len());
            }
        }

        assert_same_weighted_graph(&store.snapshot(), &model);
        prop_assert_eq!(store.snapshot().version(), store.version());
    }
}
