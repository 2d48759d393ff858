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
//! query / update / re-pin transcripts, and every response, cache hits
//! included, must equal a cache-less search on the pinned edge set, on
//! a base of three components and on one that is a single component, so
//! FPA's stopped layered walks feed the cache too. A weighted answer
//! pins every shard: a weight update in another component moves w_G.

use dmcs::engine::{AlgoSpec, Engine, QueryRequest, Session};
use dmcs::graph::weighted::WeightedGraphBuilder;
use dmcs::graph::{Graph, GraphBuilder, GraphStore, NodeId, Snapshot};
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
    Mutate(Op),
    Query(Vec<NodeId>),
    Repin,
}

fn step_strategy(id_bound: u32) -> impl Strategy<Value = Step> {
    // kind 0-1 mutate (through `op_strategy`), 2-3 query, 4 re-pin; a
    // second node drawn at or past `id_bound` (3 times in 4) makes a
    // 1-node query, so repeats, and with them cache hits, are common.
    (0u8..5).prop_flat_map(move |kind| {
        op_strategy(id_bound).prop_flat_map(move |op| {
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
#[derive(Debug, Default)]
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
}

/// Drive `steps` through a cached engine over a 12-node, 3-shard store
/// seeded with `base`, and require every response, cache hits
/// included, to equal a cache-less search on the pinned edge set.
fn check_cached_transcript(base: &[(NodeId, NodeId)], steps: &[Step]) -> Result<(), TestCaseError> {
    let store = GraphStore::from_graph_sharded(GraphBuilder::from_edges(12, base), 3);
    let engine = Engine::new(store);
    let spec = AlgoSpec::new("fpa");
    let mut live = Model {
        n: 12,
        edges: base.iter().copied().collect(),
    };
    let mut pinned = live.clone();
    let mut session = engine.session(&spec).unwrap();

    for step in steps {
        match step {
            Step::Mutate(op) => {
                let effective = live.apply(*op);
                let changed = match *op {
                    Op::Insert(u, v) => engine.insert_edge(u, v),
                    Op::Remove(u, v) => engine.remove_edge(u, v),
                    Op::AddNode => {
                        engine.add_node();
                        true
                    }
                };
                prop_assert_eq!(changed, effective, "effectiveness of {:?}", op);
            }
            Step::Repin => {
                if session.snapshot().version() != engine.version() {
                    session = engine.session(&spec).unwrap();
                    pinned = live.clone();
                }
            }
            Step::Query(nodes) => {
                let req = QueryRequest::new(nodes.clone());
                let got = session.query(&req).unwrap();
                let reference = Session::new(Snapshot::freeze(pinned.build()), &spec)
                    .unwrap()
                    .query(&req)
                    .unwrap();
                prop_assert_eq!(
                    &got.result,
                    &reference.result,
                    "query {:?} (cached: {}) on base {:?} after {:?}",
                    nodes,
                    got.cached,
                    base,
                    steps
                );
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

/// Weighted DM divides by the total edge weight w_G, which a cache
/// fingerprint does not record, so a weighted answer must pin every
/// shard. Component A (0..4) lives in shard 0 of a 3-shard, 12-node
/// store and component B (8..12) in shard 2. A `setw` on an edge of B
/// keeps m and every row A's search read, and moves w_G: the repeat
/// must miss and equal a cache-less session, DM bits included.
#[test]
fn weighted_hits_pin_every_shard() {
    let weighted = |w89: f64| {
        let mut b = WeightedGraphBuilder::new(12);
        for (u, v, w) in [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, 1.0)] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [(8, 9, w89), (9, 10, 1.0), (8, 10, 1.0), (10, 11, 1.0)] {
            b.add_edge(u, v, w);
        }
        b.build().into_graph()
    };
    let engine = Engine::new(GraphStore::from_graph_sharded(weighted(1.0), 3));
    let spec = AlgoSpec::new("fpa").weighted();
    let req = QueryRequest::new(vec![0]);
    assert!(!engine.session(&spec).unwrap().query(&req).unwrap().cached);
    assert!(engine.session(&spec).unwrap().query(&req).unwrap().cached);

    assert_eq!(engine.set_weight(8, 9, 50.0), Some(1.0));
    let got = engine.session(&spec).unwrap().query(&req).unwrap();
    let reference = Session::new(Snapshot::freeze(weighted(50.0)), &spec)
        .unwrap()
        .query(&req)
        .unwrap();
    assert!(!got.cached, "w_G moved: the repeat must miss");
    let (got, want) = (got.result.unwrap(), reference.result.unwrap());
    assert_eq!(got, want);
    assert_eq!(
        got.density_modularity.to_bits(),
        want.density_modularity.to_bits()
    );
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
        for base in [&components[..], &one_component] {
            check_cached_transcript(base, &steps)?;
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
