//! The serving contracts of the versioned store, end to end:
//!
//! 1. a batch pins its snapshot — updates landing mid-stream never
//!    change its answers (bit-identical to a pre-update run);
//! 2. the result cache invalidates by *shard fingerprint* — a repeated
//!    query recomputes after any update touching a shard its component
//!    lives in (in a connected graph: any update at all), while a repeat
//!    with no intervening update is a hit with byte-identical JSON, an
//!    update confined to other shards that keeps the edge count leaves
//!    the hit hot, and one that changes the edge count recomputes;
//! 3. in-batch dedup plus the shared cache compose across batches.

use dmcs_engine::output::{report_jsonl, response_json};
use dmcs_engine::{AlgoSpec, BatchRunner, Engine, QueryRequest};
use dmcs_gen::sbm;
use dmcs_graph::{GraphBuilder, GraphStore, NodeId, Snapshot};

fn planted_store() -> GraphStore {
    // 4 planted blocks of 24 nodes: answers are nontrivial communities.
    let (g, _) = sbm::planted_partition(&[24usize; 4], 0.5, 0.02, 11);
    GraphStore::from_graph(g)
}

fn requests() -> Vec<QueryRequest> {
    QueryRequest::from_node_lists(
        &(0..96u32)
            .step_by(8)
            .map(|v| vec![v])
            .collect::<Vec<Vec<NodeId>>>(),
    )
}

#[test]
fn a_batch_started_before_an_update_runs_on_its_pinned_snapshot() {
    let store = planted_store();
    let runner = BatchRunner::new(AlgoSpec::new("fpa"), 2).unwrap();
    let reqs = requests();

    // Reference run, no updates anywhere.
    let pinned: Snapshot = store.snapshot();
    let before = runner.run(&pinned, &reqs).unwrap();

    // Land a burst of updates in the store *between* pinning and
    // running — the snapshot must not see them.
    assert!(store.insert_edge(0, 95));
    assert!(store.insert_edge(1, 94));
    assert!(store.remove_edge(0, 95));
    let again = runner.run(&pinned, &reqs).unwrap();
    assert_eq!(before.responses.len(), again.responses.len());
    for (a, b) in before.responses.iter().zip(&again.responses) {
        assert_eq!(a.result, b.result, "pinned batch ignores updates");
    }
    // Byte-for-byte: the rendered JSON (minus per-run timings, which the
    // fixed responses carry along) is identical.
    let render = |r| report_jsonl("FPA", false, r, None);
    let strip_summary = |s: String| {
        s.lines()
            .filter(|l| l.contains("\"response\""))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    // Timings differ per run; compare everything except "seconds".
    let scrub = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .map(|l| {
                let mut v = dmcs_engine::output::Json::parse(&l).unwrap();
                if let dmcs_engine::output::Json::Obj(members) = &mut v {
                    members.retain(|(k, _)| k != "seconds");
                }
                v.render()
            })
            .collect()
    };
    assert_eq!(
        scrub(strip_summary(render(&before))),
        scrub(strip_summary(render(&again)))
    );

    // A fresh snapshot *does* see the net update.
    let fresh = store.snapshot();
    assert_eq!(fresh.version(), 3);
    assert!(fresh.has_edge(1, 94));
    assert!(!fresh.has_edge(0, 95));
}

#[test]
fn repeated_query_is_a_byte_identical_hit_until_any_update() {
    let engine = Engine::new(planted_store());
    let spec = AlgoSpec::new("fpa");
    let req = [QueryRequest::new(vec![3])];

    let first = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!((first.cache_hits, first.cache_misses), (0, 1));

    // Repeat with no intervening update: a hit, and the response line
    // (including the replayed timing) renders byte-identically.
    let second = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!((second.cache_hits, second.cache_misses), (1, 0));
    assert_eq!(
        response_json(&first.responses[0], None).render(),
        response_json(&second.responses[0], None).render(),
        "cache hit must be byte-identical JSON"
    );

    // An unrelated-looking update (an edge across the far blocks): the
    // planted graph is one connected component, so the cached answer's
    // fingerprint covers every shard the component spans — including
    // the mutated ones — and the entry stops matching.
    assert!(engine.insert_edge(70, 95));
    let third = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!(
        (third.cache_hits, third.cache_misses),
        (0, 1),
        "an update inside the component recomputes"
    );

    // And the recomputation is an honest answer for the new graph.
    let direct = Engine::new(GraphStore::from_graph(engine.snapshot().graph().clone()));
    let check = direct.run_batch(&spec, &req, 1).unwrap();
    assert_eq!(third.responses[0].result, check.responses[0].result);
}

#[test]
fn dedup_and_cache_compose_across_batches() {
    let engine = Engine::new(planted_store());
    let spec = AlgoSpec::new("fpa");
    // 9 requests, 3 distinct.
    let reqs: Vec<QueryRequest> = (0..9u32).map(|i| QueryRequest::new(vec![i % 3])).collect();
    let first = engine.run_batch(&spec, &reqs, 4).unwrap();
    assert_eq!(first.unique_queries, 3);
    assert_eq!((first.cache_hits, first.cache_misses), (0, 3));
    assert_eq!(first.responses.len(), 9);

    let second = engine.run_batch(&spec, &reqs, 4).unwrap();
    assert_eq!(second.unique_queries, 3);
    assert_eq!(
        (second.cache_hits, second.cache_misses),
        (3, 0),
        "second batch is served entirely from the cache"
    );
    for (a, b) in first.responses.iter().zip(&second.responses) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.seconds, b.seconds, "hits replay original timings");
    }
    assert_eq!(engine.cache().hits(), 3);
    assert_eq!(engine.cache().misses(), 3);
}

#[test]
fn update_in_one_shard_leaves_other_shards_cached_answers_hot() {
    // Two disjoint triangles in different shards of an 8-node store
    // split 4 ways: shard ranges {0,1} {2,3} {4,5} {6,7}. The left
    // triangle {0,1,2} lives in shards 0-1, the right one {5,6,7} in
    // shards 2-3.
    let g = GraphBuilder::from_edges(8, &[(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)]);
    let engine = Engine::new(GraphStore::from_graph_sharded(g, 4));
    assert_eq!(engine.shard_count(), 4);
    let spec = AlgoSpec::new("fpa");
    let left = [QueryRequest::new(vec![0])];
    let right = [QueryRequest::new(vec![6])];

    let first_left = engine.run_batch(&spec, &left, 1).unwrap();
    let _first_right = engine.run_batch(&spec, &right, 1).unwrap();
    assert_eq!((engine.cache().hits(), engine.cache().misses()), (0, 2));
    let fresh = |req: &[QueryRequest]| {
        let direct = Engine::new(GraphStore::from_graph(engine.snapshot().graph().clone()));
        direct.run_batch(&spec, req, 1).unwrap().responses[0]
            .result
            .clone()
    };

    // Rewire the right side only: a del + add pair in shards 2 and 3
    // that keeps the edge count m at 6.
    assert!(engine.remove_edge(5, 7));
    assert!(engine.insert_edge(4, 7));

    // The left answer survives as a byte-identical hit — the update
    // never touched shards 0 or 1, the only ones its fingerprint pins,
    // and m, which density modularity divides by, did not move.
    let replay_left = engine.run_batch(&spec, &left, 1).unwrap();
    assert_eq!(
        (replay_left.cache_hits, replay_left.cache_misses),
        (1, 0),
        "update in shard 2/3 that keeps m must not evict a shard-0/1 answer"
    );
    assert_eq!(
        response_json(&first_left.responses[0], None).render(),
        response_json(&replay_left.responses[0], None).render(),
        "cache hit must replay byte-identical JSON"
    );
    assert_eq!(replay_left.responses[0].result, fresh(&left));

    // The right answer's shards moved: it recomputes honestly.
    let replay_right = engine.run_batch(&spec, &right, 1).unwrap();
    assert_eq!((replay_right.cache_hits, replay_right.cache_misses), (0, 1));
    assert_eq!(replay_right.responses[0].result, fresh(&right));

    // An update in shards 2-3 that changes m (6 to 5) changes the left
    // answer's density modularity: the left query must miss.
    assert!(engine.remove_edge(4, 7));
    let after_m = engine.run_batch(&spec, &left, 1).unwrap();
    assert_eq!(
        (after_m.cache_hits, after_m.cache_misses),
        (0, 1),
        "a change of m anywhere must evict the left answer"
    );
    assert_eq!(after_m.responses[0].result, fresh(&left));
    assert_ne!(
        after_m.responses[0].result, first_left.responses[0].result,
        "the replay this test guards against would be stale"
    );
}

#[test]
fn weight_only_updates_invalidate_the_cache() {
    // Same topology, changed weight → new epoch → cache miss. The
    // weighted objective depends on every weight through w_G, so the
    // version-keyed cache must not serve pre-update answers.
    let mut b = dmcs_graph::weighted::WeightedGraphBuilder::new(6);
    for (u, v, w) in [
        (0, 1, 5.0),
        (1, 2, 5.0),
        (0, 2, 5.0),
        (3, 4, 1.0),
        (4, 5, 1.0),
        (3, 5, 1.0),
        (2, 3, 0.5),
    ] {
        b.add_edge(u, v, w);
    }
    let engine = Engine::new(GraphStore::from_graph(b.build().into_graph()));
    assert!(engine.store().is_weighted());
    let spec = AlgoSpec::new("fpa").weighted();
    let req = [QueryRequest::new(vec![3])];

    let first = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
    assert_eq!(first.responses[0].algo, "W-FPA");
    // Light triangle from its own corner.
    assert_eq!(
        first.responses[0].result.as_ref().unwrap().community,
        vec![3, 4, 5]
    );

    // Repeat: hit.
    let repeat = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!((repeat.cache_hits, repeat.cache_misses), (1, 0));

    // Weight-only update (no topological change): the version moves and
    // the cached answer stops matching.
    assert_eq!(engine.set_weight(2, 3, 40.0), Some(0.5));
    let after = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!(
        (after.cache_hits, after.cache_misses),
        (0, 1),
        "changed weight, same topology: must recompute"
    );
    // And the recomputed answer reflects the new weights: the massive
    // bridge pulls node 2 into node 3's community.
    assert!(after.responses[0]
        .result
        .as_ref()
        .unwrap()
        .community
        .contains(&2));

    // Re-setting the same weight is a no-op epoch-wise: hit again.
    assert_eq!(engine.set_weight(2, 3, 40.0), Some(40.0));
    let noop = engine.run_batch(&spec, &req, 1).unwrap();
    assert_eq!((noop.cache_hits, noop.cache_misses), (1, 0));

    // Weighted and unweighted specs never share cache slots.
    let plain = engine.run_batch(&AlgoSpec::new("fpa"), &req, 1).unwrap();
    assert_eq!((plain.cache_hits, plain.cache_misses), (0, 1));
    assert_eq!(plain.responses[0].algo, "FPA");
}

#[test]
fn sessions_pin_and_reopen_across_epochs() {
    let engine = Engine::new(planted_store());
    let spec = AlgoSpec::new("fpa");
    let mut old = engine.session(&spec).unwrap();
    let before = old.query(&QueryRequest::new(vec![0])).unwrap();

    engine.insert_edge(0, 95);
    // The old session still answers for its pinned epoch — same bytes.
    let replay = old.query(&QueryRequest::new(vec![0])).unwrap();
    assert!(replay.cached, "old epoch still cached");
    assert_eq!(
        response_json(&before, None).render(),
        response_json(&replay, None).render()
    );

    // A re-opened session serves the new epoch.
    let mut fresh = engine.session(&spec).unwrap();
    assert_eq!(fresh.snapshot().version(), 1);
    let after = fresh.query(&QueryRequest::new(vec![0])).unwrap();
    assert!(!after.cached, "new epoch, new computation");
    assert!(after.result.as_ref().unwrap().community.contains(&0));
}
