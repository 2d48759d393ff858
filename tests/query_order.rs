//! A query's node order is part of its answer. FPA roots a multi-node
//! query's Steiner seed (§5.6) at the first query node, so `0,4` and
//! `4,0` can answer different communities; on the six-cycle below they
//! do. Every path that consults the result cache must therefore answer
//! each order as a cache-less session answers it: a cached session, a
//! daemon connection, and `Engine::run_batch` at 1 and 2 threads, each
//! asked both orders back to back. A proptest asks every order of
//! random 2- and 3-node queries through one cached session.

use dmcs::core::{SearchError, SearchResult};
use dmcs::engine::{AlgoSpec, Engine, QueryRequest, ResponseCache, Session};
use dmcs::graph::{Graph, GraphBuilder, NodeId, Snapshot};
use proptest::prelude::*;
use std::sync::Arc;

/// The six-cycle 0-2-5-4-1-3-0.
fn c6() -> Graph {
    GraphBuilder::from_edges(6, &[(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (4, 5)])
}

/// Both orders of the pair the cycle splits, each asked twice.
fn orders() -> Vec<Vec<NodeId>> {
    vec![vec![0, 4], vec![4, 0], vec![4, 0], vec![0, 4]]
}

/// What a served answer carries: community, DM bits and iterations, or
/// the error's text.
type Served = Result<(Vec<NodeId>, u64, usize), String>;

fn served(result: &Result<SearchResult, SearchError>) -> Served {
    result
        .as_ref()
        .map(|r| {
            (
                r.community.clone(),
                r.density_modularity.to_bits(),
                r.iterations,
            )
        })
        .map_err(|e| e.to_string())
}

/// A cache-less session's answer to each query, in order.
fn reference(g: &Graph, queries: &[Vec<NodeId>]) -> Vec<Served> {
    let mut session = Session::new(Snapshot::freeze(g.clone()), &AlgoSpec::new("fpa")).unwrap();
    queries
        .iter()
        .map(|q| served(&session.query(&QueryRequest::new(q.clone())).unwrap().result))
        .collect()
}

#[test]
fn the_cycle_answers_the_two_orders_differently() {
    let want = reference(&c6(), &orders());
    assert_eq!(want[0].as_ref().unwrap().0, vec![0, 1, 3, 4]);
    assert_eq!(want[1].as_ref().unwrap().0, vec![0, 2, 4, 5]);
}

#[test]
fn a_cached_session_answers_each_order_like_a_cacheless_one() {
    let want = reference(&c6(), &orders());
    let cache = Arc::new(ResponseCache::new(16));
    let mut session = Session::new(Snapshot::freeze(c6()), &AlgoSpec::new("fpa"))
        .unwrap()
        .with_cache(Arc::clone(&cache));
    for (q, want) in orders().iter().zip(&want) {
        let resp = session.query(&QueryRequest::new(q.clone())).unwrap();
        assert_eq!(&served(&resp.result), want, "query {q:?}");
    }
    assert_eq!(
        (cache.hits(), cache.misses()),
        (2, 2),
        "each order hits its own entry"
    );
}

#[test]
fn engine_batches_answer_each_order_like_a_cacheless_session() {
    let want = reference(&c6(), &orders());
    for threads in [1usize, 2] {
        let engine = Engine::from_graph(c6());
        let requests = QueryRequest::from_node_lists(&orders());
        // The second batch finds every order in the engine's cache.
        for round in 0..2 {
            let report = engine
                .run_batch(&AlgoSpec::new("fpa"), &requests, threads)
                .unwrap();
            for ((q, resp), want) in orders().iter().zip(&report.responses).zip(&want) {
                assert_eq!(
                    &served(&resp.result),
                    want,
                    "{threads} threads, round {round}, query {q:?}"
                );
            }
        }
        assert!(
            engine.cache().hits() >= 2,
            "{threads} threads: the repeats hit"
        );
    }
}

#[cfg(unix)]
#[test]
fn a_daemon_connection_answers_each_order_like_a_cacheless_session() {
    use dmcs::engine::output::Json;
    use dmcs::engine::{Server, ServerConfig};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let want = reference(&c6(), &orders());
    let server = Server::bind(
        Engine::from_graph(c6()),
        AlgoSpec::new("fpa"),
        (0..6).collect(),
        &ServerConfig::default(),
    )
    .expect("bind");
    // One connection over a socket pair: every query is written, and the
    // write side closed, before the server reads them.
    let (mut client, connection) = UnixStream::pair().expect("socket pair");
    for q in orders() {
        let nodes: Vec<String> = q.iter().map(NodeId::to_string).collect();
        writeln!(client, r#"{{"op":"query","nodes":[{}]}}"#, nodes.join(",")).expect("write");
    }
    client
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    server.serve_stream(connection);
    let mut replies = String::new();
    client.read_to_string(&mut replies).expect("read");
    assert_eq!(replies.lines().count(), orders().len() + 1, "{replies}");
    for ((q, want), reply) in orders().iter().zip(&want).zip(replies.lines()) {
        let reply = Json::parse(reply).expect("reply parses");
        let community: Vec<NodeId> = reply
            .get("community")
            .and_then(Json::as_arr)
            .expect("a community")
            .iter()
            .map(|v| v.as_u64().unwrap() as NodeId)
            .collect();
        assert_eq!(community, want.as_ref().unwrap().0, "query {q:?}");
    }
    let stats = server.run();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2));
}

fn edge_strategy() -> impl Strategy<Value = (NodeId, NodeId)> {
    (0..9 as NodeId).prop_flat_map(|u| (0..9 as NodeId).prop_map(move |v| (u, v)))
}

/// Every order of `nodes`.
fn permutations(nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
    if nodes.len() <= 1 {
        return vec![nodes.to_vec()];
    }
    let mut all = Vec::new();
    for (i, &first) in nodes.iter().enumerate() {
        let mut rest = nodes.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            all.push(tail);
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Random graphs on 9 nodes: every order of a 2- or 3-node query,
    // asked twice through one cached session, answers like a cache-less
    // session.
    #[test]
    fn every_order_answers_like_a_cacheless_session(
        edges in proptest::collection::vec(edge_strategy(), 6..20),
        query in proptest::collection::vec(0..9 as NodeId, 2..4),
    ) {
        let mut query = query;
        query.sort_unstable();
        query.dedup();
        if query.len() < 2 {
            return Ok(());
        }
        let g = GraphBuilder::from_edges(9, &edges);
        let asked: Vec<Vec<NodeId>> = permutations(&query)
            .into_iter()
            .flat_map(|q| [q.clone(), q])
            .collect();
        let want = reference(&g, &asked);
        let mut session = Session::new(Snapshot::freeze(g), &AlgoSpec::new("fpa"))
            .unwrap()
            .with_cache(Arc::new(ResponseCache::new(64)));
        for (q, want) in asked.iter().zip(&want) {
            let resp = session.query(&QueryRequest::new(q.clone())).unwrap();
            prop_assert_eq!(&served(&resp.result), want, "query {:?}", q);
        }
    }
}
