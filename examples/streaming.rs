//! Streaming community search: keep answering a query while the network
//! changes, through a serving engine whose shared result cache replays
//! repeats until an update can change their answer.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use dmcs::engine::{AlgoSpec, Engine, QueryRequest, QueryResponse, Session};
use dmcs::graph::GraphBuilder;

/// Answer a query for `author`, first re-pinning `session` to the current
/// epoch when an update has moved the store version (what
/// `dmcs --updates` does between script lines).
fn ask(engine: &Engine, spec: &AlgoSpec, session: &mut Session, author: u32) -> QueryResponse {
    if session.snapshot().version() != engine.version() {
        *session = engine.session(spec).unwrap();
    }
    session.query(&QueryRequest::new(vec![author])).unwrap()
}

fn community(resp: &QueryResponse) -> &[u32] {
    &resp.result.as_ref().unwrap().community
}

fn main() {
    // A collaboration network starts as two 4-cliques sharing author 0.
    let mut b = GraphBuilder::new(7);
    for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(c[i], c[j]);
            }
        }
    }
    let g = b.build();
    println!("day 0: {} authors, {} collaborations", g.n(), g.m());

    // One versioned store behind one serving engine; sessions pin its
    // snapshots and share its result cache.
    let engine = Engine::from_graph(g);
    let spec = AlgoSpec::new("fpa");
    let mut session = engine.session(&spec).unwrap();

    // Author 0 sits in two communities — top-k sees both.
    let top = session.top_k(&[0], 3);
    println!("top-k communities of author 0:");
    for (i, r) in top.rounds.unwrap().iter().enumerate() {
        println!(
            "  #{}: {:?} (DM {:.3})",
            i + 1,
            r.community,
            r.density_modularity
        );
    }

    let day0 = ask(&engine, &spec, &mut session, 0);
    println!("\ncommunity of author 0: {:?}", community(&day0));

    // Day 1: five new authors join and densify the left group.
    for _ in 0..5 {
        let v = engine.add_node();
        for anchor in [1, 2, 3] {
            engine.insert_edge(v, anchor);
        }
    }
    let day1 = ask(&engine, &spec, &mut session, 0);
    println!(
        "day 1 (+5 authors around the left group, version {}): community {:?}",
        engine.version(),
        community(&day1)
    );

    // Day 2: repeats are replayed from the cache until the next update.
    let repeats = [
        ask(&engine, &spec, &mut session, 0),
        ask(&engine, &spec, &mut session, 0),
    ];
    println!(
        "day 2: 2 repeats, cached {:?}; engine cache {} hits, {} misses",
        repeats.iter().map(|r| r.cached).collect::<Vec<_>>(),
        engine.cache().hits(),
        engine.cache().misses()
    );

    // Day 3: the collaborations bridging to the right group dissolve.
    for v in [4, 5, 6] {
        engine.remove_edge(0, v);
    }
    let day3 = ask(&engine, &spec, &mut session, 0);
    println!(
        "day 3 (right group detached, version {}): community {:?}, cached {}",
        engine.version(),
        community(&day3),
        day3.cached
    );

    // Day 4: batch traffic through the same engine — repeats inside and
    // across batches are cache hits until the next update.
    let requests: Vec<QueryRequest> = [0u32, 4, 0, 4, 0]
        .iter()
        .map(|&v| QueryRequest::new(vec![v]))
        .collect();
    let report = engine.run_batch(&spec, &requests, 2).unwrap();
    println!(
        "\nday 4, engine batch (version {}): {} queries, {} unique, {} cache hits",
        engine.version(),
        report.responses.len(),
        report.unique_queries,
        report.cache_hits,
    );
    let report = engine.run_batch(&spec, &requests, 2).unwrap();
    println!(
        "        repeat batch: {} cache hits, {} misses",
        report.cache_hits, report.cache_misses
    );
    engine.insert_edge(0, 4);
    let report = engine.run_batch(&spec, &requests, 2).unwrap();
    println!(
        "        after one more update (version {}): {} hits, {} misses",
        engine.version(),
        report.cache_hits,
        report.cache_misses
    );
}
