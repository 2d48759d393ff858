//! The daemon's one connection loop, [`Server::serve_stream`], driven in
//! memory. Every server here is bound without listeners and fed its
//! requests through [`Script`], a stream double whose reads return at
//! most a chosen number of bytes. The golden transcript pins the bytes
//! of every reply type and error path. A differential proptest serves
//! random query/update/repin transcripts over concurrent connections, on
//! both weightings, and checks every answer against a cache-less session
//! on the graph its connection pinned. A fuzz proptest checks the
//! framing rules on random bytes in random-sized reads.

use dmcs::core::{SearchError, SearchResult};
use dmcs::engine::ops::{parse_update_script, IdSpace, UpdateOp};
use dmcs::engine::output::{summary_json, Json, LineWriter, MAX_JSON_DEPTH};
use dmcs::engine::{
    AlgoSpec, BatchReport, Engine, QueryRequest, QueryResponse, Server, ServerConfig, Session,
};
use dmcs::graph::{Graph, GraphBuilder, LayoutPolicy, NodeId, Snapshot};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Cursor, Read, Write};

/// In-memory stream double: request bytes in, at most `chunk` of them
/// per read, replies captured.
struct Script {
    input: Cursor<Vec<u8>>,
    chunk: usize,
    output: Vec<u8>,
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.input.read(&mut buf[..n])
    }
}

impl Write for Script {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The bytes `server` replies to `transcript`, served as one connection
/// that reads at most `chunk` bytes at a time.
fn serve(server: &Server, transcript: &[u8], chunk: usize) -> Vec<u8> {
    let mut io = Script {
        input: Cursor::new(transcript.to_vec()),
        chunk,
        output: Vec::new(),
    };
    server.serve_stream(&mut io);
    io.output
}

/// The reply lines of `transcript`, served as one connection.
fn replies(server: &Server, transcript: &str) -> Vec<String> {
    let output = serve(server, transcript.as_bytes(), usize::MAX);
    let text = String::from_utf8(output).unwrap();
    text.lines().map(str::to_string).collect()
}

/// A server of `spec` over `engine`, admitting `queue_cap` work ops and
/// lines of at most `max_line_bytes`, bound without listeners.
fn bind(engine: Engine, spec: AlgoSpec, original: Vec<u64>, queue_cap: usize) -> Server {
    let max_line_bytes = ServerConfig::default().max_line_bytes;
    bind_limited(engine, spec, original, queue_cap, max_line_bytes)
}

/// [`bind`] with a line limit.
fn bind_limited(
    engine: Engine,
    spec: AlgoSpec,
    original: Vec<u64>,
    queue_cap: usize,
    max_line_bytes: usize,
) -> Server {
    let cfg = ServerConfig {
        queue_cap,
        max_line_bytes,
        ..ServerConfig::default()
    };
    Server::bind(engine, spec, original, &cfg).expect("bind")
}

/// Two triangles bridged by 2–3; original ids 0..6.
fn demo_engine() -> (Engine, Vec<u64>) {
    let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
    (Engine::from_graph(g), (0..6).collect())
}

fn reply_type(reply: &Json) -> Option<&str> {
    reply.get("type").and_then(Json::as_str)
}

/// Every timing member (`seconds`, `*_seconds`, `queries_per_sec`)
/// with its value replaced by `0`; every other byte as written.
/// `cache_bytes` is zeroed too: it counts the cached reply bytes, which
/// hold a `seconds` value of varying length
/// (`serve_cache_bytes_count_the_ids_replies_carry` pins it exactly).
fn zero_timings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\":") {
        let (head, tail) = rest.split_at(at + 2);
        out.push_str(head);
        let key = head[..at].rsplit('"').next().unwrap();
        rest = tail;
        if key.ends_with("seconds") || key == "queries_per_sec" || key == "cache_bytes" {
            out.push('0');
            rest = &tail[tail.find([',', '}']).unwrap()..];
        }
    }
    out.push_str(rest);
    out
}

/// The replies of three scripted connections, timings zeroed: every
/// reply type (`response`, `topk`, `update`, `repin`, `stats`, `error`,
/// `shutdown`, `summary`) and every error path of the wire.
fn wire_transcript() -> String {
    // Triangles {0,1,2} and {3,4,5} joined by 2-3, plus a separate edge
    // 6-7; original ids shuffled so sorting after mapping shows.
    let edges = [
        (0, 1),
        (1, 2),
        (0, 2),
        (3, 4),
        (4, 5),
        (3, 5),
        (2, 3),
        (6, 7),
    ];
    let original = vec![50, 10, 40, 0, 30, 20, 70, 60];
    let engine = || Engine::from_graph(GraphBuilder::from_edges(8, &edges));
    let fpa = AlgoSpec::new("fpa");
    let server = bind_limited(engine(), fpa.clone(), original.clone(), 8, 128);
    let oversized = format!("{{\"op\":\"query\",\"nodes\":[{}0]}}", "0,".repeat(90));
    let streamed = format!("{{\"op\":\"query\",\"tag\":\"{}\"}}", "x".repeat(5000));
    let script = [
        r#"{"op":"query","nodes":[50],"tag":"q \"t\" \\ \u0001\t ü 社"}"#,
        r#"{"op":"query","nodes":[0,50]}"#,
        r#"{"op":"query","nodes":[50,70]}"#,
        r#"{"op":"query","nodes":[50],"k":3,"tag":"k"}"#,
        r#"{"op":"query","nodes":[50,70],"k":2}"#,
        r#"{"op":"query","nodes":[50]}"#,
        r#"{"op":"update","action":"add","u":50,"v":30}"#,
        r#"{"op":"update","action":"del","u":60,"v":70}"#,
        r#"{"op":"update","action":"add","u":50,"v":99}"#,
        r#"{"op":"update","action":"add","u":50,"v":10}"#,
        r#"{"op":"update","action":"setw","u":50,"v":10,"w":2.0}"#,
        r#"{"op":"repin"}"#,
        r#"{"op":"stats"}"#,
        "",
        "this is not json",
        "[1,2,3]",
        r#"{"nodes":[0]}"#,
        r#"{"op":"dance"}"#,
        r#"{"op":"query"}"#,
        r#"{"op":"query","nodes":[50,50]}"#,
        r#"{"op":"query","nodes":[77]}"#,
        r#"{"op":"query","nodes":["zero"]}"#,
        r#"{"op":"query","nodes":[0],"k":-1}"#,
        r#"{"op":"update","u":0,"v":1}"#,
        r#"{"op":"update","action":"swap","u":0,"v":1}"#,
        r#"{"op":"update","action":"setw","u":0,"v":1}"#,
        &oversized,
        r#"{"op":"query","nodes":[99,0]}"#,
        &streamed,
        r#"{"op":"query","nodes":[10],"tag":"after"}"#,
    ]
    .join("\n");
    let script = format!("{script}\n{{\"op\":\"stats\"");
    let mut transcript = serve(&server, script.as_bytes(), usize::MAX);

    // Overload: work ops are refused with code 8, control ops pass, and
    // a malformed query is a bad request even behind a full gate.
    let server = bind(engine(), fpa, original.clone(), 0);
    transcript.extend(serve(
        &server,
        b"{\"op\":\"query\",\"nodes\":[50]}\n\
          {\"op\":\"update\",\"action\":\"add\",\"u\":50,\"v\":30}\n\
          {\"op\":\"stats\"}\n\
          {\"op\":\"query\",\"nodes\":[50],\"tag\":5}\n",
        usize::MAX,
    ));

    // Weighted serving: `setw` reports the previous weight, and the
    // summary says weighted; `shutdown` closes the connection.
    let weighted = GraphBuilder::from_edges(8, &edges).with_unit_weights();
    let spec = AlgoSpec::new("fpa").weighted();
    let server = bind(Engine::from_graph(weighted), spec, original, 8);
    transcript.extend(serve(
        &server,
        b"{\"op\":\"query\",\"nodes\":[50]}\n\
          {\"op\":\"update\",\"action\":\"setw\",\"u\":50,\"v\":10,\"w\":2.5}\n\
          {\"op\":\"update\",\"action\":\"add\",\"u\":50,\"v\":30,\"w\":0.125}\n\
          {\"op\":\"repin\"}\n\
          {\"op\":\"query\",\"nodes\":[50],\"k\":2}\n\
          {\"op\":\"shutdown\"}\n\
          {\"op\":\"query\",\"nodes\":[10]}\n",
        usize::MAX,
    ));

    let text = String::from_utf8(transcript).unwrap();
    text.lines().map(|l| zero_timings(l) + "\n").collect()
}

#[test]
fn wire_transcript_matches_the_golden_file() {
    let transcript = wire_transcript();
    assert_eq!(
        transcript,
        include_str!("../crates/engine/tests/golden/wire_transcript.jsonl"),
        "wire bytes drifted from crates/engine/tests/golden/wire_transcript.jsonl"
    );
}

#[test]
fn connection_summary_equals_the_batch_report_over_its_replies() {
    // Two triangles, so {0, 3} is a per-query search failure.
    let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let server = bind(
        Engine::from_graph(g),
        AlgoSpec::new("fpa"),
        (0..6).collect(),
        8,
    );
    let replies: Vec<Json> = replies(
        &server,
        "{\"op\":\"query\",\"nodes\":[0]}\n\
         {\"op\":\"query\",\"nodes\":[4]}\n\
         {\"op\":\"query\",\"nodes\":[0,3]}\n\
         {\"op\":\"query\",\"nodes\":[77]}\n\
         {\"op\":\"query\",\"nodes\":[0]}\n\
         {\"op\":\"query\",\"nodes\":[2]}\n",
    )
    .iter()
    .map(|line| Json::parse(line).unwrap())
    .collect();
    assert_eq!(replies.len(), 7, "{replies:?}");
    assert_eq!(reply_type(&replies[3]), Some("error"));
    let summary = &replies[6];
    assert_eq!(reply_type(summary), Some("summary"));

    // The same replies as batch-mode responses: only `seconds`, the
    // outcome and the cache flag feed the compared keys. No update runs,
    // so exactly the repeated query is a cache hit.
    let mut seen: Vec<&Json> = Vec::new();
    let responses: Vec<QueryResponse> = replies
        .iter()
        .filter(|r| reply_type(r) == Some("response"))
        .map(|r| {
            let query = r.get("query").unwrap();
            let cached = seen.contains(&query);
            seen.push(query);
            let result = if r.get("ok").unwrap().as_bool().unwrap() {
                Ok(SearchResult {
                    community: Vec::new(),
                    density_modularity: 0.0,
                    removal_order: Vec::new(),
                    iterations: 0,
                })
            } else {
                Err(SearchError::EmptyQuery)
            };
            QueryResponse {
                request: QueryRequest::new(Vec::new()),
                algo: "FPA",
                result,
                seconds: r.get("seconds").unwrap().as_f64().unwrap(),
                cached,
            }
        })
        .collect();
    assert_eq!(responses.len(), 5);
    let hits = responses.iter().filter(|r| r.cached).count();
    assert_eq!(hits, 1);
    let n = responses.len();
    let report = BatchReport::from_responses(responses, 1.0, n, hits, n - hits);
    let expected = Json::parse(&summary_json("FPA", false, &report).render()).unwrap();
    for key in [
        "queries",
        "ok",
        "p50_seconds",
        "p95_seconds",
        "cache_hits",
        "cache_misses",
    ] {
        assert_eq!(summary.get(key), expected.get(key), "{key}");
    }
    assert_eq!(summary.get("ok").unwrap().as_u64(), Some(4));
}

#[test]
fn update_taxonomy_matches_the_script_mode() {
    // Each case runs twice, in order, on twin engines: as an `--updates`
    // line through the script interpreter (`parse_update_script`, then
    // `Mutation::apply`), and as the same op over the wire. Both fail
    // with code 7 and the same reason after the `update script line N:`
    // prefix, or both succeed.
    let cases = [
        ("add 0 1", Some("edge 0 1 already exists")),
        ("del 0 9", Some("unknown node 9")),
        ("del 0 5", Some("edge 0 5 does not exist")),
        (
            "setw 0 1 2.0",
            Some("setw 0 1 requires --weighted (graph has no weights)"),
        ),
        ("add 4 4", Some("self-loop add 4 4 (simple graph)")),
        (
            "add 0 5 -2.0",
            Some("weight -2 must be finite and strictly positive"),
        ),
        ("add 0 9", None), // a fresh id creates a node
    ];
    let wire: String = cases
        .iter()
        .map(|(line, _)| {
            let t: Vec<&str> = line.split(' ').collect();
            let w = t.get(3).map_or(String::new(), |w| format!(",\"w\":{w}"));
            let (action, u, v) = (t[0], t[1], t[2]);
            format!("{{\"op\":\"update\",\"action\":\"{action}\",\"u\":{u},\"v\":{v}{w}}}\n")
        })
        .collect();
    let (engine, original) = demo_engine();
    let server = bind(engine, AlgoSpec::new("fpa"), original, 8);
    let replies = replies(&server, &wire);
    assert_eq!(replies.len(), cases.len() + 1, "{replies:?}");

    let (script_engine, original) = demo_engine();
    let script_ids = IdSpace::new(original);
    for (i, (line, expected)) in cases.iter().enumerate() {
        let script = parse_update_script(line).and_then(|ops| match &ops[..] {
            [(n, UpdateOp::Mutate(m))] => m.apply(&script_engine, &script_ids, *n),
            other => panic!("{line}: not one mutation: {other:?}"),
        });
        let reply = Json::parse(&replies[i]).unwrap();
        match expected {
            Some(reason) => {
                let err = script.expect_err(line);
                let code = reply.get("code").and_then(Json::as_u64);
                assert_eq!((err.exit_code(), code), (7, Some(7)), "{reply:?}");
                assert_eq!(err.to_string(), format!("update script line 1: {reason}"));
                let text = reply.get("error").unwrap().as_str().unwrap();
                assert_eq!(text, format!("update script line {}: {reason}", i + 1));
            }
            None => {
                assert_eq!(script.unwrap_or_else(|e| panic!("{line}: {e}")), None);
                assert_eq!(reply_type(&reply), Some("update"));
                assert_eq!(reply.get("nodes").unwrap().as_u64(), Some(7));
                assert_eq!(script_engine.store().n(), 7);
            }
        }
    }
    assert_eq!(script_ids.map_query(&[9]).unwrap(), vec![6]);
}

#[test]
fn a_reply_cached_under_one_id_space_is_rendered_again_under_another() {
    // Two daemons over one engine, so one cache, naming its nodes
    // through different id maps.
    let (engine, _) = demo_engine();
    let a = bind(engine.clone(), AlgoSpec::new("fpa"), (0..6).collect(), 8);
    let b = bind(
        engine.clone(),
        AlgoSpec::new("fpa"),
        (100..106).collect(),
        8,
    );
    let query = |node: u64| format!("{{\"op\":\"query\",\"nodes\":[{node}]}}\n");
    // A miss, the first hit (which keeps the rendered tail) and a hit
    // that copies it: three identical lines.
    let under_a = replies(&a, &query(0).repeat(3));
    assert!(
        under_a[..3].iter().all(|line| *line == under_a[0]),
        "{under_a:?}"
    );
    let bytes = engine.cache().bytes();
    // Under the other map the same entry hits, and is rendered in that
    // map's ids rather than copied.
    let under_b = replies(&b, &query(100).repeat(2));
    let community = |line: &Json| -> Vec<u64> {
        let ids = line.get("community").unwrap().as_arr().unwrap();
        ids.iter().map(|v| v.as_u64().unwrap()).collect()
    };
    let under_a = community(&Json::parse(&under_a[0]).unwrap());
    let want: Vec<u64> = under_a.iter().map(|v| v + 100).collect();
    for line in &under_b[..2] {
        let line = Json::parse(line).unwrap();
        let query = line.get("query").unwrap();
        assert_eq!(query, &Json::Arr(vec![Json::UInt(100)]));
        assert_eq!(community(&line), want, "{line:?}");
    }
    assert_eq!((engine.cache().hits(), engine.cache().misses()), (4, 1));
    assert_eq!(engine.cache().bytes(), bytes, "the first map's bytes stay");
}

/// `cache_bytes` on the karate club (the `--demo` graph): a served entry
/// holds its query ids, 4 bytes each, and its packed round with no
/// removal order; the first hit of an entry adds exactly its reply tail
/// (from `algo` on) and newline.
#[test]
fn serve_cache_bytes_count_the_ids_replies_carry() {
    let engine = Engine::from_graph(dmcs::gen::karate::karate());
    let server = bind(engine, AlgoSpec::new("fpa"), (0..34).collect(), 64);
    // Twenty distinct queries, every one a miss, then `stats`, a repeat
    // of the first query and `stats` again.
    let queries: Vec<String> = (0..16)
        .map(|q| format!("[{q}]"))
        .chain(["[0,33]", "[1,2]", "[5,16]", "[23,31,32]"].map(String::from))
        .collect();
    let ask = |nodes: &String| format!("{{\"op\":\"query\",\"nodes\":{nodes}}}\n");
    let stats = "{\"op\":\"stats\"}\n";
    let script: String = queries.iter().map(ask).collect::<String>() + stats;
    let replies = replies(&server, &(script + &ask(&queries[0]) + stats));
    let cache_bytes = |stats: &str| {
        let stats = Json::parse(stats).unwrap();
        stats.get("cache_bytes").unwrap().as_u64().unwrap()
    };

    // An entry counts 4 bytes per query id and its packed round: 8 bytes
    // of DM, then LEB128 varints for the iteration count, the
    // community's length, each community id's zigzag delta from the one
    // before (the first from 0) and the empty removal order's length.
    // The demo's original ids are its dense ids.
    let varint = |x: u64| u64::from((64 - x.leading_zeros()).max(1).div_ceil(7));
    let mut bytes = 0;
    for reply in &replies[..20] {
        let v = Json::parse(reply).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{reply}");
        let ids = |key| -> Vec<u64> {
            let ids = v.get(key).unwrap().as_arr().unwrap();
            ids.iter().map(|id| id.as_u64().unwrap()).collect()
        };
        let community = ids("community");
        let mut prev = 0;
        let deltas: u64 = community
            .iter()
            .map(|&id| {
                let delta = id as i64 - prev;
                prev = id as i64;
                varint(((delta << 1) ^ (delta >> 63)) as u64)
            })
            .sum();
        let iterations = v.get("iterations").unwrap().as_u64().unwrap();
        let packed = 8 + varint(iterations) + varint(community.len() as u64) + deltas + 1;
        bytes += 4 * ids("query").len() as u64 + packed;
    }
    assert!(
        replies[20].contains("\"cache_misses\":20"),
        "{}",
        replies[20]
    );
    assert_eq!(cache_bytes(&replies[20]), bytes, "{}", replies[20]);

    // The first repeat keeps its reply tail in the entry.
    let repeat = &replies[21];
    assert_eq!(repeat, &replies[0]);
    let tail = &repeat[repeat.find(",\"algo\"").unwrap()..];
    let want = bytes + tail.len() as u64 + 1;
    assert_eq!(cache_bytes(&replies[22]), want, "{}", replies[22]);
}

/// `mirror_served` counts a connection's mirror-served queries across
/// `repin`, which replaces the connection's session; multi-node queries
/// run on the mirror with the identity layout's bytes.
#[test]
fn mirror_served_survives_repin_and_counts_multi_node_queries() {
    let script = "{\"op\":\"query\",\"nodes\":[0]}\n\
                  {\"op\":\"repin\"}\n\
                  {\"op\":\"query\",\"nodes\":[33]}\n\
                  {\"op\":\"query\",\"nodes\":[0,33]}\n\
                  {\"op\":\"stats\"}\n";
    let mut multi = Vec::new();
    for layout in [LayoutPolicy::Bfs, LayoutPolicy::Identity] {
        let engine = Engine::from_graph(dmcs::gen::karate::karate());
        engine.store().set_layout_policy(layout);
        let server = bind(engine, AlgoSpec::new("fpa"), (0..34).collect(), 64);
        let replies = replies(&server, script);
        multi.push(zero_timings(&replies[3]));
        let expect = if layout == LayoutPolicy::Bfs { 3 } else { 0 };
        // `stats`, then the closing summary.
        for reply in &replies[4..6] {
            let reply = Json::parse(reply).unwrap();
            let served = reply.get("mirror_served").and_then(Json::as_u64);
            assert_eq!(served, Some(expect), "{layout} {reply:?}");
            assert_eq!(reply.get("plan"), None, "a connection never plans");
        }
    }
    assert!(multi[0].starts_with("{\"type\":\"response\""), "{multi:?}");
    assert_eq!(multi[0], multi[1], "mirror bytes equal identity bytes");
}

/// One op of a random wire transcript, over [`WIRE_IDS`].
#[derive(Debug, Clone, Copy)]
enum WireOp {
    /// Query `WIRE_IDS[a]`, plus `WIRE_IDS[b]` when `b` indexes it,
    /// tagged with `WIRE_TAGS[tag]`: a top-`k` enumeration when `k` is
    /// not 0.
    Query {
        a: usize,
        b: usize,
        tag: usize,
        k: usize,
    },
    /// Add the edge `WIRE_IDS[a]`–`WIRE_IDS[b]`, of weight
    /// `WIRE_WEIGHTS[w]` on a weighted store.
    Add { a: usize, b: usize, w: usize },
    /// Delete the `pick`-th live edge (modulo the edge count).
    Del { pick: usize },
    /// Set the weight of the `pick`-th live edge to `WIRE_WEIGHTS[w]`.
    SetW { pick: usize, w: usize },
    /// Pin the connection's session to the current graph.
    Repin,
}

/// Original ids: the twelve loaded nodes, shuffled so that sorting after
/// mapping shows, and three fresh ids (5, 15, 25) an `add` creates.
const WIRE_IDS: [u64; 15] = [50, 10, 5, 40, 0, 15, 30, 20, 25, 70, 60, 110, 90, 100, 80];

/// Tags with quotes, backslashes, control characters and non-ASCII text;
/// `None` sends no tag.
const WIRE_TAGS: [Option<&str>; 6] = [
    None,
    Some("plain"),
    Some("q \"t\" \\ end"),
    Some("ctl \u{1}\t\n\u{1f}"),
    Some("ü 社区 é"),
    Some(""),
];

/// The weights an `add` or `setw` sets on a weighted store.
const WIRE_WEIGHTS: [f64; 4] = [0.5, 1.0, 1.5, 2.5];

fn wire_op() -> impl Strategy<Value = WireOp> {
    // Six in ten ops query the first nine ids (so the same query repeats,
    // hitting the cache), one in three of them as a top-1 or top-2
    // enumeration; the rest add, delete, reweigh or repin.
    (0u8..10).prop_flat_map(|kind| {
        (0..WIRE_IDS.len()).prop_flat_map(move |a| {
            (0..2 * WIRE_IDS.len()).prop_flat_map(move |b| {
                (0..WIRE_TAGS.len()).prop_flat_map(move |tag| {
                    (0..6usize).prop_map(move |k| match kind {
                        0..=5 => WireOp::Query {
                            a: a % 9,
                            b,
                            tag,
                            k: k.saturating_sub(3).min(2),
                        },
                        6 => WireOp::Add {
                            a,
                            b: b % WIRE_IDS.len(),
                            w: k % WIRE_WEIGHTS.len(),
                        },
                        7 => WireOp::Del { pick: b },
                        8 => WireOp::SetW {
                            pick: b,
                            w: k % WIRE_WEIGHTS.len(),
                        },
                        _ => WireOp::Repin,
                    })
                })
            })
        })
    })
}

/// The graph at one store version: its node count and weighted edges,
/// in dense ids.
#[derive(Debug, Clone)]
struct State {
    n: usize,
    edges: BTreeMap<(NodeId, NodeId), f64>,
}

impl State {
    /// The graph, rebuilt from scratch, with its weights when `weighted`.
    fn graph(&self, weighted: bool) -> Graph {
        if !weighted {
            let edges: Vec<(NodeId, NodeId)> = self.edges.keys().copied().collect();
            return GraphBuilder::from_edges(self.n, &edges);
        }
        let mut b = GraphBuilder::weighted(self.n);
        for (&(u, v), &w) in &self.edges {
            b.add_weighted_edge(u, v, w);
        }
        b.build()
    }
}

/// The reference the wire proptest checks the daemon against. One
/// connection writes, so its updates fix what every version holds:
/// `states[v]` is the graph at store version `v`, and `original` names
/// every node in creation order.
struct WireModel {
    original: Vec<u64>,
    states: Vec<State>,
}

impl WireModel {
    fn live(&self) -> &State {
        self.states.last().expect("version 0")
    }

    /// The current version.
    fn version(&self) -> u64 {
        self.states.len() as u64 - 1
    }

    /// One effective mutation: a new version of the graph.
    fn bump(&mut self, mutate: impl FnOnce(&mut State)) {
        let mut next = self.live().clone();
        mutate(&mut next);
        self.states.push(next);
    }

    fn dense(&self, raw: u64) -> Option<NodeId> {
        self.original
            .iter()
            .position(|&r| r == raw)
            .map(|d| d as NodeId)
    }

    /// The dense id of `raw`, created when unseen (as an `add` does, a
    /// version of its own).
    fn dense_or_create(&mut self, raw: u64) -> NodeId {
        self.dense(raw).unwrap_or_else(|| {
            self.original.push(raw);
            self.bump(|s| s.n += 1);
            (self.original.len() - 1) as NodeId
        })
    }

    /// The `pick`-th live edge in original ids (an absent one when the
    /// graph has none), and its dense key.
    fn pick_edge(&self, pick: usize) -> ((u64, u64), (NodeId, NodeId)) {
        let edges = &self.live().edges;
        let key = edges.keys().nth(pick % edges.len().max(1)).copied();
        let (du, dv) = key.unwrap_or((0, 1));
        let raw = (self.original[du as usize], self.original[dv as usize]);
        (raw, (du, dv))
    }
}

/// What one reply of a connection must be.
#[derive(Debug)]
enum Expect {
    /// `stats`, reporting the version the connection pinned.
    Stats,
    /// A query's `response` or `topk` line. `known` is how many ids the
    /// daemon knew when the writer sent it; `None` for a reader, whose
    /// queries race the writer.
    Query {
        raw: Vec<u64>,
        tag: Option<&'static str>,
        k: usize,
        known: Option<usize>,
    },
    /// An `update` line at this version, or (`None`) an `error` line.
    Update(Option<u64>),
    /// `repin`, reporting the version now pinned.
    Repin,
}

/// Append `op`'s request line to `script` and its expectation to
/// `expects`. Updates go only to the writer (`model` is `Some`), whose
/// model they advance; a reader skips them.
fn script_op(
    op: WireOp,
    weighted: bool,
    model: Option<&mut WireModel>,
    script: &mut String,
    expects: &mut Vec<Expect>,
) {
    let expect = match (op, model) {
        (WireOp::Query { a, b, tag, k }, model) => {
            let mut raw = vec![WIRE_IDS[a]];
            if b < WIRE_IDS.len() && b != a {
                raw.push(WIRE_IDS[b]);
            }
            let tag = WIRE_TAGS[tag];
            let nodes = Json::Arr(raw.iter().map(|&id| Json::UInt(id)).collect());
            *script += &format!("{{\"op\":\"query\",\"nodes\":{}", nodes.render());
            if let Some(t) = tag {
                *script += &format!(",\"tag\":{}", Json::str(t).render());
            }
            if k > 0 {
                *script += &format!(",\"k\":{k}");
            }
            *script += "}\n";
            let known = model.map(|m| m.original.len());
            Expect::Query { raw, tag, k, known }
        }
        (WireOp::Repin, _) => {
            *script += "{\"op\":\"repin\"}\n";
            Expect::Repin
        }
        (_, None) => return,
        (WireOp::Add { a, b, w }, Some(model)) => {
            let (u, v, w) = (WIRE_IDS[a], WIRE_IDS[b], WIRE_WEIGHTS[w]);
            let weight = if weighted {
                format!(",\"w\":{w}")
            } else {
                String::new()
            };
            *script +=
                &format!("{{\"op\":\"update\",\"action\":\"add\",\"u\":{u},\"v\":{v}{weight}}}\n");
            if u == v {
                Expect::Update(None)
            } else {
                let (du, dv) = (model.dense_or_create(u), model.dense_or_create(v));
                let key = (du.min(dv), du.max(dv));
                if model.live().edges.contains_key(&key) {
                    Expect::Update(None)
                } else {
                    model.bump(|s| {
                        s.edges.insert(key, if weighted { w } else { 1.0 });
                    });
                    Expect::Update(Some(model.version()))
                }
            }
        }
        (WireOp::Del { pick }, Some(model)) => {
            let ((u, v), key) = model.pick_edge(pick);
            *script += &format!("{{\"op\":\"update\",\"action\":\"del\",\"u\":{u},\"v\":{v}}}\n");
            if model.live().edges.contains_key(&key) {
                model.bump(|s| {
                    s.edges.remove(&key);
                });
                Expect::Update(Some(model.version()))
            } else {
                Expect::Update(None)
            }
        }
        (WireOp::SetW { pick, w }, Some(model)) => {
            let ((u, v), key) = model.pick_edge(pick);
            let w = WIRE_WEIGHTS[w];
            *script += &format!(
                "{{\"op\":\"update\",\"action\":\"setw\",\"u\":{u},\"v\":{v},\"w\":{w}}}\n"
            );
            // A laneless store refuses every `setw`; a weighted one
            // answers an existing edge, and moves the version only when
            // its weight changes.
            match model.live().edges.get(&key) {
                Some(&old) if weighted => {
                    if old != w {
                        model.bump(|s| {
                            s.edges.insert(key, w);
                        });
                    }
                    Expect::Update(Some(model.version()))
                }
                _ => Expect::Update(None),
            }
        }
    };
    expects.push(expect);
}

/// The reply a cache-less session on `state` gives to a query of
/// `dense`, timings zeroed.
fn reference_reply(
    state: &State,
    weighted: bool,
    spec: &AlgoSpec,
    dense: Vec<NodeId>,
    tag: Option<&str>,
    k: usize,
    original: &[u64],
) -> String {
    let snapshot = Snapshot::freeze(state.graph(weighted));
    let mut reference = Session::new(snapshot, spec).unwrap();
    let (mut line, mut writer) = (String::new(), LineWriter::new());
    if k > 0 {
        let outcome = reference.top_k(&dense, k);
        writer.topk(&mut line, &outcome, k, tag, &dense, Some(original));
    } else {
        let mut request = QueryRequest::new(dense);
        request.tag = tag.map(str::to_string);
        let resp = reference.query(&request).unwrap();
        writer.response(&mut line, &resp, Some(original));
    }
    zero_timings(line.trim_end())
}

/// Why one connection's `replies` break `expects`, if they do. Each
/// answer must equal a cache-less session's on the graph at the version
/// the connection last reported pinning.
fn connection_violation(
    replies: &[String],
    expects: &[Expect],
    model: &WireModel,
    spec: &AlgoSpec,
    weighted: bool,
) -> Option<String> {
    if replies.len() != expects.len() + 1 {
        return Some(format!(
            "{} replies to {} requests",
            replies.len(),
            expects.len()
        ));
    }
    let mut pinned = &model.states[0];
    for (i, (got, expect)) in replies.iter().zip(expects).enumerate() {
        let Ok(reply) = Json::parse(got) else {
            return Some(format!("reply {i} is not JSON: {got}"));
        };
        let ty = reply_type(&reply).unwrap_or("<none>");
        let uint = |key| reply.get(key).and_then(Json::as_u64);
        let wrong = |why: &str| Some(format!("reply {i} ({why}): {got}"));
        match expect {
            Expect::Stats | Expect::Repin => {
                let (want, key) = match expect {
                    Expect::Stats => ("stats", "pinned_version"),
                    _ => ("repin", "version"),
                };
                // `repin` counts the graph it pins; `stats` the live one.
                let pins = |s: &State| {
                    let counts = (uint("nodes"), uint("edges"));
                    want == "stats" || counts == (Some(s.n as u64), Some(s.edges.len() as u64))
                };
                match uint(key).and_then(|v| model.states.get(v as usize)) {
                    Some(state) if ty == want && pins(state) => pinned = state,
                    _ => {
                        return wrong(&format!("a {want} reply pinning a version the writer made"))
                    }
                }
            }
            Expect::Update(version) => {
                let want = version.map_or("error", |_| "update");
                if ty != want || (version.is_some() && uint("version") != *version) {
                    return wrong(&format!("{want} at version {version:?}"));
                }
            }
            Expect::Query { raw, tag, k, known } => {
                let Some(dense) = raw
                    .iter()
                    .map(|&id| model.dense(id))
                    .collect::<Option<Vec<_>>>()
                else {
                    if ty == "error" {
                        continue;
                    }
                    return wrong("an unknown-node error for an id never created");
                };
                // The daemon knows every id of the graph its connection
                // pinned, and none the writer has yet to make. A reader
                // asking for an id made after its pin races that `add`:
                // an unknown-node error and an answer are both right.
                let top = *dense.iter().max().expect("a query names a node") as usize;
                let (lo, hi) = known.map_or((pinned.n, model.original.len()), |k| (k, k));
                if ty == "error" && top >= lo {
                    continue;
                }
                if top >= hi {
                    return wrong("an unknown-node error for an id not yet created");
                }
                let want =
                    reference_reply(pinned, weighted, spec, dense, *tag, *k, &model.original);
                if zero_timings(got) != want {
                    return wrong(&format!("the cache-less reply {want}"));
                }
            }
        }
    }
    let last = replies.last().expect("one reply more than the requests");
    (!last.starts_with("{\"type\":\"summary\"")).then(|| format!("last reply: {last}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_replies_equal_a_cacheless_session_on_the_pinned_graph(
        writer_ops in proptest::collection::vec(wire_op(), 0..50),
        reader_ops in proptest::collection::vec(proptest::collection::vec(wire_op(), 0..30), 1..3),
        weighted in proptest::bool::weighted(0.5),
        label in 0usize..3,
    ) {
        // Three components, each inside one of three shards, served by a
        // writer connection and one or two readers at once.
        let base: [(NodeId, NodeId); 12] = [
            (0, 1), (0, 2), (1, 2), (2, 3),
            (4, 5), (5, 6), (6, 7), (4, 7), (4, 6),
            (8, 9), (9, 10), (10, 11),
        ];
        let loaded: Vec<u64> = WIRE_IDS.iter().copied().filter(|id| id % 10 == 0).collect();
        let state = State { n: 12, edges: base.iter().map(|&e| (e, 1.0)).collect() };
        // `kc` has no weighted form: a weighted store asks `fpa` twice as often.
        let spec = match (weighted, label) {
            (true, 0) | (true, 2) => AlgoSpec::new("fpa").weighted(),
            (true, _) => AlgoSpec::new("nca").weighted(),
            (false, l) => AlgoSpec::new(["fpa", "nca", "kc"][l]),
        };
        let engine = Engine::from_graph_sharded(state.graph(weighted), 3);
        let server = bind(engine, spec.clone(), loaded.clone(), 8);
        let mut model = WireModel { original: loaded, states: vec![state] };

        // Every connection first asks `stats` for the version it pinned.
        let mut scripts = vec![(String::from("{\"op\":\"stats\"}\n"), vec![Expect::Stats])];
        for &op in &writer_ops {
            let (script, expects) = &mut scripts[0];
            script_op(op, weighted, Some(&mut model), script, expects);
        }
        for ops in &reader_ops {
            let (mut script, mut expects) = (String::from("{\"op\":\"stats\"}\n"), vec![Expect::Stats]);
            for &op in ops {
                script_op(op, weighted, None, &mut script, &mut expects);
            }
            scripts.push((script, expects));
        }
        let served: Vec<Vec<String>> = std::thread::scope(|scope| {
            let connections: Vec<_> = scripts
                .iter()
                .map(|(script, _)| scope.spawn(|| replies(&server, script)))
                .collect();
            connections.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (i, (replies, (_, expects))) in served.iter().zip(&scripts).enumerate() {
            if let Some(why) = connection_violation(replies, expects, &model, &spec, weighted) {
                prop_assert!(
                    false,
                    "{:?}, connection {} of {}: {}\nwriter {:?}\nreaders {:?}",
                    spec, i, scripts.len(), why, writer_ops, reader_ops
                );
            }
        }
    }
}

/// The replies of `transcript` on a fresh demo daemon whose lines are at
/// most `max_line_bytes` long, read at most `chunk` bytes at a time;
/// `None` when serving it panics.
fn serve_fresh(transcript: &[u8], chunk: usize, max_line_bytes: usize) -> Option<Vec<u8>> {
    let (engine, original) = demo_engine();
    let server = bind_limited(engine, AlgoSpec::new("fpa"), original, 8, max_line_bytes);
    let served = || serve(&server, transcript, chunk);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(served)).ok()
}

/// The fuzzed daemon's line limit: deep enough for nesting past the
/// parser's cap to reach the parser.
const FUZZ_MAX: usize = 512;

/// Valid requests the wire fuzzer mutates. None is `shutdown`, which
/// ends the connection.
const FUZZ_REQUESTS: [&str; 8] = [
    r#"{"op":"query","nodes":[0]}"#,
    r#"{"op":"query","nodes":[3,5],"tag":"t"}"#,
    r#"{"op":"query","nodes":[1],"k":2}"#,
    r#"{"op":"update","action":"add","u":0,"v":4}"#,
    r#"{"op":"update","action":"del","u":0,"v":1}"#,
    r#"{"op":"update","action":"setw","u":0,"v":2,"w":2.5}"#,
    r#"{"op":"repin"}"#,
    r#"{"op":"stats"}"#,
];

/// Numbers out of every range the wire reads.
const FUZZ_HUGE: [&str; 6] = [
    r#"{"op":"query","nodes":[18446744073709551616]}"#,
    r#"{"op":"query","nodes":[18446744073709551615]}"#,
    r#"{"op":"query","nodes":[0],"k":18446744073709551615}"#,
    r#"{"op":"query","nodes":[1e400],"k":-1e-400}"#,
    r#"{"op":"update","action":"setw","u":0,"v":1,"w":1e400}"#,
    r#"{"op":"update","action":"add","u":-0,"v":1.5e3}"#,
];

/// splitmix64: each fuzzed line's bytes come from its own drawn seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One fuzzed request line from `seed`, without its newline (random
/// bytes may still hold one).
fn fuzz_line(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut line = FUZZ_REQUESTS[rng.below(FUZZ_REQUESTS.len())]
        .as_bytes()
        .to_vec();
    match rng.below(10) {
        // Random bytes.
        0 => return (0..rng.below(48)).map(|_| rng.next() as u8).collect(),
        // A valid request with bytes replaced, deleted or inserted.
        1 | 2 => {
            for _ in 0..=rng.below(3) {
                let (at, byte) = (rng.below(line.len()), rng.next() as u8);
                match rng.below(3) {
                    0 => line[at] = byte,
                    1 => {
                        line.remove(at);
                    }
                    _ => line.insert(at, byte),
                }
            }
        }
        // Nesting around the parser's depth cap.
        3 => {
            let depth = MAX_JSON_DEPTH - 2 + rng.below(8);
            let nodes = "[".repeat(depth) + &"]".repeat(depth);
            line = format!("{{\"op\":\"query\",\"nodes\":{nodes}}}").into_bytes();
        }
        // A tag cut inside a three-byte character, closed or not.
        4 => {
            line = br#"{"op":"query","nodes":[2],"tag":"a"#.to_vec();
            line.extend_from_slice(&"社".as_bytes()[..1 + rng.below(2)]);
            if rng.below(2) == 0 {
                line.extend_from_slice(br#""}"#);
            }
        }
        5 => line = FUZZ_HUGE[rng.below(FUZZ_HUGE.len())].as_bytes().to_vec(),
        // NULs.
        6 => {
            for _ in 0..=rng.below(3) {
                line.insert(rng.below(line.len() + 1), 0);
            }
        }
        // CRLF.
        7 => line.push(b'\r'),
        // Blank lines.
        8 => return [&b""[..], b" ", b"\t", b"\r", b" \t\r "][rng.below(5)].to_vec(),
        // A `stats` request padded to one byte either side of the limit.
        _ => {
            let pad = FUZZ_MAX - 1 + rng.below(3) - b"{\"op\":\"stats\"}".len();
            line = format!("{{\"op\":\"stats\"{}}}", " ".repeat(pad)).into_bytes();
        }
    }
    line
}

/// The reply types the framing rules promise for `transcript`: one per
/// complete line that is oversized or not blank (`stats` for an exact
/// stats request, any type otherwise: `None`), one for a non-empty torn
/// tail (oversized or not), then the `summary`.
fn promised_replies(transcript: &[u8]) -> Vec<Option<&'static str>> {
    let mut lines: Vec<&[u8]> = transcript.split(|&b| b == b'\n').collect();
    let tail = lines.pop().unwrap_or_default();
    let mut promised: Vec<Option<&str>> = Vec::new();
    for line in lines {
        if line == br#"{"op":"stats"}"# {
            promised.push(Some("stats"));
        } else if line.len() > FUZZ_MAX || !String::from_utf8_lossy(line).trim().is_empty() {
            promised.push(None);
        }
    }
    if !tail.is_empty() {
        promised.push(None);
    }
    promised.push(Some("summary"));
    promised
}

/// Why serving `transcript` breaks the wire's promises, if it does. It
/// is served whole and in reads of at most `chunk` bytes, each on a
/// fresh daemon: neither may panic, the whole run must give the promised
/// replies, each an object with a `type`, and both runs the same bytes
/// once timings are zeroed.
fn wire_violation(transcript: &[u8], chunk: usize) -> Option<String> {
    let serve = |chunk| serve_fresh(transcript, chunk, FUZZ_MAX);
    let (Some(whole), Some(chunked)) = (serve(usize::MAX), serve(chunk)) else {
        return Some("serving panicked".into());
    };
    let (Ok(whole), Ok(chunked)) = (String::from_utf8(whole), String::from_utf8(chunked)) else {
        return Some("a reply is not UTF-8".into());
    };
    let promised = promised_replies(transcript);
    let replies: Vec<&str> = whole.lines().collect();
    let (got, want) = (replies.len(), promised.len());
    if got != want {
        return Some(format!("{got} replies, {want} promised: {replies:?}"));
    }
    for (reply, want) in replies.iter().zip(&promised) {
        let parsed = Json::parse(reply).ok();
        match (parsed.as_ref().and_then(reply_type), want) {
            (None, _) => return Some(format!("not an object with a type: {reply}")),
            (Some(ty), Some(want)) if ty != *want => {
                return Some(format!("a {ty} reply where {want} was promised: {reply}"))
            }
            _ => {}
        }
    }
    let zeroed = |text: &str| text.lines().map(zero_timings).collect::<Vec<_>>();
    if zeroed(&whole) != zeroed(&chunked) {
        return Some(format!("reads of {chunk} bytes change the replies"));
    }
    None
}

/// Shrink a transcript that `fails`: drop whole lines while it still
/// fails, then single bytes.
fn minimize(mut transcript: Vec<u8>, fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut at = 0;
    while at < transcript.len() {
        let end = transcript[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(transcript.len(), |p| at + p + 1);
        let mut shorter = transcript.clone();
        shorter.drain(at..end);
        if fails(&shorter) {
            transcript = shorter;
        } else {
            at = end;
        }
    }
    let mut at = 0;
    while at < transcript.len() {
        let mut shorter = transcript.clone();
        shorter.remove(at);
        if fails(&shorter) {
            transcript = shorter;
        } else {
            at += 1;
        }
    }
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fuzzed_wire_bytes_get_the_replies_framing_promises(
        seeds in proptest::collection::vec(0u64..u64::MAX, 0..24),
        tail in 0u64..u64::MAX,
        cut in 0usize..600,
        chunk in 1usize..32,
    ) {
        // Fuzzed lines, a `stats` request that must be answered as usual,
        // and a torn tail: a fuzzed line, newlines removed, cut short or
        // not (a padded `stats` line can tear oversized).
        let mut transcript = Vec::new();
        for &seed in &seeds {
            transcript.extend(fuzz_line(seed));
            transcript.push(b'\n');
        }
        transcript.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let torn = fuzz_line(tail).into_iter().filter(|&b| b != b'\n').take(cut);
        transcript.extend(torn);
        // `shutdown` would end the connection early.
        if transcript.windows(8).any(|w| w == b"shutdown") {
            return Ok(());
        }
        if let Some(why) = wire_violation(&transcript, chunk) {
            let small = minimize(transcript, |t| wire_violation(t, chunk).is_some());
            let why_small = wire_violation(&small, chunk).unwrap_or(why);
            prop_assert!(
                false,
                "{why_small}\nminimized transcript, reads of {chunk} bytes: b\"{}\"",
                small.escape_ascii()
            );
        }
    }
}
