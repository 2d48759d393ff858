//! Integration tests of the `dmcs serve` daemon over real sockets:
//! unix and TCP round trips, framing edge cases (torn, oversized and
//! pipelined lines), a multi-connection soak with interleaved updates,
//! and graceful shutdown hygiene (no stray socket file, all threads
//! joined).
#![cfg(unix)]

use dmcs_engine::output::Json;
use dmcs_engine::registry::AlgoSpec;
use dmcs_engine::{Engine, Server, ServerConfig, ServerHandle};
use dmcs_graph::{GraphBuilder, LayoutPolicy};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Two triangles bridged by 2–3; original ids 0..6.
fn demo_engine() -> (Engine, Vec<u64>) {
    let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
    (Engine::from_graph(g), (0..6).collect())
}

/// A per-test unix socket path that cannot collide across the test
/// binary's threads.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dmcs-test-{}-{tag}.sock", std::process::id()))
}

type Spawned = (
    ServerHandle,
    Option<PathBuf>,
    Option<std::net::SocketAddr>,
    std::thread::JoinHandle<dmcs_engine::ServerStats>,
);

/// Bind an FPA server over the demo engine on the given config and run
/// it on a background thread. Returns the handle (for shutdown) and the
/// join handle.
fn spawn_server(cfg: ServerConfig) -> Spawned {
    let (engine, original) = demo_engine();
    spawn_engine(engine, original, AlgoSpec::new("fpa"), &cfg)
}

/// [`spawn_server`] for a given engine and algorithm.
fn spawn_engine(engine: Engine, original: Vec<u64>, spec: AlgoSpec, cfg: &ServerConfig) -> Spawned {
    let server = Server::bind(engine, spec, original, cfg).expect("bind");
    let handle = server.handle();
    let unix = server.unix_path().map(PathBuf::from);
    let tcp = server.tcp_addr();
    let join = std::thread::spawn(move || server.run());
    (handle, unix, tcp, join)
}

/// The karate club (original ids 0..34) served on TCP with `layout`.
fn spawn_karate(spec: AlgoSpec, layout: LayoutPolicy) -> Spawned {
    let engine = Engine::from_graph(dmcs_gen::karate::karate());
    engine.store().set_layout_policy(layout);
    let cfg = ServerConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    };
    spawn_engine(engine, (0..34).collect(), spec, &cfg)
}

/// A TCP connection as a (writer, line reader) pair.
fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// One request line out, one reply line in.
fn round_trip<S: Write, R: BufRead>(w: &mut S, r: &mut R, req: &str) -> Json {
    writeln!(w, "{req}").expect("write request");
    w.flush().expect("flush");
    let mut line = String::new();
    r.read_line(&mut line).expect("read reply");
    assert!(line.ends_with('\n'), "reply is a complete line: {line:?}");
    Json::parse(line.trim()).expect("reply parses")
}

fn reply_type(v: &Json) -> &str {
    v.get("type").and_then(Json::as_str).expect("typed reply")
}

#[test]
fn unix_round_trip_and_socket_file_hygiene() {
    let path = socket_path("unix-rt");
    let (_handle, unix, _tcp, join) = spawn_server(ServerConfig {
        unix_path: Some(path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    });
    assert_eq!(unix.as_deref(), Some(path.as_path()));
    assert!(path.exists(), "socket file exists while serving");

    let stream = UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    let resp = round_trip(
        &mut stream,
        &mut reader,
        r#"{"op":"query","nodes":[0],"tag":"u"}"#,
    );
    assert_eq!(reply_type(&resp), "response");
    assert_eq!(resp.get("tag").and_then(Json::as_str), Some("u"));
    assert_eq!(resp.get("protocol_version").and_then(Json::as_u64), Some(1));
    assert!(resp
        .get("server")
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("dmcs/"));

    let stats = round_trip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    assert_eq!(reply_type(&stats), "stats");
    assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(1));

    let bye = round_trip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    assert_eq!(reply_type(&bye), "shutdown");
    // The connection still flushes its summary line before closing.
    let mut line = String::new();
    reader.read_line(&mut line).expect("summary");
    let summary = Json::parse(line.trim()).expect("summary parses");
    assert_eq!(reply_type(&summary), "summary");
    assert_eq!(summary.get("queries").and_then(Json::as_u64), Some(1));

    let stats = join.join().expect("server thread joins");
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.served, 1);
    assert!(!path.exists(), "socket file unlinked after shutdown");
}

#[test]
fn tcp_round_trip_with_updates_and_repin() {
    let (handle, _unix, tcp, join) = spawn_server(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let addr = tcp.expect("ephemeral tcp port resolved");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    let before = round_trip(&mut stream, &mut reader, r#"{"op":"query","nodes":[0]}"#);
    assert_eq!(reply_type(&before), "response");

    let up = round_trip(
        &mut stream,
        &mut reader,
        r#"{"op":"update","action":"add","u":0,"v":3}"#,
    );
    assert_eq!(reply_type(&up), "update");
    assert_eq!(up.get("version").and_then(Json::as_u64), Some(1));

    // Still pinned: the same query replays the pre-update answer.
    let pinned = round_trip(&mut stream, &mut reader, r#"{"op":"query","nodes":[0]}"#);
    assert_eq!(pinned, before);

    let repin = round_trip(&mut stream, &mut reader, r#"{"op":"repin"}"#);
    assert_eq!(reply_type(&repin), "repin");
    assert_eq!(repin.get("version").and_then(Json::as_u64), Some(1));

    let after = round_trip(&mut stream, &mut reader, r#"{"op":"query","nodes":[0]}"#);
    assert_eq!(reply_type(&after), "response");
    assert_ne!(after, before, "the new epoch serves the mutated graph");

    handle.shutdown();
    drop(stream);
    drop(reader);
    let stats = join.join().expect("server thread joins");
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.served, 4);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (handle, _unix, tcp, join) = spawn_server(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(tcp.unwrap()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    // One write, several requests: replies must come back in order.
    let batch = r#"{"op":"query","nodes":[0],"tag":"first"}
{"op":"query","nodes":[3],"tag":"second"}
{"op":"stats"}
{"op":"query","nodes":[5],"tag":"third"}
"#;
    stream.write_all(batch.as_bytes()).expect("write batch");
    stream.flush().expect("flush");

    let mut tags = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let v = Json::parse(line.trim()).expect("parses");
        match reply_type(&v) {
            "response" => tags.push(v.get("tag").and_then(Json::as_str).unwrap().to_string()),
            "stats" => tags.push("<stats>".into()),
            other => panic!("unexpected reply type {other}"),
        }
    }
    assert_eq!(tags, ["first", "second", "<stats>", "third"]);

    handle.shutdown();
    drop(stream);
    drop(reader);
    join.join().expect("server thread joins");
}

#[test]
fn torn_and_oversized_lines_over_a_real_socket() {
    let (handle, _unix, tcp, join) = spawn_server(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        max_line_bytes: 64,
        ..ServerConfig::default()
    });
    let addr = tcp.unwrap();

    // Oversized line: typed code-9 reply, then the connection resyncs.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let huge = format!("{{\"op\":\"query\",\"nodes\":[{}0]}}\n", "0,".repeat(200));
        stream.write_all(huge.as_bytes()).expect("write huge");
        let next = r#"{"op":"query","nodes":[1],"tag":"after"}"#;
        let resync = round_trip(&mut stream, &mut reader, next);
        // Depending on read interleaving the huge line's error may land
        // first; collect until the tagged response shows up.
        let mut seen_oversize = false;
        let mut current = resync;
        loop {
            match reply_type(&current) {
                "error" => {
                    assert_eq!(current.get("code").and_then(Json::as_u64), Some(9));
                    assert!(current
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap()
                        .contains("exceeds 64 bytes"));
                    seen_oversize = true;
                }
                "response" => {
                    assert_eq!(current.get("tag").and_then(Json::as_str), Some("after"));
                    break;
                }
                other => panic!("unexpected reply type {other}"),
            }
            let mut line = String::new();
            reader.read_line(&mut line).expect("next reply");
            current = Json::parse(line.trim()).expect("parses");
        }
        assert!(seen_oversize, "the oversized line got its typed reply");
    }

    // Torn line: close the write half mid-request; the server answers
    // with a typed code-9 reply and the summary, never hangs.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream
            .write_all(br#"{"op":"stats""#)
            .expect("write partial");
        stream.flush().expect("flush");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut line = String::new();
        reader.read_line(&mut line).expect("torn reply");
        let torn = Json::parse(line.trim()).expect("parses");
        assert_eq!(reply_type(&torn), "error");
        assert_eq!(torn.get("code").and_then(Json::as_u64), Some(9));
        assert!(torn
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("torn line"));
        line.clear();
        reader.read_line(&mut line).expect("summary");
        assert_eq!(reply_type(&Json::parse(line.trim()).unwrap()), "summary");
    }

    handle.shutdown();
    join.join().expect("server thread joins");
}

/// A deeply nested request used to recurse the JSON parser off the
/// connection thread's stack and abort the whole daemon. It fits under
/// the default line cap, so it reaches the parser: the reply must be a
/// typed code-9 error, and the same connection keeps serving.
#[test]
fn deeply_nested_line_is_a_bad_request_not_a_crash() {
    let (handle, _unix, tcp, join) = spawn_server(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(tcp.unwrap()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    let nested = format!("{{\"op\":\"query\",\"nodes\":{}", "[".repeat(60_000));
    let rejected = round_trip(&mut stream, &mut reader, &nested);
    assert_eq!(reply_type(&rejected), "error");
    assert_eq!(rejected.get("code").and_then(Json::as_u64), Some(9));

    let ok = round_trip(
        &mut stream,
        &mut reader,
        r#"{"op":"query","nodes":[0],"tag":"after"}"#,
    );
    assert_eq!(reply_type(&ok), "response");
    assert_eq!(ok.get("tag").and_then(Json::as_str), Some("after"));

    handle.shutdown();
    drop(stream);
    drop(reader);
    let stats = join.join().expect("server thread joins");
    assert_eq!(stats.served, 1, "a bad request is answered, not served");
}

#[test]
fn overload_replies_are_typed_code_8() {
    let (handle, _unix, tcp, join) = spawn_server(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(tcp.unwrap()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    let rejected = round_trip(&mut stream, &mut reader, r#"{"op":"query","nodes":[0]}"#);
    assert_eq!(reply_type(&rejected), "error");
    assert_eq!(rejected.get("code").and_then(Json::as_u64), Some(8));

    // Control ops are exempt from admission: clients can still observe
    // and drain an overloaded server.
    let stats = round_trip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    assert_eq!(reply_type(&stats), "stats");
    assert_eq!(stats.get("queue_cap").and_then(Json::as_u64), Some(0));

    handle.shutdown();
    drop(stream);
    drop(reader);
    join.join().expect("server thread joins");
}

/// The acceptance soak: 4 concurrent connections pinned to the same
/// epoch, queries pipelined while a fifth connection applies updates.
/// Every connection's replies must be byte-identical to the sequential
/// reference run (pinning + version-keyed cache make this exact, not
/// just approximate).
#[test]
fn soak_concurrent_connections_with_interleaved_updates() {
    let path = socket_path("soak");
    let (_handle, _unix, _tcp, join) = spawn_server(ServerConfig {
        unix_path: Some(path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    });

    const SCRIPT: [&str; 5] = [
        r#"{"op":"query","nodes":[0],"tag":"s1"}"#,
        r#"{"op":"query","nodes":[3],"tag":"s2"}"#,
        r#"{"op":"query","nodes":[0,1],"tag":"s3"}"#,
        r#"{"op":"query","nodes":[5],"tag":"s4"}"#,
        r#"{"op":"query","nodes":[0],"tag":"s1"}"#, // repeat of s1
    ];

    // Sequential reference on epoch 0 (also warms the shared cache).
    let reference: Vec<String> = {
        let stream = UnixStream::connect(&path).expect("connect ref");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        SCRIPT
            .iter()
            .map(|req| {
                writeln!(stream, "{req}").expect("write");
                let mut line = String::new();
                reader.read_line(&mut line).expect("reply");
                line
            })
            .collect()
    };
    assert_eq!(
        reference[0], reference[4],
        "repeat of the same query replays byte-identically"
    );

    // 4 clients connect and pin epoch 0 by completing SCRIPT[0] before
    // any update is applied.
    let mut clients: Vec<(UnixStream, BufReader<UnixStream>, Vec<String>)> = (0..4)
        .map(|_| {
            let stream = UnixStream::connect(&path).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            writeln!(stream, "{}", SCRIPT[0]).expect("write");
            let mut line = String::new();
            reader.read_line(&mut line).expect("pin reply");
            (stream, reader, vec![line])
        })
        .collect();

    // Interleaved updates on their own connection, concurrent with the
    // clients' remaining queries.
    let updater = {
        let path = path.clone();
        std::thread::spawn(move || {
            let stream = UnixStream::connect(&path).expect("connect updater");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            for req in [
                r#"{"op":"update","action":"add","u":0,"v":3}"#,
                r#"{"op":"update","action":"del","u":2,"v":3}"#,
                r#"{"op":"update","action":"add","u":6,"v":0}"#,
            ] {
                writeln!(stream, "{req}").expect("write update");
                let mut line = String::new();
                reader.read_line(&mut line).expect("update reply");
                let v = Json::parse(line.trim()).expect("parses");
                assert_eq!(reply_type(&v), "update", "{line}");
            }
        })
    };

    // Pipeline the rest of the script on every client concurrently.
    let worker_replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|(stream, reader, _)| {
                scope.spawn(move || {
                    let rest = SCRIPT[1..].join("\n") + "\n";
                    stream.write_all(rest.as_bytes()).expect("write rest");
                    stream.flush().expect("flush");
                    (1..SCRIPT.len())
                        .map(|_| {
                            let mut line = String::new();
                            reader.read_line(&mut line).expect("reply");
                            line
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    updater.join().unwrap();

    for (i, ((_, _, pinned), rest)) in clients.iter().zip(&worker_replies).enumerate() {
        let mut got = pinned.clone();
        got.extend(rest.iter().cloned());
        assert_eq!(
            got, reference,
            "client {i}: pinned-epoch replies are byte-identical to the sequential run"
        );
    }

    // Cache counters surface in stats; every connection and the server
    // shut down cleanly with no socket file left behind.
    let stream = UnixStream::connect(&path).expect("connect stats");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let stats = round_trip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    assert_eq!(reply_type(&stats), "stats");
    let hits = stats.get("cache_hits").and_then(Json::as_u64).unwrap();
    let misses = stats.get("cache_misses").and_then(Json::as_u64).unwrap();
    // 4 distinct epoch-0 queries compute once each; everything else
    // (the reference repeat + 4 clients x 5 queries) replays.
    assert_eq!(misses, 4, "distinct (query, epoch) pairs compute once");
    assert_eq!(hits, 21, "every repeated query is a cache hit");
    // 3 update ops, but `add 6 0` first creates node 6: 4 version bumps.
    assert_eq!(stats.get("version").and_then(Json::as_u64), Some(4));
    let bye = round_trip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    assert_eq!(reply_type(&bye), "shutdown");
    drop(clients);

    let final_stats = join.join().expect("server thread joins");
    assert_eq!(final_stats.connections, 7);
    assert_eq!(final_stats.served, 5 + 4 * 5 + 3);
    assert_eq!(final_stats.cache_hits, 21);
    assert_eq!(final_stats.cache_misses, 4);
    assert!(!path.exists(), "socket file unlinked after shutdown");
}

/// A connection pinned before an update added a node must get a typed
/// reply for that node, not a panic: the node's dense id is past the end
/// of the pinned snapshot. `kc` used to index its core array with it,
/// killing the connection thread without releasing its admission slot
/// and failing the drain.
#[test]
fn stale_pin_query_for_a_new_node_is_out_of_range_not_a_crash() {
    let (handle, _unix, tcp, join) = spawn_karate(AlgoSpec::new("kc"), LayoutPolicy::Identity);
    let addr = tcp.expect("tcp bound");
    let (mut a, mut a_reader) = connect(addr);
    let (mut b, mut b_reader) = connect(addr);

    let pinned = round_trip(&mut a, &mut a_reader, r#"{"op":"query","nodes":[0]}"#);
    assert_eq!(reply_type(&pinned), "response");
    let up = round_trip(
        &mut b,
        &mut b_reader,
        r#"{"op":"update","action":"add","u":0,"v":999}"#,
    );
    assert_eq!(reply_type(&up), "update");

    let stale = round_trip(&mut a, &mut a_reader, r#"{"op":"query","nodes":[999]}"#);
    assert_eq!(reply_type(&stale), "response");
    assert_eq!(stale.get("ok").and_then(Json::as_bool), Some(false));
    let error = stale
        .get("error")
        .and_then(Json::as_str)
        .expect("error text");
    assert!(error.contains("out of range"), "{error}");

    handle.shutdown();
    drop((a, a_reader, b, b_reader));
    join.join().expect("the daemon drains cleanly");
}

/// `mirror_served` counts a connection's mirror-served queries across
/// `repin`, which replaces the connection's session; multi-node queries
/// run on the mirror with the identity layout's bytes.
#[test]
fn mirror_served_survives_repin_and_counts_multi_node_queries() {
    const TRANSCRIPT: [&str; 5] = [
        r#"{"op":"query","nodes":[0]}"#,
        r#"{"op":"repin"}"#,
        r#"{"op":"query","nodes":[33]}"#,
        r#"{"op":"query","nodes":[0,33]}"#,
        r#"{"op":"stats"}"#,
    ];
    let without_seconds = |v: &Json| match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "seconds")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    let mut multi = Vec::new();
    for layout in [LayoutPolicy::Bfs, LayoutPolicy::Identity] {
        let (_handle, _unix, tcp, join) = spawn_karate(AlgoSpec::new("fpa"), layout);
        let (mut stream, mut reader) = connect(tcp.expect("tcp bound"));
        let replies: Vec<Json> = TRANSCRIPT
            .iter()
            .map(|req| round_trip(&mut stream, &mut reader, req))
            .collect();
        multi.push(without_seconds(&replies[3]));
        let bye = round_trip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
        assert_eq!(reply_type(&bye), "shutdown");
        let mut line = String::new();
        reader.read_line(&mut line).expect("summary");
        let summary = Json::parse(line.trim()).expect("summary parses");
        assert_eq!(reply_type(&summary), "summary");
        // The summary reports the plan `stats` reported on the same
        // connection.
        assert_eq!(summary.get("plan"), replies[4].get("plan"), "{layout}");
        let expect = if layout == LayoutPolicy::Bfs { 3 } else { 0 };
        for reply in [&replies[4], &summary] {
            assert_eq!(
                reply.get("mirror_served").and_then(Json::as_u64),
                Some(expect),
                "{layout} {}",
                reply_type(reply)
            );
        }
        join.join().expect("server thread joins");
    }
    assert_eq!(reply_type(&multi[0]), "response");
    assert_eq!(multi[0], multi[1], "mirror bytes equal identity bytes");
}
