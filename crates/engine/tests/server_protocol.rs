//! The `dmcs serve` daemon over real sockets: one round trip per
//! listener kind (unix and TCP), socket-file hygiene, and the daemon
//! shutting down with every thread joined. Everything that needs only a
//! stream runs in memory through `Server::serve_stream` (`tests/wire.rs`
//! at the repository root).
#![cfg(unix)]

use dmcs_engine::output::Json;
use dmcs_engine::registry::AlgoSpec;
use dmcs_engine::{Engine, Server, ServerConfig, ServerHandle};
use dmcs_graph::GraphBuilder;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

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
    let server = Server::bind(engine, AlgoSpec::new("fpa"), original, &cfg).expect("bind");
    let handle = server.handle();
    let unix = server.unix_path().map(PathBuf::from);
    let tcp = server.tcp_addr();
    let join = std::thread::spawn(move || server.run());
    (handle, unix, tcp, join)
}

/// A config listening on the unix socket `path` alone.
fn unix_config(path: &Path) -> ServerConfig {
    ServerConfig {
        unix_path: Some(path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    }
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
    // A stale socket file, as a crashed daemon leaves it, is replaced.
    let path = socket_path("unix-rt");
    drop(UnixListener::bind(&path).expect("a stale socket"));
    let (_handle, unix, _tcp, join) = spawn_server(unix_config(&path));
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

/// Any other file at the unix socket path stays as it was, and binding
/// fails with an I/O error (exit code 4) naming the path and why.
#[test]
fn a_unix_path_holding_a_regular_file_is_left_alone() {
    let path = socket_path("regular-file");
    std::fs::write(&path, "not a socket\n").expect("write the file");
    let (engine, original) = demo_engine();
    let bound = Server::bind(engine, AlgoSpec::new("fpa"), original, &unix_config(&path));
    let err = bound.err().expect("bind refuses the file");
    assert_eq!(err.exit_code(), 4, "{err}");
    let text = format!("{}: not a socket", path.display());
    assert!(err.to_string().ends_with(&text), "{err}");
    let kept = std::fs::read_to_string(&path).expect("the file survives");
    assert_eq!(kept, "not a socket\n");
    std::fs::remove_file(&path).expect("remove the file");
}
