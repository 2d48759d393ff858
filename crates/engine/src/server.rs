//! `dmcs serve` — a long-lived socket daemon fronting the typed engine
//! API with a versioned JSON-lines wire protocol.
//!
//! The daemon listens on a unix socket and/or a TCP address
//! (hand-rolled on `std::net` / `std::os::unix::net` — the workspace's
//! dependency policy admits no async runtime or socket crate) and
//! serves each connection from its own thread. Every connection opens a
//! [`Session`] pinned to the snapshot current at accept time, so a
//! client's answers are consistent under concurrent updates until it
//! explicitly asks to re-pin; all connections share the engine's
//! [`GraphStore`](dmcs_graph::GraphStore) and shard-scoped result
//! cache, so one client's computation is every client's cache hit.
//!
//! This module keeps framing, admission and the members of the control
//! replies. Every reply line is written by the one JSON-lines writer,
//! [`LineWriter`], into a reply buffer the connection keeps, and leaves
//! with a single `write_all`. Mapping ids, applying updates and tallying
//! a connection's `summary` are the [`ops`](crate::ops) layer's jobs,
//! shared with the CLI.
//!
//! A `query` makes one cache lookup. The connection writes the
//! `response` head with the request's own `tag`; when the entry keeps a
//! tail rendered through this daemon's [`IdSpace`], the tail is copied
//! from the cache, otherwise the writer renders it, and an entry's first
//! hit keeps what was rendered (see [`cache`](crate::cache)). Top-k
//! replies are rendered every time.
//!
//! ## Wire protocol (protocol_version 1)
//!
//! Requests are JSON objects, one per line, parsed by the same strict
//! parser that backs `--format json` validation. The envelope is an
//! `op` member naming the operation; node ids are in the *original*
//! (input file) id space:
//!
//! | op | request members | reply `type` |
//! |---|---|---|
//! | `query` | `nodes` (required), `tag`, `k` | `response`, or `topk` when `k` > 0 |
//! | `update` | `action` (`add`/`del`/`setw`), `u`, `v`, `w` | `update` |
//! | `repin` | — | `repin` |
//! | `stats` | — | `stats` |
//! | `shutdown` | — | `shutdown` |
//!
//! Replies are JSON-lines carrying the schema's protocol fields
//! (`protocol_version`, `server`) like every other output of the
//! workspace. Failures are typed `error` lines mirroring the
//! [`EngineError`] taxonomy:
//!
//! ```json
//! {"type":"error","protocol_version":1,"server":"dmcs/0.1.0","line":3,"code":9,
//!  "error":"bad request line 3: not a JSON object"}
//! ```
//!
//! `line` is the 1-based request line number on this connection and
//! `code` is the exit-code analog of the error class (5 unknown node,
//! 7 bad update, 8 overloaded, 9 bad request). Malformed requests —
//! a `nodes` array that repeats an id, a `k` that is not an unsigned
//! integer, a `tag` that is not a string among them — are answered
//! before admission.
//!
//! **Framing** is newline-delimited and defensive: a torn line (the
//! peer closes mid-request) and an oversized line (longer than
//! [`ServerConfig::max_line_bytes`], newline excluded) are typed
//! [`EngineError::BadRequest`] replies — never hangs. An oversized line
//! gets one `request line exceeds N bytes` reply as soon as the limit is
//! crossed, however reads split it, and its remainder is discarded up to
//! the next newline so the connection resynchronises. Blank lines get no
//! reply. Pipelined requests on one connection are answered strictly in
//! order.
//!
//! **Panics** stay inside the request that raised one: the connection
//! drops what that request had written, answers it with a code-9
//! `error` line, "internal error while serving this request", and
//! serves on from a fresh session pinned to the same snapshot, since the
//! old session's workspace may be mid-query. Its admission slot is given
//! back on unwind, so the daemon still drains normally.
//!
//! **No planner**: a connection answers its queries one by one, so it
//! never asks the [`plan`](crate::plan) module for a schedule (only a
//! batch plans) and the daemon never builds a component index. `stats`
//! reports counters of what happened (store, cache, admission, and how
//! many of the connection's queries ran on the compute mirror), and the
//! closing `summary` carries no `plan` or `skew`.
//!
//! **Backpressure**: queries and updates pass a bounded admission gate
//! shared by all connections ([`ServerConfig::queue_cap`] concurrent
//! work items). Past capacity the daemon answers immediately with a
//! typed [`EngineError::Overloaded`] error line (code 8) instead of
//! queueing unboundedly; `stats`, `repin` and `shutdown` are control
//! ops and always admitted.
//!
//! **Draining**: a `shutdown` op or SIGTERM (see
//! [`install_sigterm_drain`]) puts the daemon into drain mode:
//! listeners stop accepting, every connection finishes the requests it
//! already received, flushes its per-connection `summary` line, and the
//! unix socket file is unlinked before [`Server::run`] returns.
//!
//! **Slow readers**: one accept loop, generic over the TCP and unix
//! listeners, configures every accepted stream. A read waits at most
//! 25 ms, so an idle connection notices drain; a reply's write waits at
//! most 5 s. A client that reads nothing for that long loses its
//! connection, counted as `slow_client_drops` in `stats`, so it cannot
//! hold up drain. The loop itself polls: idle, it sleeps 1 ms, doubling
//! up to 25 ms, and each accepted connection resets the sleep.

use crate::error::EngineError;
use crate::ops::{check_distinct, Action, IdSpace, Mutation, StreamTally};
use crate::output::{response_head, Json, LineWriter};
use crate::registry::AlgoSpec;
use crate::request::QueryRequest;
use crate::{Engine, Session};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

/// How long a blocked read waits, and an idle accept loop sleeps at
/// most, before re-checking the drain flag. Bounds shutdown latency,
/// not throughput (data ready on the socket returns immediately).
const POLL: Duration = Duration::from_millis(25);

/// The accept loop's first sleep after it finds no connection waiting.
/// Each further idle round doubles the sleep, up to [`POLL`], and an
/// accepted connection resets it: a connection arriving soon after bind
/// or after another connection waits a few milliseconds at most, one
/// arriving after a long idle still up to `POLL`.
const FIRST_NAP: Duration = Duration::from_millis(1);

/// How long one reply may wait on a client that does not read it. A
/// reply still unsent after this closes its connection and counts in
/// `slow_client_drops`, so a stalled client cannot hold up drain.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Where and how the daemon listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the unix socket to bind (`None` = no unix listener). A
    /// stale file at the path is removed before binding.
    pub unix_path: Option<String>,
    /// TCP address to bind, e.g. `127.0.0.1:7171` (`None` = no TCP
    /// listener; port `0` binds an ephemeral port — read it back with
    /// [`Server::tcp_addr`]).
    pub tcp_addr: Option<String>,
    /// Bounded admission: how many queries/updates may be in flight at
    /// once across all connections. Requests past the cap get an
    /// immediate typed [`EngineError::Overloaded`] reply (code 8). `0`
    /// rejects every work op — useful to test client backoff paths.
    pub queue_cap: usize,
    /// Longest accepted request line in bytes; longer lines are typed
    /// [`EngineError::BadRequest`] replies and discarded up to the next
    /// newline.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            unix_path: None,
            tcp_addr: None,
            queue_cap: 64,
            max_line_bytes: 64 * 1024,
        }
    }
}

/// State shared by the listeners and every connection thread.
struct Shared {
    engine: Engine,
    spec: AlgoSpec,
    algo_name: &'static str,
    ids: IdSpace,
    drain: AtomicBool,
    in_flight: AtomicUsize,
    queue_cap: usize,
    max_line_bytes: usize,
    /// [`WRITE_DEADLINE`] (tests shorten it).
    write_deadline: Duration,
    served: AtomicU64,
    connections: AtomicU64,
    /// Connections closed because a reply missed the write deadline.
    slow_client_drops: AtomicU64,
}

/// Set by the SIGTERM handler (signal handlers may only touch statics);
/// folded into [`Shared::draining`].
static SIGTERM_DRAIN: AtomicBool = AtomicBool::new(false);

/// Install a SIGTERM handler that puts every running [`Server`] in this
/// process into drain mode — the graceful-shutdown path for daemons run
/// under an init system or CI harness. Hand-rolled `signal(2)` binding;
/// the handler body is a single atomic store (async-signal-safe).
#[cfg(unix)]
#[allow(unsafe_code)] // lone workspace exception: dependency-free signal(2) FFI
pub fn install_sigterm_drain() {
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_DRAIN.store(true, Ordering::SeqCst);
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

impl Shared {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || SIGTERM_DRAIN.load(Ordering::SeqCst)
    }

    /// Try to admit one work op through the bounded gate. The op holds
    /// its slot until the returned guard drops, on every return path
    /// and on unwind.
    fn admit(&self) -> Option<Admission<'_>> {
        let prev = self.in_flight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.queue_cap {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(Admission(&self.in_flight))
    }
}

/// One admitted work op's slot in [`Shared::admit`]'s gate, given back
/// when dropped.
struct Admission<'a>(&'a AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A remote-control handle on a running server: cheap to clone into
/// tests or signal glue. Dropping it does not stop the server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Put the server into drain mode (idempotent): stop accepting,
    /// finish in-flight requests, flush summaries, return from
    /// [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
    }
}

/// Counters of a finished [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Queries and updates served (admitted work ops, including ones
    /// whose search failed; excluding overload rejections).
    pub served: u64,
    /// Result-cache hits across all connections.
    pub cache_hits: u64,
    /// Result-cache misses across all connections.
    pub cache_misses: u64,
}

/// The daemon: bound listeners plus the shared serving state. Built
/// with [`Server::bind`], driven to completion with [`Server::run`].
pub struct Server {
    shared: Arc<Shared>,
    #[cfg(unix)]
    unix: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    tcp: Option<TcpListener>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Validate `spec`, bind the configured listeners (at least one is
    /// required) and return the ready-to-run server. `original` is the
    /// dense → original id mapping of the loaded graph, as produced by
    /// the edge-list readers.
    pub fn bind(
        engine: Engine,
        spec: AlgoSpec,
        original: Vec<u64>,
        cfg: &ServerConfig,
    ) -> Result<Server, EngineError> {
        let algo_name = spec.build()?.name();
        if cfg.unix_path.is_none() && cfg.tcp_addr.is_none() {
            return Err(EngineError::bad_param(
                "serve needs at least one listener (--unix <path> and/or --tcp <addr>)",
            ));
        }
        let shared = Arc::new(Shared {
            engine,
            spec,
            algo_name,
            ids: IdSpace::new(original),
            drain: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            queue_cap: cfg.queue_cap,
            max_line_bytes: cfg.max_line_bytes.max(2),
            write_deadline: WRITE_DEADLINE,
            served: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            slow_client_drops: AtomicU64::new(0),
        });

        #[cfg(unix)]
        let (unix, unix_path) = match &cfg.unix_path {
            Some(path) => {
                let pb = PathBuf::from(path);
                // A stale socket file from a crashed predecessor blocks
                // bind(2); remove it (a live listener is unaffected on
                // its end — it holds the inode, not the name).
                let _ = std::fs::remove_file(&pb);
                let listener = UnixListener::bind(&pb).map_err(|e| EngineError::io(path, e))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| EngineError::io(path, e))?;
                (Some(listener), Some(pb))
            }
            None => (None, None),
        };
        #[cfg(not(unix))]
        let unix_path: Option<PathBuf> = match &cfg.unix_path {
            Some(_) => {
                return Err(EngineError::bad_param(
                    "--unix sockets are not available on this platform",
                ))
            }
            None => None,
        };

        let (tcp, tcp_addr) = match &cfg.tcp_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr).map_err(|e| EngineError::io(addr, e))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| EngineError::io(addr, e))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| EngineError::io(addr, e))?;
                (Some(listener), Some(local))
            }
            None => (None, None),
        };

        Ok(Server {
            shared,
            #[cfg(unix)]
            unix,
            unix_path,
            tcp,
            tcp_addr,
        })
    }

    /// The control handle (clone it before [`Server::run`] consumes the
    /// server).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bound TCP address, when a TCP listener is configured —
    /// resolves `--tcp 127.0.0.1:0` to the actual ephemeral port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound unix socket path, when a unix listener is configured.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// Serve until drained (a `shutdown` op, [`ServerHandle::shutdown`]
    /// or SIGTERM via [`install_sigterm_drain`]): accept loops and
    /// per-connection threads all run inside one scope, so every thread
    /// is joined — and the unix socket file unlinked — before this
    /// returns.
    pub fn run(self) -> ServerStats {
        let shared = &*self.shared;
        std::thread::scope(|scope| {
            if let Some(listener) = &self.tcp {
                scope.spawn(move || accept_loop(listener, shared, scope));
            }
            #[cfg(unix)]
            if let Some(listener) = &self.unix {
                scope.spawn(move || accept_loop(listener, shared, scope));
            }
        });
        // All listeners and connections are done; close the listeners
        // and release the socket name (dropping the unix listener does
        // not unlink the file).
        drop(self.tcp);
        #[cfg(unix)]
        drop(self.unix);
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        ServerStats {
            connections: shared.connections.load(Ordering::SeqCst),
            served: shared.served.load(Ordering::SeqCst),
            cache_hits: shared.engine.cache().hits(),
            cache_misses: shared.engine.cache().misses(),
        }
    }
}

/// What the accept loop needs of a bound listener, TCP or unix: its
/// next connection, and the socket calls that configure the stream.
trait Listener: Sync {
    /// The stream of an accepted connection.
    type Stream: Read + Write + Send + 'static;
    /// Accept one pending connection (`WouldBlock` when none waits).
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
    /// Make `stream` blocking, with these read and write timeouts.
    fn set_timeouts(stream: &Self::Stream, read: Duration, write: Duration) -> std::io::Result<()>;
}

impl Listener for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        Ok(self.accept()?.0)
    }
    fn set_timeouts(stream: &TcpStream, read: Duration, write: Duration) -> std::io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(read))?;
        stream.set_write_timeout(Some(write))
    }
}

#[cfg(unix)]
impl Listener for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> std::io::Result<UnixStream> {
        Ok(self.accept()?.0)
    }
    fn set_timeouts(stream: &UnixStream, read: Duration, write: Duration) -> std::io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(read))?;
        stream.set_write_timeout(Some(write))
    }
}

/// Accept connections until drain, serving each on its own thread of
/// `scope`. Every accepted stream gets the same deadlines: a read waits
/// at most [`POLL`], so an idle connection notices drain, and a reply
/// write at most the write deadline, so a client that stops reading
/// cannot hold up drain. A stream that cannot take them is closed.
///
/// The listener does not block: while no connection waits, the loop
/// sleeps from [`FIRST_NAP`] doubling up to [`POLL`], so drain is
/// noticed within `POLL`. (A blocking accept would need a wake-up
/// connection on drain, which cannot reach a unix path that another
/// daemon has since bound.)
fn accept_loop<'s, 'e, L: Listener>(listener: &'e L, shared: &'e Shared, scope: &'s Scope<'s, 'e>) {
    let mut nap = FIRST_NAP;
    loop {
        if shared.draining() {
            return;
        }
        match listener.accept_stream() {
            Ok(stream) => {
                nap = FIRST_NAP;
                if L::set_timeouts(&stream, POLL, shared.write_deadline).is_ok() {
                    scope.spawn(move || serve_conn(shared, stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(nap);
                nap = (nap * 2).min(POLL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// What a processed request asks the connection loop to do next.
enum Flow {
    Continue,
    /// `shutdown` op: close this connection (after its summary) and
    /// drain the server.
    Close,
}

/// Per-connection bookkeeping.
struct ConnState {
    /// 1-based count of request lines received (including empty,
    /// malformed and discarded ones — the client can correlate error
    /// replies with what it sent).
    line_no: usize,
    /// The single queries served, for the closing `summary` line.
    tally: StreamTally,
    /// The reply being written: [`send`] ships it with one `write_all`
    /// and clears it, keeping its capacity for the next reply.
    reply: String,
    /// Writes every reply line into `reply`.
    json: LineWriter,
}

impl ConnState {
    /// A wire `error` line for `err`, tagged with the request's line
    /// number and the error's exit-code analog.
    fn error_line(&mut self, err: &EngineError) {
        self.json
            .object(&mut self.reply, "error")
            .uint("line", self.line_no as u64)
            .uint("code", err.exit_code() as u64)
            .str("error", &err.to_string())
            .end();
    }
}

/// Serve one connection: newline-framed requests in, JSON-lines out,
/// strictly in order, ending with a `summary` line.
fn serve_conn<S: Read + Write>(shared: &Shared, mut stream: S) {
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let mut session = match shared.engine.session(&shared.spec) {
        Ok(s) => s,
        // The spec was validated at bind time; an error here would be a
        // registry regression — drop the connection rather than panic a
        // server thread.
        Err(_) => return,
    };
    let mut conn = ConnState {
        line_no: 0,
        tally: StreamTally::start(),
        reply: String::new(),
        json: LineWriter::new(),
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Oversized-line recovery: when set, bytes are dropped until the
    // next newline so the connection resynchronises on line boundaries.
    let mut discarding = false;

    'conn: loop {
        // Answer every complete line already buffered (pipelining). A
        // line longer than the limit is answered once, as soon as the
        // limit is crossed, whether or not its newline has arrived: the
        // reply does not depend on how reads split the line.
        loop {
            let newline = buf.iter().position(|&b| b == b'\n');
            let len = newline.unwrap_or(buf.len());
            if newline.is_none() && len <= shared.max_line_bytes {
                break; // an open line within the limit: read on
            }
            conn.line_no += 1;
            let flow = if len > shared.max_line_bytes {
                conn.error_line(&EngineError::bad_request(
                    conn.line_no,
                    format!("request line exceeds {} bytes", shared.max_line_bytes),
                ));
                Flow::Continue
            } else {
                let text = String::from_utf8_lossy(&buf[..len]).into_owned();
                contain_panic(shared, &mut session, &mut conn, text.trim())
            };
            // Consume the line and its newline. An open oversized line is
            // dropped up to the newline still to come.
            discarding = newline.is_none();
            buf.drain(..newline.map_or(len, |pos| pos + 1));
            if send(shared, &mut stream, &mut conn.reply).is_err() {
                return; // peer gone or stalled mid-write: nothing to flush
            }
            if let Flow::Close = flow {
                break 'conn;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    // Torn request: the peer closed mid-line. A typed
                    // reply instead of silence (best effort — the write
                    // side may already be gone too).
                    conn.line_no += 1;
                    conn.error_line(&EngineError::bad_request(
                        conn.line_no,
                        "connection closed mid-request (torn line, no trailing newline)",
                    ));
                    if send(shared, &mut stream, &mut conn.reply).is_err() {
                        return;
                    }
                }
                break;
            }
            Ok(n) => {
                let mut bytes = &chunk[..n];
                if discarding {
                    match bytes.iter().position(|&b| b == b'\n') {
                        Some(p) => {
                            bytes = &bytes[p + 1..];
                            discarding = false;
                        }
                        None => continue,
                    }
                }
                buf.extend_from_slice(bytes);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle: buffered complete lines were all processed
                // above, so draining now honours "in-flight requests
                // finish".
                if shared.draining() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }

    // Per-connection summary: a batch footer's schema, less the plan
    // members (a connection answers queries one by one; nothing plans).
    let input = conn.tally.finish(Some(&session));
    let weighted = shared.spec.params.weighted;
    conn.json
        .summary(&mut conn.reply, shared.algo_name, weighted, input);
    let _ = send(shared, &mut stream, &mut conn.reply);
}

/// Send the reply written into `reply` (nothing, for an ignored empty
/// line) with one `write_all`, then clear the buffer for the next one.
/// A failed send ends the connection; one that timed out (the client
/// stopped reading for the whole write deadline) counts in
/// `slow_client_drops`.
fn send<W: Write>(shared: &Shared, out: &mut W, reply: &mut String) -> std::io::Result<()> {
    if reply.is_empty() {
        return Ok(());
    }
    let sent = out.write_all(reply.as_bytes()).and_then(|()| out.flush());
    reply.clear();
    if let Err(e) = &sent {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            shared.slow_client_drops.fetch_add(1, Ordering::SeqCst);
        }
    }
    sent
}

/// [`process_line`], with a panic kept inside the request that raised
/// it: whatever the request wrote is dropped, it is answered with a
/// code-9 `error` line, and the connection serves on from a fresh
/// session on the same snapshot, since the old one's workspace may be
/// mid-query. An admitted request's slot is given back on unwind.
fn contain_panic(shared: &Shared, session: &mut Session, conn: &mut ConnState, text: &str) -> Flow {
    let written = conn.reply.len();
    let run = || process_line(shared, session, conn, text);
    if let Ok(flow) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        return flow;
    }
    conn.reply.truncate(written);
    conn.error_line(&EngineError::bad_request(
        conn.line_no,
        "internal error while serving this request",
    ));
    if let Ok(fresh) = session.reopen() {
        conn.tally.repin(session);
        *session = fresh;
    }
    Flow::Continue
}

/// Parse and execute one request line, writing exactly one reply line
/// into `conn.reply` (empty input lines are ignored).
fn process_line(shared: &Shared, session: &mut Session, conn: &mut ConnState, text: &str) -> Flow {
    if text.is_empty() {
        return Flow::Continue;
    }
    let line_no = conn.line_no;
    let bad = |reason: String| EngineError::bad_request(line_no, reason);
    let parsed = match Json::parse(text) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => {
            conn.error_line(&bad("not a JSON object".into()));
            return Flow::Continue;
        }
        Err(e) => {
            conn.error_line(&bad(format!("not valid JSON: {e}")));
            return Flow::Continue;
        }
    };
    let Some(op) = parsed.get("op").and_then(Json::as_str) else {
        conn.error_line(&bad("missing \"op\" member (string)".into()));
        return Flow::Continue;
    };
    match op {
        "query" => op_query(shared, session, conn, &parsed),
        "update" => op_update(shared, conn, &parsed),
        "repin" => match shared.engine.session(&shared.spec) {
            Ok(fresh) => {
                conn.tally.repin(session);
                *session = fresh;
                let snap = session.snapshot();
                conn.json
                    .object(&mut conn.reply, "repin")
                    .uint("version", snap.version())
                    .uint("nodes", snap.n() as u64)
                    .uint("edges", snap.m() as u64)
                    .end();
            }
            Err(e) => conn.error_line(&e),
        },
        "stats" => op_stats(shared, session, conn),
        "shutdown" => {
            shared.drain.store(true, Ordering::SeqCst);
            conn.json
                .object(&mut conn.reply, "shutdown")
                .bool("draining", true)
                .end();
            return Flow::Close;
        }
        other => conn.error_line(&bad(format!(
            "unknown op {other:?} (expected query, update, repin, stats or shutdown)"
        ))),
    }
    Flow::Continue
}

/// The `stats` reply: store, cache and admission counters, and how
/// many of this connection's queries ran on the compute mirror.
fn op_stats(shared: &Shared, session: &Session, conn: &mut ConnState) {
    let store = shared.engine.store();
    let cache = shared.engine.cache();
    let rb = store.rebuild_stats();
    conn.json
        .object(&mut conn.reply, "stats")
        .str("algo", shared.algo_name)
        .bool("weighted", shared.spec.params.weighted)
        .uint("version", shared.engine.version())
        .uint("nodes", store.n() as u64)
        .uint("edges", store.m() as u64)
        .uint("pinned_version", session.snapshot().version())
        .uint("mirror_served", conn.tally.mirror_served(session))
        .uint("cache_hits", cache.hits())
        .uint("cache_misses", cache.misses())
        .uint("cache_entries", cache.len() as u64)
        .uint("cache_bytes", cache.bytes())
        .uint("shards", store.shard_count() as u64)
        .uint("dirty_shards", store.dirty_shards() as u64)
        .uint("rebuilds", rb.rebuilds)
        .uint("shards_rebuilt", rb.shards_rebuilt)
        .uint("last_dirty_shards", rb.last_dirty_shards as u64)
        .num("last_rebuild_seconds", rb.last_rebuild_seconds)
        .uint("in_flight", shared.in_flight.load(Ordering::SeqCst) as u64)
        .uint("queue_cap", shared.queue_cap as u64)
        .uint("connections", shared.connections.load(Ordering::SeqCst))
        .uint("served", shared.served.load(Ordering::SeqCst))
        .uint(
            "slow_client_drops",
            shared.slow_client_drops.load(Ordering::SeqCst),
        )
        .bool("draining", shared.draining())
        .end();
}

/// `{"op":"query","nodes":[...],"tag":...,"k":...}` — a single
/// community (the typed [`Session::query`] path, rendered exactly like
/// `--format json`) or, with `k` > 0, a top-k enumeration as one `topk`
/// line.
fn op_query(shared: &Shared, session: &mut Session, conn: &mut ConnState, req: &Json) {
    let line_no = conn.line_no;
    let Some(raw_nodes) = req.get("nodes").and_then(Json::as_arr) else {
        return conn.error_line(&EngineError::bad_request(
            line_no,
            "query needs a \"nodes\" array of node ids",
        ));
    };
    let mut nodes_raw = Vec::with_capacity(raw_nodes.len());
    for v in raw_nodes {
        match v.as_u64() {
            Some(id) => nodes_raw.push(id),
            None => {
                return conn.error_line(&EngineError::bad_request(
                    line_no,
                    format!("bad node id {} (unsigned integers only)", v.render()),
                ))
            }
        }
    }
    if let Err(reason) = check_distinct(&nodes_raw) {
        return conn.error_line(&EngineError::bad_request(line_no, reason));
    }
    let k = match req.get("k") {
        None => 0,
        Some(v) => match v.as_u64() {
            Some(k) => k as usize,
            None => {
                return conn.error_line(&EngineError::bad_request(
                    line_no,
                    "\"k\" must be an unsigned integer",
                ))
            }
        },
    };
    let tag = match req.get("tag").map(Json::as_str) {
        None => None,
        Some(Some(tag)) => Some(tag),
        Some(None) => {
            return conn.error_line(&EngineError::bad_request(
                line_no,
                "\"tag\" must be a string",
            ))
        }
    };

    let Some(_slot) = shared.admit() else {
        let e = EngineError::overloaded(shared.in_flight.load(Ordering::SeqCst), shared.queue_cap);
        return conn.error_line(&e);
    };
    let dense = match shared.ids.map_query(&nodes_raw) {
        Ok(d) => d,
        Err(e) => return conn.error_line(&e),
    };

    if k > 0 {
        let outcome = session.top_k(&dense, k);
        shared.served.fetch_add(1, Ordering::SeqCst);
        // `dense` maps back to exactly `nodes_raw`.
        return shared.ids.with_original(|original| {
            conn.json
                .topk(&mut conn.reply, &outcome, k, tag, &dense, Some(original))
        });
    }

    // The head carries this request's tag; the tail after it depends on
    // the answer alone, so a cached answer's tail is copied as rendered.
    let ConnState {
        tally, reply, json, ..
    } = conn;
    response_head(reply, tag);
    let served = session.serve(
        &QueryRequest::new(dense),
        shared.ids.id(),
        reply,
        |resp, out| {
            shared.ids.with_original(|original| {
                let result = resp.result.as_ref();
                let (nodes, seconds) = (&resp.request.nodes, resp.seconds);
                json.response_tail(out, resp.algo, nodes, result, seconds, Some(original))
            })
        },
    );
    shared.served.fetch_add(1, Ordering::SeqCst);
    tally.record(served.seconds, served.ok, served.cached);
}

/// `{"op":"update","action":"add|del|setw","u":..,"v":..,"w":..}` —
/// the [`Mutation`] a `--updates` script line would apply, with the
/// same rules and error texts, applied to the live store. Sessions keep
/// serving their pinned snapshot until the client sends `repin`.
fn op_update(shared: &Shared, conn: &mut ConnState, req: &Json) {
    let line_no = conn.line_no;
    let mutation = match wire_mutation(req, line_no) {
        Ok(m) => m,
        Err(e) => return conn.error_line(&e),
    };
    let Some(_slot) = shared.admit() else {
        let e = EngineError::overloaded(shared.in_flight.load(Ordering::SeqCst), shared.queue_cap);
        return conn.error_line(&e);
    };
    match mutation.apply(&shared.engine, &shared.ids, line_no) {
        Ok(previous) => {
            shared.served.fetch_add(1, Ordering::SeqCst);
            let engine = &shared.engine;
            let (u, v) = mutation.endpoints();
            let obj = conn
                .json
                .object(&mut conn.reply, "update")
                .str("action", mutation.action().name())
                .uint("u", u)
                .uint("v", v);
            match previous {
                Some(old) => obj.num("previous", old),
                None => obj,
            }
            .uint("version", engine.version())
            .uint("nodes", engine.store().n() as u64)
            .uint("edges", engine.store().m() as u64)
            .end();
        }
        Err(e) => conn.error_line(&e),
    }
}

/// The wire shape of an `update` request: a missing or non-integer
/// `u`/`v`, a non-number `w`, an unknown `action` or a `setw` without
/// `w` is a bad request (code 9), answered before admission.
fn wire_mutation(req: &Json, line_no: usize) -> Result<Mutation, EngineError> {
    let bad = |reason: String| EngineError::bad_request(line_no, reason);
    let Some(action) = req.get("action").and_then(Json::as_str) else {
        return Err(bad(
            "update needs an \"action\" member (add, del or setw)".to_string()
        ));
    };
    let endpoint = |name: &str| -> Result<u64, EngineError> {
        req.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("update needs {name:?} (unsigned node id)")))
    };
    let (u, v) = (endpoint("u")?, endpoint("v")?);
    let w = match req.get("w") {
        None => None,
        Some(w) => Some(
            w.as_f64()
                .ok_or_else(|| bad("\"w\" must be a number".to_string()))?,
        ),
    };
    let action = Action::parse(action, u, v, w).map_err(bad)?;
    Mutation::new(action, u, v, line_no)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::MAX_JSON_DEPTH;
    use dmcs_graph::{GraphBuilder, NodeId, Snapshot};
    use proptest::prelude::*;

    fn demo_engine() -> (Engine, Vec<u64>) {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        (Engine::from_graph(g), (0..6).collect())
    }

    /// In-memory stream double: request bytes in, at most `chunk` of
    /// them per read, replies captured.
    struct Script {
        input: std::io::Cursor<Vec<u8>>,
        chunk: usize,
        output: Vec<u8>,
    }

    impl Script {
        fn new(text: &str) -> Self {
            Script::chunked(text.as_bytes(), usize::MAX)
        }

        fn chunked(bytes: &[u8], chunk: usize) -> Self {
            Script {
                input: std::io::Cursor::new(bytes.to_vec()),
                chunk,
                output: Vec::new(),
            }
        }

        fn replies(&self) -> Vec<Json> {
            String::from_utf8(self.output.clone())
                .unwrap()
                .lines()
                .map(|l| Json::parse(l).unwrap())
                .collect()
        }
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

    fn shared(engine: Engine, original: Vec<u64>, queue_cap: usize) -> Shared {
        Shared {
            engine,
            spec: AlgoSpec::new("fpa"),
            algo_name: "FPA",
            ids: IdSpace::new(original),
            drain: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            queue_cap,
            max_line_bytes: 64 * 1024,
            write_deadline: WRITE_DEADLINE,
            served: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            slow_client_drops: AtomicU64::new(0),
        }
    }

    #[test]
    fn query_update_repin_round_trip() {
        let (engine, original) = demo_engine();
        let sh = shared(engine, original, 8);
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[0],\"tag\":\"a\"}\n\
             {\"op\":\"update\",\"action\":\"add\",\"u\":0,\"v\":3}\n\
             {\"op\":\"query\",\"nodes\":[0]}\n\
             {\"op\":\"repin\"}\n\
             {\"op\":\"query\",\"nodes\":[0]}\n",
        );
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        // 5 requests + closing summary.
        assert_eq!(replies.len(), 6, "{replies:?}");
        assert_eq!(replies[0].get("type").unwrap().as_str(), Some("response"));
        assert_eq!(replies[0].get("tag").unwrap().as_str(), Some("a"));
        assert_eq!(replies[1].get("type").unwrap().as_str(), Some("update"));
        assert_eq!(replies[1].get("version").unwrap().as_u64(), Some(1));
        // Pinned session: the pre-update answer replays (cache hit on
        // the old epoch) even after the store moved.
        assert_eq!(replies[2], replies[0].clone_without_tag());
        assert_eq!(replies[3].get("type").unwrap().as_str(), Some("repin"));
        assert_eq!(replies[3].get("version").unwrap().as_u64(), Some(1));
        // Fresh epoch: same query, different graph.
        assert_eq!(replies[4].get("type").unwrap().as_str(), Some("response"));
        assert_ne!(replies[4], replies[2]);
        assert_eq!(replies[5].get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(replies[5].get("queries").unwrap().as_u64(), Some(3));
    }

    impl Json {
        /// Test helper: the same object with `"tag": null` (queries
        /// repeated without a tag should otherwise replay identically).
        fn clone_without_tag(&self) -> Json {
            match self {
                Json::Obj(members) => Json::Obj(
                    members
                        .iter()
                        .map(|(k, v)| {
                            if k == "tag" {
                                (k.clone(), Json::Null)
                            } else {
                                (k.clone(), v.clone())
                            }
                        })
                        .collect(),
                ),
                other => other.clone(),
            }
        }
    }

    #[test]
    fn malformed_lines_are_typed_bad_requests() {
        let (engine, original) = demo_engine();
        let sh = shared(engine, original, 8);
        let mut io = Script::new(
            "this is not json\n\
             [1,2,3]\n\
             {\"nodes\":[0]}\n\
             {\"op\":\"dance\"}\n\
             {\"op\":\"query\"}\n\
             {\"op\":\"query\",\"nodes\":[\"zero\"]}\n\
             {\"op\":\"query\",\"nodes\":[0,0]}\n\
             {\"op\":\"query\",\"nodes\":[77]}\n",
        );
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), 9, "{replies:?}");
        for (i, expect_code) in [
            (0, 9),
            (1, 9),
            (2, 9),
            (3, 9),
            (4, 9),
            (5, 9),
            (6, 9),
            (7, 5),
        ] {
            let r = &replies[i];
            assert_eq!(r.get("type").unwrap().as_str(), Some("error"), "{r:?}");
            assert_eq!(
                r.get("code").unwrap().as_u64(),
                Some(expect_code),
                "line {i}: {r:?}"
            );
            assert_eq!(r.get("line").unwrap().as_u64(), Some(i as u64 + 1));
        }
        // A repeated id is rejected like every CLI front end rejects it.
        let dup = replies[6].get("error").unwrap().as_str().unwrap();
        assert!(dup.contains("duplicate query id 0"), "{dup}");
        assert_eq!(replies[8].get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(replies[8].get("queries").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn connection_summary_equals_the_batch_report_over_its_replies() {
        use crate::batch::BatchReport;
        use crate::request::QueryResponse;
        use dmcs_core::{SearchError, SearchResult};
        // Two triangles, so {0, 3} is a per-query search failure.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let sh = shared(Engine::from_graph(g), (0..6).collect(), 8);
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[0]}\n\
             {\"op\":\"query\",\"nodes\":[4]}\n\
             {\"op\":\"query\",\"nodes\":[0,3]}\n\
             {\"op\":\"query\",\"nodes\":[77]}\n\
             {\"op\":\"query\",\"nodes\":[0]}\n\
             {\"op\":\"query\",\"nodes\":[2]}\n",
        );
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), 7, "{replies:?}");
        assert_eq!(replies[3].get("type").unwrap().as_str(), Some("error"));
        let summary = &replies[6];
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));

        // The same replies as batch-mode responses: only `seconds`, the
        // outcome and the cache flag feed the compared keys. No update
        // runs, so exactly the repeated query is a cache hit.
        let mut seen: Vec<&Json> = Vec::new();
        let responses: Vec<QueryResponse> = replies
            .iter()
            .filter(|r| r.get("type").unwrap().as_str() == Some("response"))
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
        let expected = crate::output::summary_json("FPA", false, &report).render();
        let expected = Json::parse(&expected).unwrap();
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
    fn zero_queue_cap_rejects_work_but_not_control() {
        let (engine, original) = demo_engine();
        let sh = shared(engine, original, 0);
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[0]}\n\
             {\"op\":\"update\",\"action\":\"add\",\"u\":0,\"v\":5}\n\
             {\"op\":\"stats\"}\n\
             {\"op\":\"update\",\"action\":\"swap\",\"u\":0,\"v\":1}\n\
             {\"op\":\"update\",\"action\":\"setw\",\"u\":0,\"v\":1}\n",
        );
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), 6, "{replies:?}");
        for r in &replies[..2] {
            assert_eq!(r.get("type").unwrap().as_str(), Some("error"), "{r:?}");
            assert_eq!(r.get("code").unwrap().as_u64(), Some(8));
            assert!(r
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("overloaded"));
        }
        assert_eq!(replies[2].get("type").unwrap().as_str(), Some("stats"));
        assert_eq!(replies[2].get("queue_cap").unwrap().as_u64(), Some(0));
        assert_eq!(replies[2].get("served").unwrap().as_u64(), Some(0));
        // Malformed requests are answered before admission: a bad
        // request (code 9) even behind a full gate.
        for r in &replies[3..5] {
            assert_eq!(r.get("code").unwrap().as_u64(), Some(9), "{r:?}");
        }
        let setw = replies[4].get("error").unwrap().as_str().unwrap();
        assert!(setw.ends_with("setw 0 1 needs a weight"), "{setw}");
    }

    #[test]
    fn a_panic_inside_an_admitted_op_gives_its_slot_back() {
        let (engine, original) = demo_engine();
        let sh = shared(engine, original, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = sh.admit().expect("the gate is open");
            assert!(sh.admit().is_none(), "queue_cap 1 admits one op");
            panic!("a search panicked mid-query");
        }));
        assert!(unwound.is_err());
        assert_eq!(sh.in_flight.load(Ordering::SeqCst), 0);
        assert!(sh.admit().is_some(), "the next op is admitted");
    }

    #[test]
    fn a_panicking_request_gets_a_code_9_reply_and_the_connection_serves_on() {
        let (engine, original) = demo_engine();
        let mut sh = shared(engine, original, 1);
        sh.spec = AlgoSpec::new("panic-on-0");
        sh.algo_name = "PANIC-ON-0";
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[0],\"tag\":\"boom\"}\n\
             {\"op\":\"query\",\"nodes\":[4]}\n\
             {\"op\":\"query\",\"nodes\":[4]}\n\
             {\"op\":\"stats\"}\n",
        );
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), 5, "{replies:?}");
        let error = &replies[0];
        assert_eq!(error.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(error.get("code").unwrap().as_u64(), Some(9));
        assert_eq!(error.get("line").unwrap().as_u64(), Some(1));
        assert_eq!(
            error.get("error").unwrap().as_str(),
            Some("bad request line 1: internal error while serving this request")
        );
        // The same connection answers the next query, once computed and
        // once from the cache, through its single admission slot.
        for reply in &replies[1..3] {
            assert_eq!(reply.get("type").unwrap().as_str(), Some("response"));
            assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        }
        assert_eq!(replies[1], replies[2]);
        assert_eq!(replies[3].get("in_flight").unwrap().as_u64(), Some(0));
        assert_eq!(replies[3].get("cache_hits").unwrap().as_u64(), Some(1));
        let summary = &replies[4];
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(summary.get("queries").unwrap().as_u64(), Some(2));
    }

    #[cfg(unix)]
    #[test]
    fn a_panicking_request_leaves_the_daemon_to_drain_normally() {
        use std::io::{BufRead, BufReader};
        let path = std::env::temp_dir().join(format!(
            "dmcs-panic-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let cfg = ServerConfig {
            unix_path: Some(path.to_str().unwrap().into()),
            ..ServerConfig::default()
        };
        let (engine, original) = demo_engine();
        let server = Server::bind(engine, AlgoSpec::new("panic-on-0"), original, &cfg).unwrap();
        let daemon = std::thread::spawn(move || server.run());
        let stream = UnixStream::connect(&path).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut ask = |req: &str| {
            stream.write_all(format!("{req}\n").as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        assert!(ask(r#"{"op":"query","nodes":[0]}"#).contains("\"code\":9"));
        assert!(ask(r#"{"op":"query","nodes":[4]}"#).contains("\"ok\":true"));
        assert!(ask(r#"{"op":"shutdown"}"#).contains("\"draining\":true"));
        // `run` joins every connection thread: a panic that escaped one
        // would re-raise here.
        let stats = daemon.join().expect("the daemon drains without a panic");
        assert_eq!((stats.connections, stats.served), (1, 1));
        assert!(!path.exists(), "socket file unlinked on drain");
    }

    #[test]
    fn update_taxonomy_matches_the_script_mode() {
        use crate::ops::{parse_update_script, UpdateOp};
        // Each case runs twice, in order, on twin engines: as an
        // `--updates` line through the script interpreter
        // (`parse_update_script`, then `Mutation::apply`), and as the
        // same op over the wire through `serve_conn`. Both fail with
        // code 7 and the same reason after the `update script line N:`
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
        let sh = shared(engine, original, 8);
        let mut io = Script::new(&wire);
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), cases.len() + 1, "{replies:?}");

        let (script_engine, original) = demo_engine();
        let script_ids = IdSpace::new(original);
        for (i, (line, expected)) in cases.iter().enumerate() {
            let script = parse_update_script(line).and_then(|ops| match &ops[..] {
                [(n, UpdateOp::Mutate(m))] => m.apply(&script_engine, &script_ids, *n),
                other => panic!("{line}: not one mutation: {other:?}"),
            });
            let reply = &replies[i];
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
                    assert_eq!(reply.get("type").unwrap().as_str(), Some("update"));
                    assert_eq!(reply.get("nodes").unwrap().as_u64(), Some(7));
                    assert_eq!(script_engine.store().n(), 7);
                }
            }
        }
        for ids in [&sh.ids, &script_ids] {
            assert_eq!(ids.map_query(&[9]).unwrap(), vec![6]);
            assert_eq!(ids.with_original(|o| o.last().copied()), Some(9));
        }
    }

    #[test]
    fn top_k_over_the_wire() {
        // Two 4-cliques sharing node 0, original ids shifted by 100.
        let mut b = GraphBuilder::new(7);
        for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(c[i], c[j]);
                }
            }
        }
        let engine = Engine::from_graph(b.build());
        let original: Vec<u64> = (100..107).collect();
        let sh = shared(engine, original, 8);
        let mut io = Script::new("{\"op\":\"query\",\"nodes\":[100],\"k\":3}\n");
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), 2, "{replies:?}");
        let topk = &replies[0];
        assert_eq!(topk.get("type").unwrap().as_str(), Some("topk"));
        assert_eq!(topk.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(topk.get("k").unwrap().as_u64(), Some(3));
        let rounds = topk.get("rounds").unwrap().as_arr().unwrap();
        assert_eq!(rounds.len(), 2, "both wings");
        for round in rounds {
            let community = round.get("community").unwrap().as_arr().unwrap();
            assert!(
                community.iter().all(|v| v.as_u64().unwrap() >= 100),
                "communities are reported in original ids: {round:?}"
            );
        }
    }

    #[test]
    fn torn_and_oversized_lines_resync() {
        let (engine, original) = demo_engine();
        let mut sh = shared(engine, original, 8);
        sh.max_line_bytes = 32;
        let huge = format!("{{\"op\":\"query\",\"nodes\":[{}]}}", "0,".repeat(64) + "0");
        let mut io = Script::new(&format!(
            "{huge}\n{{\"op\":\"query\",\"nodes\":[0]}}\n{{\"op\":\"stats\""
        ));
        serve_conn(&sh, &mut io);
        let replies = io.replies();
        assert_eq!(replies.len(), 4, "{replies:?}");
        // Oversized line: typed 9, then the connection resyncs and the
        // next request is served normally.
        assert_eq!(replies[0].get("code").unwrap().as_u64(), Some(9));
        assert!(replies[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds 32 bytes"));
        assert_eq!(replies[1].get("type").unwrap().as_str(), Some("response"));
        // Torn final line (EOF without newline): typed 9, then summary.
        assert_eq!(replies[2].get("code").unwrap().as_u64(), Some(9));
        assert!(replies[2]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("torn line"));
        assert_eq!(replies[3].get("type").unwrap().as_str(), Some("summary"));
    }

    /// Every timing member (`seconds`, `*_seconds`, `queries_per_sec`)
    /// with its value replaced by `0`; every other byte as written.
    /// `cache_bytes` is zeroed too: it counts the cached reply bytes,
    /// which hold a `seconds` value of varying length
    /// (`stats_report_the_cache_totals` pins it exactly).
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
    /// reply type (`response`, `topk`, `update`, `repin`, `stats`,
    /// `error`, `shutdown`, `summary`) and every error path of the wire.
    fn wire_transcript() -> String {
        // Triangles {0,1,2} and {3,4,5} joined by 2-3, plus a separate
        // edge 6-7; original ids shuffled so sorting after mapping
        // shows.
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
        let mut sh = shared(
            Engine::from_graph(GraphBuilder::from_edges(8, &edges)),
            original.clone(),
            8,
        );
        sh.max_line_bytes = 128;
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
        let mut io = Script::new(&format!("{script}\n{{\"op\":\"stats\""));
        serve_conn(&sh, &mut io);
        let mut transcript = io.output;

        // Overload: work ops are refused with code 8, control ops pass,
        // and a malformed query is a bad request even behind a full gate.
        let sh = shared(
            Engine::from_graph(GraphBuilder::from_edges(8, &edges)),
            original.clone(),
            0,
        );
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[50]}\n\
             {\"op\":\"update\",\"action\":\"add\",\"u\":50,\"v\":30}\n\
             {\"op\":\"stats\"}\n\
             {\"op\":\"query\",\"nodes\":[50],\"tag\":5}\n",
        );
        serve_conn(&sh, &mut io);
        transcript.extend(io.output);

        // Weighted serving: `setw` reports the previous weight, and the
        // summary says weighted; `shutdown` closes the connection.
        let weighted = GraphBuilder::from_edges(8, &edges).with_unit_weights();
        let mut sh = shared(Engine::from_graph(weighted), original, 8);
        sh.spec = AlgoSpec::new("fpa").weighted();
        sh.algo_name = "W-FPA";
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[50]}\n\
             {\"op\":\"update\",\"action\":\"setw\",\"u\":50,\"v\":10,\"w\":2.5}\n\
             {\"op\":\"update\",\"action\":\"add\",\"u\":50,\"v\":30,\"w\":0.125}\n\
             {\"op\":\"repin\"}\n\
             {\"op\":\"query\",\"nodes\":[50],\"k\":2}\n\
             {\"op\":\"shutdown\"}\n\
             {\"op\":\"query\",\"nodes\":[10]}\n",
        );
        serve_conn(&sh, &mut io);
        transcript.extend(io.output);

        let text = String::from_utf8(transcript).unwrap();
        text.lines().map(|l| zero_timings(l) + "\n").collect()
    }

    #[test]
    fn wire_transcript_matches_the_golden_file() {
        let transcript = wire_transcript();
        assert_eq!(
            transcript,
            include_str!("../tests/golden/wire_transcript.jsonl"),
            "wire bytes drifted from tests/golden/wire_transcript.jsonl"
        );
    }

    /// The raw reply lines of `script` on `sh`, one connection.
    fn raw_replies(sh: &Shared, script: &str) -> Vec<String> {
        let mut io = Script::new(script);
        serve_conn(sh, &mut io);
        let text = String::from_utf8(io.output).unwrap();
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn a_reply_cached_under_one_id_space_is_rendered_again_under_another() {
        // Two daemons over one engine, so one cache, naming its nodes
        // through different id maps.
        let (engine, _) = demo_engine();
        let a = shared(engine.clone(), (0..6).collect(), 8);
        let b = shared(engine.clone(), (100..106).collect(), 8);
        let query = |node: u64| format!("{{\"op\":\"query\",\"nodes\":[{node}]}}\n");
        // A miss, the first hit (which keeps the rendered tail) and a
        // hit that copies it: three identical lines.
        let under_a = raw_replies(&a, &query(0).repeat(3));
        assert!(
            under_a[..3].iter().all(|line| *line == under_a[0]),
            "{under_a:?}"
        );
        let bytes = engine.cache().bytes();
        // Under the other map the same entry hits, and is rendered in
        // that map's ids rather than copied.
        let under_b = raw_replies(&b, &query(100).repeat(2));
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

    #[test]
    fn stats_report_the_cache_totals() {
        let (engine, original) = demo_engine();
        let expected = Session::new(engine.snapshot(), &AlgoSpec::new("fpa"))
            .unwrap()
            .search(&[0])
            .unwrap();
        let sh = shared(engine, original, 8);
        let replies = raw_replies(
            &sh,
            "{\"op\":\"query\",\"nodes\":[0],\"tag\":\"t\"}\n\
             {\"op\":\"query\",\"nodes\":[0]}\n\
             {\"op\":\"stats\"}\n",
        );
        // The first hit kept its reply after the tag member.
        let tail = &replies[1][replies[1].find(",\"algo\"").unwrap()..];
        // A served entry holds 4 bytes per query id and its packed round:
        // 8 bytes of DM, then one byte each for the iteration count, the
        // community's length, each community id (sorted, so a delta
        // under 64 from the one before) and the empty removal order's
        // length.
        let c = &expected.community;
        assert!(expected.iterations < 128 && c.len() < 128 && c[0] < 64);
        assert!(c.windows(2).all(|w| w[1] - w[0] < 64), "{c:?}");
        let packed = 8 + 1 + 1 + c.len() as u64 + 1;
        let stats = Json::parse(&replies[2]).unwrap();
        assert_eq!(stats.get("cache_entries").unwrap().as_u64(), Some(1));
        assert_eq!(
            stats.get("cache_bytes").unwrap().as_u64(),
            Some(4 + packed + tail.len() as u64 + 1),
            "the query id, the packed round, the reply tail and its newline"
        );
    }

    /// One op of a random wire transcript, over [`WIRE_IDS`].
    #[derive(Debug, Clone, Copy)]
    enum WireOp {
        /// Query `WIRE_IDS[a]`, plus `WIRE_IDS[b]` when `b` indexes it,
        /// tagged with `WIRE_TAGS[tag]`: a top-`k` enumeration when `k`
        /// is not 0.
        Query {
            a: usize,
            b: usize,
            tag: usize,
            k: usize,
        },
        /// Add the edge `WIRE_IDS[a]`–`WIRE_IDS[b]`.
        Add { a: usize, b: usize },
        /// Delete the `pick`-th live edge (modulo the edge count).
        Del { pick: usize },
        /// Pin the connection's session to the current graph.
        Repin,
    }

    /// Original ids: the twelve loaded nodes, shuffled so that sorting
    /// after mapping shows, and three fresh ids (5, 15, 25) an `add`
    /// creates.
    const WIRE_IDS: [u64; 15] = [50, 10, 5, 40, 0, 15, 30, 20, 25, 70, 60, 110, 90, 100, 80];

    /// Tags with quotes, backslashes, control characters and non-ASCII
    /// text; `None` sends no tag.
    const WIRE_TAGS: [Option<&str>; 6] = [
        None,
        Some("plain"),
        Some("q \"t\" \\ end"),
        Some("ctl \u{1}\t\n\u{1f}"),
        Some("ü 社区 é"),
        Some(""),
    ];

    fn wire_op() -> impl Strategy<Value = WireOp> {
        // Six in nine ops query the first nine ids (so the same query
        // repeats, hitting the cache), one in three of them as a top-1
        // or top-2 enumeration; the rest add, delete or repin.
        (0u8..9).prop_flat_map(|kind| {
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
                            },
                            7 => WireOp::Del { pick: b },
                            _ => WireOp::Repin,
                        })
                    })
                })
            })
        })
    }

    /// What the wire proptest expects of one reply line.
    #[derive(Debug)]
    enum Want {
        /// A `response` or `topk` line with these bytes, timings zeroed.
        Response(String),
        /// A reply of this `type`.
        Type(&'static str),
    }

    /// The reference the wire proptest checks the daemon against: the
    /// id map and the edge set, in dense ids.
    #[derive(Clone)]
    struct WireModel {
        original: Vec<u64>,
        edges: std::collections::BTreeSet<(NodeId, NodeId)>,
    }

    impl WireModel {
        fn dense(&self, raw: u64) -> Option<NodeId> {
            self.original
                .iter()
                .position(|&r| r == raw)
                .map(|d| d as NodeId)
        }

        /// The dense id of `raw`, created when unseen (as an `add` does).
        fn dense_or_create(&mut self, raw: u64) -> NodeId {
            self.dense(raw).unwrap_or_else(|| {
                self.original.push(raw);
                (self.original.len() - 1) as NodeId
            })
        }

        /// The graph, rebuilt from scratch.
        fn graph(&self) -> dmcs_graph::Graph {
            let edges: Vec<(NodeId, NodeId)> = self.edges.iter().copied().collect();
            GraphBuilder::from_edges(self.original.len(), &edges)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wire_replies_equal_a_cacheless_session_on_the_pinned_graph(
            ops in proptest::collection::vec(wire_op(), 0..50),
        ) {
            // Three components, each inside one of three shards.
            let base: [(NodeId, NodeId); 12] = [
                (0, 1), (0, 2), (1, 2), (2, 3),
                (4, 5), (5, 6), (6, 7), (4, 7), (4, 6),
                (8, 9), (9, 10), (10, 11),
            ];
            let loaded: Vec<u64> = WIRE_IDS.iter().copied().filter(|id| id % 10 == 0).collect();
            let engine = Engine::from_graph_sharded(GraphBuilder::from_edges(12, &base), 3);
            let sh = shared(engine, loaded.clone(), 8);
            let mut live = WireModel { original: loaded, edges: base.into_iter().collect() };
            let mut pinned = live.clone();

            // The transcript, and the reply type the model expects for
            // each line: `response` and `topk` lines carry the expected bytes.
            let (mut script, mut expected) = (String::new(), Vec::new());
            for op in &ops {
                let want = match *op {
                    WireOp::Query { a, b, tag, k } => {
                        let mut raw = vec![WIRE_IDS[a]];
                        if b < WIRE_IDS.len() && b != a {
                            raw.push(WIRE_IDS[b]);
                        }
                        let tag = WIRE_TAGS[tag];
                        let nodes = Json::Arr(raw.iter().map(|&id| Json::UInt(id)).collect());
                        script += &format!("{{\"op\":\"query\",\"nodes\":{}", nodes.render());
                        if let Some(t) = tag {
                            script += &format!(",\"tag\":{}", Json::str(t).render());
                        }
                        if k > 0 {
                            script += &format!(",\"k\":{k}");
                        }
                        script += "}\n";
                        match raw.iter().map(|&id| live.dense(id)).collect::<Option<Vec<_>>>() {
                            Some(dense) => {
                                let mut reference =
                                    Session::new(Snapshot::freeze(pinned.graph()), &sh.spec).unwrap();
                                let (mut line, writer) = (String::new(), &mut LineWriter::new());
                                let original = Some(&live.original[..]);
                                if k > 0 {
                                    let outcome = reference.top_k(&dense, k);
                                    writer.topk(&mut line, &outcome, k, tag, &dense, original);
                                } else {
                                    let mut request = QueryRequest::new(dense);
                                    request.tag = tag.map(str::to_string);
                                    let resp = reference.query(&request).unwrap();
                                    writer.response(&mut line, &resp, original);
                                }
                                Want::Response(zero_timings(line.trim_end()))
                            }
                            None => Want::Type("error"),
                        }
                    }
                    WireOp::Add { a, b } => {
                        let (u, v) = (WIRE_IDS[a], WIRE_IDS[b]);
                        script += &format!("{{\"op\":\"update\",\"action\":\"add\",\"u\":{u},\"v\":{v}}}\n");
                        if u == v {
                            Want::Type("error")
                        } else {
                            let (du, dv) = (live.dense_or_create(u), live.dense_or_create(v));
                            match live.edges.insert((du.min(dv), du.max(dv))) {
                                true => Want::Type("update"),
                                false => Want::Type("error"),
                            }
                        }
                    }
                    WireOp::Del { pick } => {
                        let edge = live.edges.iter().nth(pick % live.edges.len().max(1)).copied();
                        let (du, dv) = edge.unwrap_or((0, 1));
                        let (u, v) = (live.original[du as usize], live.original[dv as usize]);
                        script += &format!("{{\"op\":\"update\",\"action\":\"del\",\"u\":{u},\"v\":{v}}}\n");
                        match live.edges.remove(&(du, dv)) {
                            true => Want::Type("update"),
                            false => Want::Type("error"),
                        }
                    }
                    WireOp::Repin => {
                        script += "{\"op\":\"repin\"}\n";
                        pinned = live.clone();
                        Want::Type("repin")
                    }
                };
                expected.push(want);
            }

            let replies = raw_replies(&sh, &script);
            prop_assert_eq!(replies.len(), ops.len() + 1, "one reply per op, then the summary");
            for (i, (got, want)) in replies.iter().zip(&expected).enumerate() {
                match want {
                    Want::Response(line) => {
                        prop_assert_eq!(&zero_timings(got), line, "op {} of {:?}", i, ops)
                    }
                    Want::Type(ty) => {
                        let reply = Json::parse(got).unwrap();
                        let got_ty = reply.get("type").and_then(Json::as_str);
                        prop_assert_eq!(got_ty, Some(*ty), "op {} of {:?}: {}", i, ops, got);
                    }
                }
            }
        }
    }

    /// The replies of `transcript` on a fresh demo daemon whose lines are
    /// at most `max_line_bytes` long, read at most `chunk` bytes at a
    /// time; `None` when serving it panics.
    fn serve_fresh(transcript: &[u8], chunk: usize, max_line_bytes: usize) -> Option<Vec<u8>> {
        let (engine, original) = demo_engine();
        let mut sh = shared(engine, original, 8);
        sh.max_line_bytes = max_line_bytes;
        let mut io = Script::chunked(transcript, chunk);
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_conn(&sh, &mut io);
        }));
        served.ok().map(|()| io.output)
    }

    #[test]
    fn an_oversized_line_gets_one_reply_however_reads_split_it() {
        let script = format!(
            "{{\"op\":\"query\",\"nodes\":[{}0]}}\n{{\"op\":\"query\",\"nodes\":[0]}}\n",
            "0,".repeat(40)
        );
        let replies = |chunk| {
            let output = serve_fresh(script.as_bytes(), chunk, 32).unwrap();
            let text = String::from_utf8(output).unwrap();
            text.lines().map(zero_timings).collect::<Vec<_>>()
        };
        let (whole, bytewise) = (replies(usize::MAX), replies(1));
        assert_eq!(whole, bytewise);
        assert_eq!(whole.len(), 3, "{whole:?}");
        let error = Json::parse(&whole[0]).unwrap();
        let text = error.get("error").and_then(Json::as_str);
        assert_eq!(
            text,
            Some("bad request line 1: request line exceeds 32 bytes")
        );
        assert!(whole[1].contains("\"type\":\"response\""), "{whole:?}");
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

    /// The reply types the framing rules promise for `transcript`: one
    /// per complete line that is oversized or not blank (`stats` for an
    /// exact stats request, any type otherwise: `None`), one for a
    /// non-empty torn tail (oversized or not), then the `summary`.
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

    /// Why serving `transcript` breaks the wire's promises, if it does.
    /// It is served whole and in reads of at most `chunk` bytes, each on
    /// a fresh daemon: neither may panic, the whole run must give the
    /// promised replies, each an object with a `type`, and both runs
    /// the same bytes once timings are zeroed.
    fn wire_violation(transcript: &[u8], chunk: usize) -> Option<String> {
        let serve = |chunk| serve_fresh(transcript, chunk, FUZZ_MAX);
        let (Some(whole), Some(chunked)) = (serve(usize::MAX), serve(chunk)) else {
            return Some("serving panicked".into());
        };
        let (Ok(whole), Ok(chunked)) = (String::from_utf8(whole), String::from_utf8(chunked))
        else {
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
            match (parsed.as_ref().and_then(|v| v.get("type")?.as_str()), want) {
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
            // Fuzzed lines, a `stats` request that must be answered as
            // usual, and a torn tail: a fuzzed line, newlines removed,
            // cut short or not (a padded `stats` line can tear oversized).
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

    #[test]
    fn shutdown_op_drains_and_still_summarises() {
        let (engine, original) = demo_engine();
        let sh = shared(engine, original, 8);
        let mut io = Script::new(
            "{\"op\":\"query\",\"nodes\":[0]}\n\
             {\"op\":\"shutdown\"}\n\
             {\"op\":\"query\",\"nodes\":[1]}\n",
        );
        serve_conn(&sh, &mut io);
        assert!(sh.draining());
        let replies = io.replies();
        // The request pipelined after shutdown is not served.
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_eq!(replies[1].get("type").unwrap().as_str(), Some("shutdown"));
        assert_eq!(replies[2].get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(replies[2].get("queries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn a_client_that_stops_reading_cannot_wedge_drain() {
        use std::io::{BufRead, BufReader};
        // Two 100-cliques joined by one edge, with 16-digit original ids:
        // each answer lists 100 of them, about 1.9 KB a reply.
        let mut b = GraphBuilder::new(200);
        for base in [0u32, 100] {
            for i in base..base + 100 {
                for j in i + 1..base + 100 {
                    b.add_edge(i, j);
                }
            }
        }
        b.add_edge(0, 100);
        let original = (0..200).map(|i| 1_000_000_000_000_000 + i).collect();
        let cfg = ServerConfig {
            tcp_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        };
        let spec = AlgoSpec::new("fpa");
        let mut server = Server::bind(Engine::from_graph(b.build()), spec, original, &cfg).unwrap();
        let deadline = Duration::from_millis(200);
        Arc::get_mut(&mut server.shared).unwrap().write_deadline = deadline;
        let (addr, handle) = (server.tcp_addr().unwrap(), server.handle());
        let (done, finished) = std::sync::mpsc::channel();
        let daemon = std::thread::spawn(move || done.send(server.run()));

        // One round trip: the connection is accepted and served.
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let read_limit = Some(Duration::from_secs(10));
        reader.get_ref().set_read_timeout(read_limit).unwrap();
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.contains("\"type\":\"stats\""), "{first}");
        // Then it pipelines 20 000 queries, whose ~38 MB of replies no
        // socket buffer holds, and never reads again. Its own write
        // gives up after a while, so the test cannot hang on it.
        let write_limit = Some(Duration::from_secs(2));
        client.set_write_timeout(write_limit).unwrap();
        let flood = format!(
            "{{\"op\":\"query\",\"nodes\":[{}]}}\n",
            1_000_000_000_000_000u64
        );
        let _ = client.write_all(flood.repeat(20_000).as_bytes());

        handle.shutdown();
        let margin = Duration::from_secs(5);
        let stats = finished.recv_timeout(deadline + margin);
        assert!(stats.is_ok(), "run still waits on the stalled client");
        assert_eq!(handle.shared.slow_client_drops.load(Ordering::SeqCst), 1);
        drop((client, reader));
        daemon.join().unwrap().unwrap();
    }
}
