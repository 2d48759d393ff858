//! `dmcs serve` — a long-lived socket daemon fronting the typed engine
//! API with a versioned JSON-lines wire protocol.
//!
//! The daemon listens on a unix socket and/or a TCP address
//! (hand-rolled on `std::net` / `std::os::unix::net` — the workspace's
//! dependency policy admits no async runtime or socket crate) and
//! serves each connection from its own thread, through the one
//! connection loop, [`Server::serve_stream`], which also serves any
//! in-process `Read + Write` stream (a server bound without listeners
//! serves only those). Every connection opens a
//! [`Session`] pinned to the snapshot current when it starts, so a
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

/// Where and how the daemon listens; a config naming no listener binds
/// a server that only [`Server::serve_stream`] drives.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the unix socket to bind (`None` = no unix listener). A
    /// stale socket file at the path is replaced; any other file there
    /// is left alone, and binding fails.
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
    /// Validate `spec`, bind exactly the listeners `cfg` names and return
    /// the ready-to-run server. With no listener named, only
    /// [`Server::serve_stream`] drives it, and [`Server::run`] returns
    /// at once. `original` is the dense → original id mapping of the
    /// loaded graph, as produced by the edge-list readers.
    pub fn bind(
        engine: Engine,
        spec: AlgoSpec,
        original: Vec<u64>,
        cfg: &ServerConfig,
    ) -> Result<Server, EngineError> {
        let algo_name = spec.build()?.name();
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
                use std::os::unix::fs::FileTypeExt;
                let pb = PathBuf::from(path);
                // A stale socket file from a crashed predecessor blocks
                // bind(2); remove it (a live listener is unaffected on
                // its end — it holds the inode, not the name). Any other
                // file at the path is left as it is.
                match std::fs::symlink_metadata(&pb) {
                    Ok(m) if m.file_type().is_socket() => drop(std::fs::remove_file(&pb)),
                    Ok(_) => {
                        let e = std::io::Error::new(ErrorKind::AlreadyExists, "not a socket");
                        return Err(EngineError::io(path, e));
                    }
                    Err(_) => {}
                }
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

    /// Serve one connection: newline-framed requests in, JSON-lines out,
    /// strictly in order, ending with a `summary` line. The accept loop
    /// runs it on every accepted socket; a stream whose reads never time
    /// out is served until it ends or sends `shutdown`.
    pub fn serve_stream(&self, mut stream: impl Read + Write) {
        let shared = &*self.shared;
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

    /// Serve until drained (a `shutdown` op, [`ServerHandle::shutdown`]
    /// or SIGTERM via [`install_sigterm_drain`]): accept loops and
    /// per-connection threads all run inside one scope, so every thread
    /// is joined — and the unix socket file unlinked — before this
    /// returns.
    pub fn run(self) -> ServerStats {
        std::thread::scope(|scope| {
            let server = &self;
            if let Some(listener) = &self.tcp {
                scope.spawn(move || accept_loop(server, listener, scope));
            }
            #[cfg(unix)]
            if let Some(listener) = &self.unix {
                scope.spawn(move || accept_loop(server, listener, scope));
            }
        });
        let shared = &*self.shared;
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

/// Accept connections until drain, serving each with
/// [`Server::serve_stream`] on its own thread of `scope`. Every accepted
/// stream gets the same deadlines: a read waits
/// at most [`POLL`], so an idle connection notices drain, and a reply
/// write at most the write deadline, so a client that stops reading
/// cannot hold up drain. A stream that cannot take them is closed.
///
/// The listener does not block: while no connection waits, the loop
/// sleeps from [`FIRST_NAP`] doubling up to [`POLL`], so drain is
/// noticed within `POLL`. (A blocking accept would need a wake-up
/// connection on drain, which cannot reach a unix path that another
/// daemon has since bound.)
fn accept_loop<'s, 'e, L: Listener>(server: &'e Server, listener: &'e L, scope: &'s Scope<'s, 'e>) {
    let mut nap = FIRST_NAP;
    loop {
        if server.shared.draining() {
            return;
        }
        match listener.accept_stream() {
            Ok(stream) => {
                nap = FIRST_NAP;
                if L::set_timeouts(&stream, POLL, server.shared.write_deadline).is_ok() {
                    scope.spawn(move || server.serve_stream(stream));
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
    use dmcs_graph::GraphBuilder;

    fn demo_engine() -> (Engine, Vec<u64>) {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        (Engine::from_graph(g), (0..6).collect())
    }

    /// A server of `spec` over the demo graph, bound without listeners,
    /// admitting one work op at a time.
    fn one_slot_server(spec: &str) -> Server {
        let (engine, original) = demo_engine();
        let cfg = ServerConfig {
            queue_cap: 1,
            ..ServerConfig::default()
        };
        Server::bind(engine, AlgoSpec::new(spec), original, &cfg).unwrap()
    }

    #[test]
    fn a_panic_inside_an_admitted_op_gives_its_slot_back() {
        let server = one_slot_server("fpa");
        let sh = &*server.shared;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = sh.admit().expect("the gate is open");
            assert!(sh.admit().is_none(), "queue_cap 1 admits one op");
            panic!("a search panicked mid-query");
        }));
        assert!(unwound.is_err());
        assert_eq!(sh.in_flight.load(Ordering::SeqCst), 0);
        assert!(sh.admit().is_some(), "the next op is admitted");
    }

    #[cfg(unix)]
    #[test]
    fn a_panicking_request_gets_a_code_9_reply_and_the_connection_serves_on() {
        let server = one_slot_server("panic-on-0");
        // One connection over a socket pair: its requests are written
        // and its write side closed before the server reads them.
        let (mut client, conn) = UnixStream::pair().unwrap();
        client
            .write_all(
                b"{\"op\":\"query\",\"nodes\":[0],\"tag\":\"boom\"}\n\
                  {\"op\":\"query\",\"nodes\":[4]}\n\
                  {\"op\":\"query\",\"nodes\":[4]}\n\
                  {\"op\":\"stats\"}\n\
                  {\"op\":\"shutdown\"}\n",
            )
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        // A panic that escaped the request would escape this call too.
        server.serve_stream(conn);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        let replies: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 6, "{replies:?}");
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
        assert_eq!(replies[4].get("type").unwrap().as_str(), Some("shutdown"));
        let summary = &replies[5];
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(summary.get("queries").unwrap().as_u64(), Some(2));
        // The daemon drains normally.
        assert!(server.shared.draining());
        let stats = server.run();
        assert_eq!((stats.connections, stats.served), (1, 2));
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
