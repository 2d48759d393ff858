//! The real daemon over a unix socket: process lifecycle and the
//! closed-loop clients.
//!
//! Every client sends its next request only after the reply to the
//! previous one arrived (no pipelining), because dmcs callers each wait
//! for their answer, and the admission gate refuses excess work instead
//! of queueing it. Lifecycle events (a missing `summary` line, a
//! nonzero exit, a leftover socket file, a daemon that dies mid-run)
//! are counted as failed ops, never as an aborted benchmark.

use crate::check::{uint_member, Transcript};
use crate::gen::{Inputs, Op};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Longest wait for one reply before the daemon counts as gone.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest wait for the daemon to bind its socket, or to exit after
/// `shutdown`.
const LIFECYCLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Attempted and failed ops, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
    reply: String,
}

impl Conn {
    pub fn connect(path: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            reply: String::new(),
        })
    }

    /// Send one request line and read its reply line (without the
    /// newline). `None` when the daemon closed, broke or stalled.
    pub fn call(&mut self, line: &str) -> Option<&str> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out).ok()?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(self.reply.trim_end_matches('\n')),
        }
    }

    /// Half-close and read what the daemon still sends: its closing
    /// `summary` line.
    pub fn finish(mut self) -> Vec<String> {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let mut lines = Vec::new();
        loop {
            self.reply.clear();
            match self.reader.read_line(&mut self.reply) {
                Ok(0) | Err(_) => return lines,
                Ok(_) => lines.push(self.reply.trim_end_matches('\n').to_string()),
            }
        }
    }
}

pub fn is_type(reply: &str, ty: &str) -> bool {
    reply.starts_with(&format!("{{\"type\":\"{ty}\""))
}

/// A spawned `dmcs serve` process.
pub struct Daemon {
    child: Child,
    pub sock: PathBuf,
    spawned: Instant,
}

impl Daemon {
    /// Start `dmcs serve` on `work/graph.txt`, listening on
    /// `work/d.sock`.
    pub fn spawn(dmcs: &Path, work: &Path, flags: &[&str]) -> std::io::Result<Daemon> {
        let sock = work.join("d.sock");
        let _ = std::fs::remove_file(&sock);
        let log = std::fs::File::create(work.join("daemon.log"))?;
        let spawned = Instant::now();
        let child = Command::new(dmcs)
            .args(["serve", "--graph", "graph.txt", "--unix", "d.sock"])
            .args(flags)
            .current_dir(work)
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        Ok(Daemon {
            child,
            sock,
            spawned,
        })
    }

    /// Wait for the socket, then time spawn → first `stats` reply.
    pub fn ready(&mut self) -> Result<(Conn, f64), String> {
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during setup: {status}"));
            }
            if let Ok(mut conn) = Conn::connect(&self.sock) {
                let ok = conn
                    .call("{\"op\":\"stats\"}")
                    .is_some_and(|r| is_type(r, "stats"));
                let setup = self.spawned.elapsed().as_secs_f64();
                return if ok {
                    Ok((conn, setup))
                } else {
                    Err("no stats reply after connect".into())
                };
            }
            if self.spawned.elapsed() > LIFECYCLE_TIMEOUT {
                return Err("daemon never bound its socket".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// On-CPU time of all the daemon's threads so far, ns (scheduler
    /// accounting, which leaves out time the host ran someone else).
    pub fn cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.child.id())) else {
            return 0;
        };
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn vm_hwm_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// `shutdown` on the control connection, then every lifecycle check.
    pub fn stop(mut self, ctl: Option<Conn>, tally: &mut Tally) {
        if let Some(mut ctl) = ctl {
            let acked = ctl
                .call("{\"op\":\"shutdown\"}")
                .is_some_and(|r| is_type(r, "shutdown"));
            tally.check(acked, || "no shutdown reply".into());
            let rest = ctl.finish();
            tally.check(rest.len() == 1 && is_type(&rest[0], "summary"), || {
                format!("control connection closed with {rest:?}")
            });
        }
        let deadline = Instant::now() + LIFECYCLE_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        tally.check(status.is_some_and(|s| s.success()), || {
            format!("daemon exit: {status:?}")
        });
        tally.check(!self.sock.exists(), || "socket file left behind".into());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one client connection did.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Ops that got a reply, in send order (a prefix of the stream).
    pub sent: usize,
    /// Round trip of each of those, ns.
    pub rtt_ns: Vec<u64>,
    /// When each of those was sent, ns after the clients started.
    pub sent_at_ns: Vec<u64>,
    pub reply_bytes: u64,
    /// Wire code 8 replies.
    pub overloaded: u64,
    /// Ops never answered because the daemon went away.
    pub lost: usize,
    pub elapsed_s: f64,
    pub transcript: Transcript,
    /// The connection's closing lines after it half-closed.
    pub closing: Vec<String>,
}

impl ClientLog {
    /// (send time ns, round trip ms) of the ops matching `pick`.
    pub fn rtt_ms(&self, ops: &[Op], pick: impl Fn(Op) -> bool) -> Vec<(u64, f64)> {
        ops.iter()
            .zip(self.sent_at_ns.iter().zip(&self.rtt_ns))
            .filter(|(op, _)| pick(**op))
            .map(|(_, (&at, &ns))| (at, ns as f64 / 1e6))
            .collect()
    }
}

/// Drive `ops` closed-loop; a program too slow to finish them within
/// `cap` is cut off there.
pub fn drive(
    conn: &mut Conn,
    inputs: &Inputs,
    query_lines: &[String],
    ops: &[Op],
    first_epoch: u64,
    start: &Barrier,
    origin: Instant,
    cap: Duration,
) -> ClientLog {
    let mut log = ClientLog {
        rtt_ns: Vec::with_capacity(ops.len()),
        sent_at_ns: Vec::with_capacity(ops.len()),
        ..ClientLog::default()
    };
    let mut epoch = first_epoch;
    let mut update_line;
    start.wait();
    let t0 = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        if t0.elapsed() >= cap {
            break;
        }
        let line: &str = match op {
            Op::Query(q) => &query_lines[q as usize],
            _ => {
                update_line = inputs.line(op);
                &update_line
            }
        };
        let sent = Instant::now();
        let Some(reply) = conn.call(line) else {
            log.lost = ops.len() - i;
            break;
        };
        log.rtt_ns.push(sent.elapsed().as_nanos() as u64);
        log.sent_at_ns.push((sent - origin).as_nanos() as u64);
        log.sent += 1;
        log.reply_bytes += reply.len() as u64 + 1;
        if is_type(reply, "error") && uint_member(reply, "code") == Some(8) {
            log.overloaded += 1;
        }
        match op {
            Op::Query(q) => log
                .transcript
                .queries
                .entry((q, epoch))
                .or_default()
                .add(reply),
            _ => {
                log.transcript.control.push((op, epoch, reply.to_string()));
                if op == Op::Repin {
                    epoch = uint_member(reply, "version").unwrap_or(epoch);
                }
            }
        }
    }
    log.elapsed_s = t0.elapsed().as_secs_f64();
    log
}

/// One daemon session of a workload: set-up probes, the measured
/// closed-loop phase, and the lifecycle checks.
pub struct DaemonRun {
    pub setup_s: Vec<f64>,
    pub logs: Vec<ClientLog>,
    pub wall_s: f64,
    pub stats_before: String,
    pub stats_after: String,
    pub rss_mb: f64,
    pub tally: Tally,
    pub steal_frac: f64,
    /// Daemon on-CPU time during the measured phase, s.
    pub daemon_cpu_s: f64,
}

fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.iter().take(8).sum(), f.get(7).copied().unwrap_or(0))
}

/// Spawn the daemon `probes` extra times just to time set-up, then
/// serve the first `counts[c]` ops of stream `c` on connection `c`.
pub fn run_daemon(
    inputs: &Inputs,
    dmcs: &Path,
    work: &Path,
    counts: &[usize],
    cap: Duration,
    probes: usize,
) -> DaemonRun {
    let flags = inputs.workload.serve_flags();
    let mut run = DaemonRun {
        setup_s: Vec::new(),
        logs: Vec::new(),
        wall_s: 0.0,
        stats_before: String::new(),
        stats_after: String::new(),
        rss_mb: 0.0,
        steal_frac: 0.0,
        daemon_cpu_s: 0.0,
        tally: Tally::default(),
    };
    let tally = &mut run.tally;
    for _ in 0..probes {
        match Daemon::spawn(dmcs, work, flags) {
            Ok(mut d) => match d.ready() {
                Ok((ctl, setup)) => {
                    run.setup_s.push(setup);
                    d.stop(Some(ctl), tally);
                }
                Err(e) => {
                    tally.check(false, || e);
                    d.stop(None, tally);
                }
            },
            Err(e) => tally.check(false, || format!("spawn: {e}")),
        }
    }

    let mut daemon = match Daemon::spawn(dmcs, work, flags) {
        Ok(d) => d,
        Err(e) => {
            tally.check(false, || format!("spawn: {e}"));
            return run;
        }
    };
    let mut ctl = match daemon.ready() {
        Ok((ctl, setup)) => {
            run.setup_s.push(setup);
            ctl
        }
        Err(e) => {
            tally.check(false, || e);
            daemon.stop(None, tally);
            return run;
        }
    };

    // Connect every client and learn its pinned epoch before any client
    // starts, so no update can slip in between accept and pin.
    let mut conns = Vec::new();
    for _ in &inputs.clients {
        let opened = Conn::connect(&daemon.sock).ok().and_then(|mut c| {
            let epoch = c
                .call("{\"op\":\"stats\"}")
                .filter(|r| is_type(r, "stats"))
                .and_then(|r| uint_member(r, "pinned_version"))?;
            Some((c, epoch))
        });
        tally.check(opened.is_some(), || "client could not connect".into());
        match opened {
            Some(c) => conns.push(c),
            None => {
                daemon.stop(Some(ctl), tally);
                return run;
            }
        }
    }
    run.stats_before = ctl.call("{\"op\":\"stats\"}").unwrap_or("").to_string();

    let query_lines: Vec<String> = (0..inputs.queries.len() as u32)
        .map(|q| inputs.line(Op::Query(q)))
        .collect();
    let barrier = Barrier::new(conns.len());
    let origin = Instant::now();
    let ticks0 = cpu_ticks();
    let cpu0 = daemon.cpu_ns();
    let logs: Vec<(ClientLog, Conn)> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .zip(inputs.clients.iter().zip(counts))
            .map(|((mut conn, epoch), (ops, &count))| {
                let (barrier, query_lines) = (&barrier, &query_lines);
                let ops = &ops[..count.min(ops.len())];
                scope.spawn(move || {
                    let log = drive(
                        &mut conn,
                        inputs,
                        query_lines,
                        ops,
                        epoch,
                        barrier,
                        origin,
                        cap,
                    );
                    (log, conn)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });

    let ticks1 = cpu_ticks();
    run.daemon_cpu_s = daemon.cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    run.steal_frac = (ticks1.1 - ticks0.1) as f64 / (ticks1.0 - ticks0.0).max(1) as f64;
    for (mut log, conn) in logs {
        run.wall_s = run.wall_s.max(log.elapsed_s);
        log.closing = conn.finish();
        let queries = log
            .transcript
            .queries
            .values()
            .map(|b| b.total())
            .sum::<u64>();
        let closed_ok = log.closing.len() == 1
            && is_type(&log.closing[0], "summary")
            && uint_member(&log.closing[0], "queries") == Some(queries);
        let closing = &log.closing;
        tally.check(closed_ok, || {
            format!("connection closed with {closing:?} after {queries} queries")
        });
        run.logs.push(log);
    }
    run.stats_after = ctl.call("{\"op\":\"stats\"}").unwrap_or("").to_string();
    run.rss_mb = daemon.vm_hwm_mb().unwrap_or(0.0);
    daemon.stop(Some(ctl), tally);
    run
}
