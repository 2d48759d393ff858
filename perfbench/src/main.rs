//! `dmcs-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! dmcs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --dmcs <path to the release dmcs binary> --work <work dir>
//!                [--stamp <host/build JSON>]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds both
//! binaries from source first. The workload's inputs are generated from
//! the seed (see `gen.rs`); the program only ever sees the generated
//! edge list and op streams.
//!
//! `--trace 0` measures the real program: three daemon workloads drive
//! `dmcs serve` over a unix socket from closed-loop client connections,
//! and `batch_offline` runs `dmcs --queries` back to back. Every reply
//! is checked against an independent reference. The last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics.
//!
//! `--trace 1` serves the workload for half the time, then replays the
//! exact ops that were answered in-process, once without and once with
//! spans around every layer call, and reports the per-layer metrics.

mod check;
mod gen;
mod offline;
mod replay;
mod stats;
mod wire;

use check::Reference;
use gen::{Inputs, Op, Workload};
use replay::{Replay, ROOT};
use stats::{mean, median, pct, windowed_pct};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dmcs: PathBuf,
    work: PathBuf,
    stamp: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let name = need("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<f64, String> {
        need(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let dmcs = std::fs::canonicalize(need("--dmcs")?).map_err(|e| format!("--dmcs: {e}"))?;
    Ok(Args {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: need("--trace")? == "1",
        dmcs,
        work: PathBuf::from(need("--work")?),
        stamp: get("--stamp").unwrap_or("{}").to_string(),
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// The JSON result line's metrics.
    metrics: Vec<Metric>,
    /// Printed for people, not part of the result line.
    extra: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dmcs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let inputs = gen::generate(w, args.seed);
    let shape_bad = inputs.shape.violations(&gen::shape_range(w));
    if let Err(e) = write_inputs(&inputs, &args.work) {
        eprintln!("dmcs-perfbench: writing inputs: {e}");
        return ExitCode::from(1);
    }
    // A run does a fixed amount of work, sized to take about `--seconds`
    // at the rates the workload reaches on a 2-core host, so a faster
    // program finishes sooner and every run of a seed serves the same
    // ops. A program more than 3x slower is cut off at the cap.
    let work_for = |seconds: f64| -> Vec<usize> {
        w.rates()
            .iter()
            .map(|rate| (rate * seconds).ceil() as usize)
            .collect()
    };
    let cap = Duration::from_secs_f64(3.0 * args.seconds + 10.0);
    let mut out = match (w, args.trace) {
        (Workload::BatchOffline, false) => batch_e2e(&inputs, &args, work_for(args.seconds)[0]),
        (Workload::BatchOffline, true) => batch_traced(&inputs, &args),
        (_, false) => daemon_e2e(&inputs, &args, &work_for(args.seconds), cap),
        (_, true) => daemon_traced(&inputs, &args, &work_for(args.seconds / 2.0), cap),
    };
    for v in &shape_bad {
        out.notes.push(format!("input shape: {v}"));
    }
    let correct = out.failed == 0 && shape_bad.is_empty();

    let stamp = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"inputs_fnv\":\"{:016x}\",\
         \"available_parallelism\":{},\"host\":{}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.digest(1_000),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.stamp
    );
    let s = &inputs.shape;
    println!(
        "shape: n {} m {} components {} largest_share {} distinct_queries {} single_frac {:.3}",
        s.n, s.m, s.components, s.largest_share, s.distinct_queries, s.single_frac
    );
    for metric in out.metrics.iter().chain(&out.extra) {
        println!("{:<28} {:>14.6} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "ops_failed_frac {:.6} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    println!("stamp: {stamp}");
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    let _ = std::fs::write(
        args.work.join("result.json"),
        format!("{{\"stamp\":{stamp},\"result\":{result}}}\n"),
    );
    println!("{result}");
    ExitCode::SUCCESS
}

fn write_inputs(inputs: &Inputs, work: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(work)?;
    std::fs::write(work.join("graph.txt"), &inputs.edge_text)?;
    if inputs.workload == Workload::BatchOffline {
        std::fs::write(work.join("queries.txt"), inputs.batch_text())?;
    }
    Ok(())
}

fn is_query(op: Op) -> bool {
    matches!(op, Op::Query(_))
}

fn is_update(op: Op) -> bool {
    matches!(op, Op::Del(_) | Op::Add(_))
}

/// Updates the writer got replies for (the upper bound on any epoch).
fn updates_sent(inputs: &Inputs, sent: &[usize]) -> u64 {
    inputs
        .clients
        .iter()
        .zip(sent)
        .map(|(ops, &k)| ops[..k].iter().filter(|&&op| is_update(op)).count() as u64)
        .sum()
}

fn daemon_e2e(inputs: &Inputs, args: &Args, counts: &[usize], cap: Duration) -> Outcome {
    // Four set-up probes plus the serving daemon: setup_s is a median
    // of five spawns.
    let run = wire::run_daemon(inputs, &args.dmcs, &args.work, counts, cap, 4);
    let (attempted, failed, notes) = score_daemon(inputs, &run);
    let rtts = |pick: fn(Op) -> bool| -> Vec<(u64, f64)> {
        run.logs
            .iter()
            .zip(&inputs.clients)
            .flat_map(|(log, ops)| log.rtt_ms(ops, pick))
            .collect()
    };
    let q = rtts(is_query);
    let upd = rtts(is_update);
    let rep = rtts(|op| op == Op::Repin);
    let sent_at: Vec<u64> = run
        .logs
        .iter()
        .flat_map(|l| l.sent_at_ns.iter().copied())
        .collect();
    let mut setup = run.setup_s.clone();
    // Printed, not in the result line: on a shared 2-vCPU host the
    // tails and the closed-loop rate move between runs far more than a
    // regression bound can allow (see README).
    let mut extra = vec![
        m("query_p90_ms", "ms", windowed_pct(&q, 0.9)),
        m("query_p99_ms", "ms", windowed_pct(&q, 0.99)),
        m("throughput_ops_s", "1/s", sent_at.len() as f64 / run.wall_s),
        m("queries", "count", q.len() as f64),
        m("wall_s", "s", run.wall_s),
        m("host_steal_frac", "ratio", run.steal_frac),
    ];
    if !upd.is_empty() {
        extra.extend([
            m("update_p50_ms", "ms", windowed_pct(&upd, 0.5)),
            m("update_p99_ms", "ms", windowed_pct(&upd, 0.99)),
            m("updates", "count", upd.len() as f64),
            m("repin_p50_ms", "ms", windowed_pct(&rep, 0.5)),
            m("repin_p90_ms", "ms", windowed_pct(&rep, 0.9)),
            m("repins", "count", rep.len() as f64),
        ]);
    }
    Outcome {
        attempted,
        failed,
        notes,
        metrics: vec![
            m("query_p50_ms", "ms", windowed_pct(&q, 0.5)),
            m(
                "cpu_us_per_op",
                "us",
                run.daemon_cpu_s * 1e6 / sent_at.len().max(1) as f64,
            ),
            m("setup_s", "s", median(&mut setup)),
            m("rss_peak_mb", "MiB", run.rss_mb),
        ],
        extra,
    }
}

/// Attempted/failed over a daemon run: every op sent, every op lost to
/// a dead daemon, every lifecycle check, and the reference check of
/// every reply.
fn score_daemon(inputs: &Inputs, run: &wire::DaemonRun) -> (u64, u64, Vec<String>) {
    let sent: Vec<usize> = run.logs.iter().map(|l| l.sent).collect();
    let writer_updates = updates_sent(inputs, &sent);
    let mut reference = Reference::new(inputs);
    let mut attempted = run.tally.attempted;
    let mut failed = run.tally.failed;
    let mut notes = run.tally.notes.clone();
    for (c, log) in run.logs.iter().enumerate() {
        attempted += (log.sent + log.lost) as u64;
        failed += log.lost as u64;
        let bad = reference.failures(&log.transcript, writer_updates);
        if bad > 0 {
            notes.push(format!(
                "connection {c}: {bad} replies differ from the reference"
            ));
        }
        failed += bad;
    }
    (attempted, failed, notes)
}

fn batch_e2e(inputs: &Inputs, args: &Args, invocations: usize) -> Outcome {
    let run = offline::run(inputs, &args.dmcs, &args.work, invocations.max(3));
    let n = inputs.batch.len();
    // Each process is one window: percentiles per process, then the
    // median over processes.
    let per_process = |p: f64| -> f64 {
        let mut per: Vec<f64> = run
            .invocations
            .iter()
            .map(|inv| {
                let mut lat: Vec<f64> = inv
                    .lines
                    .iter()
                    .take(n)
                    .filter_map(|l| check::number_member(l, "seconds"))
                    .map(|s| s * 1e3)
                    .collect();
                pct(&mut lat, p)
            })
            .collect();
        median(&mut per)
    };
    let mut tput: Vec<f64> = run
        .invocations
        .iter()
        .map(|inv| n as f64 / inv.batch_s)
        .collect();
    let mut setup: Vec<f64> = run
        .invocations
        .iter()
        .map(|inv| inv.wall_s - inv.batch_s)
        .collect();
    let mut rss: Vec<f64> = run.invocations.iter().map(|inv| inv.rss_mb).collect();
    let mut cpu: Vec<f64> = run
        .invocations
        .iter()
        .map(|inv| inv.cpu_s * 1e6 / n as f64)
        .collect();
    Outcome {
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        notes: run.tally.notes,
        metrics: vec![
            m("query_p50_ms", "ms", per_process(0.5)),
            m("cpu_us_per_op", "us", median(&mut cpu)),
            m("setup_s", "s", median(&mut setup)),
            m("rss_peak_mb", "MiB", median(&mut rss)),
        ],
        extra: vec![
            m("query_p90_ms", "ms", per_process(0.9)),
            m("query_p99_ms", "ms", per_process(0.99)),
            m("throughput_ops_s", "1/s", median(&mut tput)),
            m("invocations", "count", run.invocations.len() as f64),
        ],
    }
}

/// Every per-layer metric name and unit, in report order.
const PER_LAYER: [(&str, &str); 32] = [
    ("server.wire_us_p50", "us"),
    ("server.overloaded", "count"),
    ("output.parse_us_p50", "us"),
    ("output.render_us_p50", "us"),
    ("output.reply_bytes_mean", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us_p50", "us"),
    ("cache.entries", "count"),
    ("session.self_us_p50", "us"),
    ("session.open_us_p50", "us"),
    ("session.mirror_frac", "ratio"),
    ("session.memo_hit_frac", "ratio"),
    ("kernel.us_p50", "us"),
    ("kernel.us_p99", "us"),
    ("kernel.share", "ratio"),
    ("kernel.iterations_mean", "count"),
    ("kernel.community_size_mean", "count"),
    ("store.mutate_us_p50", "us"),
    ("store.rebuild_ms_p50", "ms"),
    ("store.rebuild_ms_p90", "ms"),
    ("store.rebuilds", "count"),
    ("store.dirty_shards_mean", "count"),
    ("layout.build_ms_p50", "ms"),
    ("layout.share_of_rebuild", "ratio"),
    ("io.load_s", "s"),
    ("batch.run_s", "s"),
    ("batch.groups", "count"),
    ("batch.shared_bfs_reuses", "count"),
    ("batch.unique_frac", "ratio"),
    ("plan.choose_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Per-layer values by name; layers a workload never reaches read 0.
fn per_layer(values: &[(&str, f64)]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            m(name, unit, v)
        })
        .collect()
}

fn spans_us(replay: &Replay, name: &str) -> Vec<f64> {
    replay
        .conns
        .iter()
        .flat_map(|c| c.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .collect()
}

fn stat_delta(before: &str, after: &str, key: &str) -> f64 {
    let get = |s: &str| check::uint_member(s, key).unwrap_or(0) as f64;
    get(after) - get(before)
}

/// Kernel seconds the daemon reported, once per computation: a cache
/// hit replays the `seconds` of the computation it came from, so equal
/// (query, seconds) pairs are one computation.
fn daemon_kernel_s(run: &wire::DaemonRun) -> Vec<f64> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for log in &run.logs {
        for (&(q, _), bucket) in &log.transcript.queries {
            for reply in std::iter::once(&bucket.first).chain(&bucket.others) {
                if let Some(s) = check::number_member(reply, "seconds") {
                    if seen.insert((q, s.to_bits())) {
                        out.push(s);
                    }
                }
            }
        }
    }
    out
}

fn daemon_traced(inputs: &Inputs, args: &Args, counts: &[usize], cap: Duration) -> Outcome {
    let run = wire::run_daemon(inputs, &args.dmcs, &args.work, counts, cap, 0);
    let (mut attempted, mut failed, mut notes) = score_daemon(inputs, &run);
    let sent: Vec<usize> = run.logs.iter().map(|l| l.sent).collect();
    let plain = replay::replay_daemon(inputs, &args.work, &sent, false);
    let traced = replay::replay_daemon(inputs, &args.work, &sent, true);

    // The replay is checked like the daemon.
    let mut reference = Reference::new(inputs);
    for (c, conn) in traced.conns.iter().enumerate() {
        attempted += sent[c] as u64;
        let bad = reference.failures(&conn.transcript, updates_sent(inputs, &sent));
        if bad > 0 {
            notes.push(format!("replay connection {c}: {bad} replies differ"));
        }
        failed += bad;
    }

    // Wire round trip minus the in-process root span of the same op.
    let mut wire_us: Vec<f64> = Vec::new();
    for (c, conn) in traced.conns.iter().enumerate() {
        let mut root_ns = vec![0u64; sent[c]];
        for s in conn
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == ROOT)
        {
            root_ns[s.req as usize] = s.ns();
        }
        wire_us.extend(
            run.logs[c]
                .rtt_ns
                .iter()
                .zip(&root_ns)
                .map(|(&rtt, &root)| (rtt as f64 - root as f64) / 1e3),
        );
    }
    let misses: Vec<replay::Miss> = traced
        .conns
        .iter()
        .flat_map(|c| c.misses.iter().copied())
        .collect();
    let kernel = daemon_kernel_s(&run);
    let mut kernel_us: Vec<f64> = kernel.iter().map(|s| s * 1e6).collect();
    let mut self_us: Vec<f64> = misses
        .iter()
        .map(|x| x.query_ns as f64 / 1e3 - x.kernel_s * 1e6)
        .collect();
    let mut hit_us: Vec<f64> = traced
        .conns
        .iter()
        .flat_map(|c| c.hit_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let query_rtt_s: f64 = run
        .logs
        .iter()
        .zip(&inputs.clients)
        .flat_map(|(log, ops)| log.rtt_ms(ops, is_query))
        .map(|(_, ms)| ms)
        .sum::<f64>()
        / 1e3;
    let kernel_s: f64 = kernel.iter().sum();
    let executed = misses.len().max(1) as f64;
    let mirror: u64 = traced.conns.iter().map(|c| c.mirror_served).sum();
    let memo: u64 = traced.conns.iter().map(|c| c.memo_hits).sum();
    let hits = stat_delta(&run.stats_before, &run.stats_after, "cache_hits");
    let cache_misses = stat_delta(&run.stats_before, &run.stats_after, "cache_misses");
    let mut rebuild_ms: Vec<f64> = spans_us(&traced, "store.rebuild")
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    let dirty: Vec<f64> = traced
        .conns
        .iter()
        .flat_map(|c| c.dirty.iter().map(|&d| d as f64))
        .collect();
    let mut layout_ms = traced.layout_ms.clone();
    let rebuild_p50 = pct(&mut rebuild_ms, 0.5);
    let layout_p50 = median(&mut layout_ms);
    let children_ns: u64 = traced
        .conns
        .iter()
        .flat_map(|c| c.spans.iter())
        .filter(|s| s.parent == Some(ROOT))
        .map(replay::Span::ns)
        .sum();
    let busy_ns: u64 = traced.conns.iter().map(|c| c.wall_ns - c.side_ns).sum();
    let side_s = traced.conns.iter().map(|c| c.side_ns).max().unwrap_or(0) as f64 / 1e9;
    let coverage = children_ns as f64 / busy_ns.max(1) as f64;
    if (coverage - 1.0).abs() > 0.10 {
        notes.push(format!("trace coverage {coverage:.3} is outside 1 ± 0.10"));
    }
    let spans_file = args.work.join("spans.tsv");
    if let Err(e) = replay::write_spans(&spans_file, traced.conns.iter().flat_map(|c| &c.spans)) {
        notes.push(format!("writing {}: {e}", spans_file.display()));
    }
    let sent_total: usize = sent.iter().sum();
    let reply_bytes: u64 = run.logs.iter().map(|l| l.reply_bytes).sum();
    let values = [
        ("server.wire_us_p50", median(&mut wire_us)),
        (
            "server.overloaded",
            run.logs.iter().map(|l| l.overloaded).sum::<u64>() as f64,
        ),
        (
            "output.parse_us_p50",
            median(&mut spans_us(&traced, "output.parse")),
        ),
        (
            "output.render_us_p50",
            median(&mut spans_us(&traced, "output.render")),
        ),
        (
            "output.reply_bytes_mean",
            reply_bytes as f64 / sent_total.max(1) as f64,
        ),
        ("cache.hit_ratio", hits / (hits + cache_misses).max(1.0)),
        ("cache.hit_us_p50", median(&mut hit_us)),
        ("cache.entries", traced.cache_entries as f64),
        ("session.self_us_p50", median(&mut self_us)),
        (
            "session.open_us_p50",
            median(&mut spans_us(&traced, "session.open")),
        ),
        ("session.mirror_frac", mirror as f64 / executed),
        ("session.memo_hit_frac", memo as f64 / executed),
        ("kernel.us_p50", pct(&mut kernel_us, 0.5)),
        ("kernel.us_p99", pct(&mut kernel_us, 0.99)),
        ("kernel.share", kernel_s / query_rtt_s),
        (
            "kernel.iterations_mean",
            mean(
                &misses
                    .iter()
                    .map(|x| x.iterations as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "kernel.community_size_mean",
            mean(&misses.iter().map(|x| x.size as f64).collect::<Vec<_>>()),
        ),
        (
            "store.mutate_us_p50",
            median(&mut spans_us(&traced, "store.mutate")),
        ),
        ("store.rebuild_ms_p50", rebuild_p50),
        ("store.rebuild_ms_p90", pct(&mut rebuild_ms, 0.9)),
        ("store.rebuilds", traced.rebuilds as f64),
        ("store.dirty_shards_mean", mean(&dirty)),
        ("layout.build_ms_p50", layout_p50),
        (
            "layout.share_of_rebuild",
            if rebuild_p50 > 0.0 {
                layout_p50 / rebuild_p50
            } else {
                0.0
            },
        ),
        ("io.load_s", traced.load_s),
        ("plan.choose_us", traced.plan_us),
        (
            "trace.overhead_frac",
            (traced.wall_s - side_s) / plain.wall_s - 1.0,
        ),
        ("trace.coverage", coverage),
    ];
    Outcome {
        attempted,
        failed,
        notes,
        metrics: per_layer(&values),
        extra: vec![
            m("replay_wall_s", "s", traced.wall_s),
            m("replay_plain_wall_s", "s", plain.wall_s),
            m("replay_cache_hits", "count", traced.cache_hits as f64),
            m("replay_cache_misses", "count", traced.cache_misses as f64),
        ],
    }
}

fn batch_traced(inputs: &Inputs, args: &Args) -> Outcome {
    let plain = replay::replay_batch(&args.work, false);
    let traced = replay::replay_batch(&args.work, true);
    let mut reference = Reference::new(inputs);
    let wanted: Vec<(u32, u64)> = inputs.batch.iter().map(|&q| (q, 0)).collect();
    reference.prepare(&wanted, 2);
    let mut tally = wire::Tally::default();
    for (i, &q) in inputs.batch.iter().enumerate() {
        let got = traced.lines.get(i).map(|l| check::strip_seconds(l));
        let want = reference.expected_base(q);
        tally.check(got.is_some() && got == want, || {
            format!("replayed line {i} differs")
        });
    }
    let report = &traced.report;
    let span_sum = |name: &str| -> f64 {
        traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e9)
            .sum()
    };
    let run_s = span_sum("batch.run");
    let computed: Vec<&dmcs::engine::QueryResponse> =
        report.responses.iter().filter(|r| !r.cached).collect();
    let mut kernel_us: Vec<f64> = computed.iter().map(|r| r.seconds * 1e6).collect();
    let kernel_s: f64 = computed.iter().map(|r| r.seconds).sum();
    let oks: Vec<_> = computed
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let executed = report.cache_misses.max(1) as f64;
    let mut render_us: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "output.render")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    let children_ns: u64 = traced
        .spans
        .iter()
        .filter(|s| s.parent == Some(ROOT))
        .map(replay::Span::ns)
        .sum();
    let coverage = children_ns as f64 / traced.wall_ns.max(1) as f64;
    let mut notes = tally.notes.clone();
    if (coverage - 1.0).abs() > 0.10 {
        notes.push(format!("trace coverage {coverage:.3} is outside 1 ± 0.10"));
    }
    let spans_file = args.work.join("spans.tsv");
    if let Err(e) = replay::write_spans(&spans_file, traced.spans.iter()) {
        notes.push(format!("writing {}: {e}", spans_file.display()));
    }
    let bytes: usize = traced.lines.iter().map(|l| l.len() + 1).sum();
    let values = [
        ("output.render_us_p50", median(&mut render_us)),
        (
            "output.reply_bytes_mean",
            bytes as f64 / traced.lines.len().max(1) as f64,
        ),
        (
            "cache.hit_ratio",
            report.cache_hits as f64 / (report.cache_hits + report.cache_misses).max(1) as f64,
        ),
        ("cache.entries", traced.cache_entries as f64),
        (
            "session.mirror_frac",
            report.mirror_served as f64 / executed,
        ),
        (
            "session.memo_hit_frac",
            report.shared_bfs_reuses as f64 / executed,
        ),
        ("kernel.us_p50", pct(&mut kernel_us, 0.5)),
        ("kernel.us_p99", pct(&mut kernel_us, 0.99)),
        ("kernel.share", kernel_s / (2.0 * run_s)),
        (
            "kernel.iterations_mean",
            mean(&oks.iter().map(|r| r.iterations as f64).collect::<Vec<_>>()),
        ),
        (
            "kernel.community_size_mean",
            mean(
                &oks.iter()
                    .map(|r| r.community.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("io.load_s", traced.load_s),
        ("batch.run_s", run_s),
        ("batch.groups", report.groups as f64),
        ("batch.shared_bfs_reuses", report.shared_bfs_reuses as f64),
        (
            "batch.unique_frac",
            report.unique_queries as f64 / report.responses.len().max(1) as f64,
        ),
        ("plan.choose_us", traced.plan_us),
        (
            "trace.overhead_frac",
            traced.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0,
        ),
        ("trace.coverage", coverage),
    ];
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
        metrics: per_layer(&values),
        extra: vec![
            m("replay_wall_s", "s", traced.wall_ns as f64 / 1e9),
            m("replay_plain_wall_s", "s", plain.wall_ns as f64 / 1e9),
        ],
    }
}
