//! `batch_offline`: the real `dmcs --queries` process, run back to back
//! for the measured time.

use crate::check::{number_member, strip_seconds, Reference};
use crate::gen::Inputs;
use crate::wire::{is_type, Tally};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

pub const ARGS: [&str; 10] = [
    "--graph",
    "graph.txt",
    "--queries",
    "queries.txt",
    "--threads",
    "2",
    "--plan",
    "auto",
    "--format",
    "json",
];

/// One finished batch process.
pub struct Invocation {
    pub wall_s: f64,
    /// The summary's `wall_seconds`: the batch itself.
    pub batch_s: f64,
    pub rss_mb: f64,
    /// User plus system CPU time of the process, s.
    pub cpu_s: f64,
    pub exit_ok: bool,
    pub lines: Vec<String>,
}

/// `struct rusage` on 64-bit Linux: `ru_utime` and `ru_stime` as
/// (seconds, microseconds), then 14 `long`s of which `ru_maxrss` (KiB)
/// is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `pid`, returning (exited with 0, peak RSS in MiB, CPU s).
fn reap(pid: u32) -> (bool, f64, f64) {
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable locals whose
    // layouts match `int` and 64-bit Linux `struct rusage`; `pid` is our
    // own unreaped child, so wait4 writes only through those pointers.
    let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    let exited_zero = rc == pid as i32 && status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    let t = usage.times;
    let cpu_s = (t[0] + t[2]) as f64 + (t[1] + t[3]) as f64 / 1e6;
    (exited_zero, usage.maxrss as f64 / 1024.0, cpu_s)
}

pub fn invoke(dmcs: &Path, work: &Path) -> std::io::Result<Invocation> {
    let log = std::fs::File::create(work.join("batch.log"))?;
    let started = Instant::now();
    let mut child = Command::new(dmcs)
        .args(ARGS)
        .current_dir(work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()?;
    let mut text = String::new();
    let read = child
        .stdout
        .take()
        .map(|mut out| out.read_to_string(&mut text));
    // `child` is reaped here, not through `Child::wait`.
    let (exit_ok, rss_mb, cpu_s) = reap(child.id());
    let wall_s = started.elapsed().as_secs_f64();
    read.transpose()?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let batch_s = lines
        .last()
        .filter(|l| is_type(l, "summary"))
        .and_then(|l| number_member(l, "wall_seconds"))
        .unwrap_or(0.0);
    Ok(Invocation {
        wall_s,
        batch_s,
        rss_mb,
        cpu_s,
        exit_ok,
        lines,
    })
}

pub struct OfflineRun {
    pub invocations: Vec<Invocation>,
    pub tally: Tally,
}

/// Run the batch process `times` times and check every output line.
pub fn run(inputs: &Inputs, dmcs: &Path, work: &Path, times: usize) -> OfflineRun {
    let mut run = OfflineRun {
        invocations: Vec::new(),
        tally: Tally::default(),
    };
    while run.invocations.len() < times {
        match invoke(dmcs, work) {
            Ok(inv) => run.invocations.push(inv),
            Err(e) => {
                run.tally.check(false, || format!("batch spawn: {e}"));
                break;
            }
        }
    }
    check(inputs, &mut run);
    run
}

fn check(inputs: &Inputs, run: &mut OfflineRun) {
    let mut reference = Reference::new(inputs);
    let wanted: Vec<(u32, u64)> = inputs.batch.iter().map(|&q| (q, 0)).collect();
    reference.prepare(&wanted, 2);
    let expected: Vec<Option<String>> = inputs
        .batch
        .iter()
        .map(|&q| reference.expected_base(q))
        .collect();
    let tally = &mut run.tally;
    for inv in &run.invocations {
        tally.check(inv.exit_ok, || "batch process exited nonzero".into());
        let summary_ok = inv.lines.len() == inputs.batch.len() + 1
            && inv.lines.last().is_some_and(|l| {
                is_type(l, "summary")
                    && number_member(l, "queries") == Some(inputs.batch.len() as f64)
            });
        tally.check(summary_ok, || {
            format!("batch output has {} lines, no summary", inv.lines.len())
        });
        for (i, want) in expected.iter().enumerate() {
            let got = inv.lines.get(i).map(|l| strip_seconds(l));
            tally.check(got.is_some() && got.as_ref() == want.as_ref(), || {
                format!("batch line {i}: {got:?} != {want:?}")
            });
        }
    }
}
