//! The traced run: the recorded op streams replayed in-process, making
//! the calls the daemon's connection loop makes, with a span around
//! each.
//!
//! Every request gets a root span and each layer call inside it a child
//! span (name, start, end, parent, request id), all kept in memory until
//! the run ends. Counters are read at the same boundaries. A replay with
//! spans off gives the wall time the spans are compared against.
//! Measurements that are not part of serving a request (a relayout of
//! a fresh epoch's graph, a plan choice on a fresh snapshot) are side
//! spans, taken outside every root span.

use crate::check::Transcript;
use crate::gen::{Inputs, Op};
use dmcs::cli::{map_queries, parse_query_file};
use dmcs::engine::output::{response_json, summary_json, Json, PROTOCOL_VERSION, SERVER_ID};
use dmcs::engine::registry::AlgoSpec;
use dmcs::engine::{BatchReport, Engine, PlanMode, QueryPlan, QueryRequest};
use dmcs::graph::io::load_edge_list;
use dmcs::graph::{ComputeGraph, LayoutPolicy, NodeId, Snapshot, DEFAULT_SHARD_COUNT};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Parent marker of a root span.
pub const ROOT: &str = "request";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// `None` for a root span, [`ROOT`] for its children.
    pub parent: Option<&'static str>,
    pub conn: u16,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread.
pub struct Spans {
    origin: Instant,
    on: bool,
    conn: u16,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, on: bool, conn: u16) -> Spans {
        Spans {
            origin,
            on,
            conn,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as a child span of request `req`.
    pub fn child<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        self.child_named(req, || (f(), name))
    }

    /// Like [`Spans::child`], with the span named by `f` itself.
    pub fn child_named<T>(&mut self, req: u32, f: impl FnOnce() -> (T, &'static str)) -> T {
        if !self.on {
            return f().0;
        }
        let start_ns = self.now();
        let (out, name) = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            parent: Some(ROOT),
            conn: self.conn,
            req,
            start_ns,
            end_ns,
        });
        out
    }

    fn root(&mut self, req: u32, start_ns: u64) {
        if self.on {
            let end_ns = self.now();
            self.spans.push(Span {
                name: ROOT,
                parent: None,
                conn: self.conn,
                req,
                start_ns,
                end_ns,
            });
        }
    }

    /// Run `f` outside any request; returns its result and duration.
    pub fn side<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        if self.on {
            self.spans.push(Span {
                name,
                parent: None,
                conn: self.conn,
                req: u32::MAX,
                start_ns,
                end_ns,
            });
        }
        (out, end_ns - start_ns)
    }
}

/// Write spans as tab-separated lines: name, parent, connection,
/// request, start and end (ns since the replay began).
pub fn write_spans<'a>(path: &Path, spans: impl Iterator<Item = &'a Span>) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\tconn\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.parent.unwrap_or("-"),
            s.conn,
            s.req,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// The serving stack as `dmcs serve` builds it.
pub struct Stack {
    pub engine: Engine,
    pub original: Vec<u64>,
    pub index: HashMap<u64, NodeId>,
    pub load_s: f64,
}

pub fn build_stack(work: &Path, bfs: bool) -> Stack {
    let t = Instant::now();
    let (g, original) = load_edge_list(work.join("graph.txt")).expect("generated graph loads");
    let load_s = t.elapsed().as_secs_f64();
    let engine = Engine::from_graph_sharded(g, DEFAULT_SHARD_COUNT);
    let policy = if bfs {
        LayoutPolicy::Bfs
    } else {
        LayoutPolicy::Identity
    };
    engine.store().set_layout_policy(policy);
    engine.snapshot();
    let index = original
        .iter()
        .enumerate()
        .map(|(i, &o)| (o, i as NodeId))
        .collect();
    Stack {
        engine,
        original,
        index,
        load_s,
    }
}

/// A query the session computed rather than took from the cache.
#[derive(Clone, Copy, Debug)]
pub struct Miss {
    pub kernel_s: f64,
    pub query_ns: u64,
    pub iterations: usize,
    pub size: usize,
}

#[derive(Default)]
pub struct ConnReplay {
    pub spans: Vec<Span>,
    pub transcript: Transcript,
    pub wall_ns: u64,
    /// Time in side spans inside the loop (excluded from coverage).
    pub side_ns: u64,
    pub misses: Vec<Miss>,
    /// `Session::query` time of cache hits, ns.
    pub hit_ns: Vec<u64>,
    pub mirror_served: u64,
    pub memo_hits: u64,
    pub layout_ms: Vec<f64>,
    /// Dirty shards seen by each rebuilding repin.
    pub dirty: Vec<usize>,
}

/// At most this many fresh epochs get a side-span relayout.
const LAYOUT_SAMPLES: usize = 16;

fn member_u64(parsed: &Json, key: &str) -> u64 {
    parsed
        .get(key)
        .and_then(Json::as_u64)
        .expect("generated request")
}

fn typed(ty: &str, members: Vec<(&str, Json)>) -> Json {
    let mut all = vec![
        ("type".to_string(), Json::str(ty)),
        ("protocol_version".to_string(), Json::UInt(PROTOCOL_VERSION)),
        ("server".to_string(), Json::str(SERVER_ID)),
    ];
    all.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all)
}

/// Replay one connection's ops, as `serve_conn` would serve them.
pub fn replay_conn(
    stack: &Stack,
    lines: &[String],
    ops: &[Op],
    conn: u16,
    traced: bool,
    origin: Instant,
    start: &Barrier,
) -> ConnReplay {
    let engine = &stack.engine;
    let spec = AlgoSpec::new("fpa");
    let mut sp = Spans::new(origin, traced, conn);
    let mut out = ConnReplay::default();
    let mut session = sp
        .side("session.open", || engine.session(&spec))
        .0
        .expect("fpa is registered");
    let mut epoch = session.snapshot().version();
    start.wait();
    let t0 = Instant::now();
    for (i, (&op, line)) in ops.iter().zip(lines).enumerate() {
        let req = i as u32;
        let root_start = sp.now();
        let parsed = sp
            .child("output.parse", req, || Json::parse(line))
            .expect("generated request parses");
        let mut rebuilt: Option<Snapshot> = None;
        let mut recorded = None;
        match op {
            Op::Query(q) => {
                let nodes: Vec<NodeId> = parsed
                    .get("nodes")
                    .and_then(Json::as_arr)
                    .expect("generated query")
                    .iter()
                    .map(|v| stack.index[&v.as_u64().expect("node id")])
                    .collect();
                let request = QueryRequest::new(nodes);
                let start_ns = sp.now();
                let resp = sp
                    .child("session.query", req, || session.query(&request))
                    .expect("no per-request algorithm override");
                let query_ns = sp.now() - start_ns;
                if resp.cached {
                    out.hit_ns.push(query_ns);
                } else {
                    if let Ok(r) = &resp.result {
                        out.misses.push(Miss {
                            kernel_s: resp.seconds,
                            query_ns,
                            iterations: r.iterations,
                            size: r.community.len(),
                        });
                    }
                }
                let reply = sp.child("output.render", req, || {
                    response_json(&resp, Some(&stack.original)).render()
                });
                recorded = Some(((q, epoch), reply));
            }
            Op::Del(_) | Op::Add(_) => {
                let action = parsed.get("action").and_then(Json::as_str).unwrap_or("");
                let (u_raw, v_raw) = (member_u64(&parsed, "u"), member_u64(&parsed, "v"));
                let (u, v) = (stack.index[&u_raw], stack.index[&v_raw]);
                let del = action == "del";
                sp.child("store.mutate", req, || {
                    if del {
                        engine.remove_edge(u, v)
                    } else {
                        engine.insert_edge(u, v)
                    }
                });
                let reply = sp.child("server.reply", req, || {
                    typed(
                        "update",
                        vec![
                            ("action", Json::str(action)),
                            ("u", Json::UInt(u_raw)),
                            ("v", Json::UInt(v_raw)),
                            ("version", Json::UInt(engine.version())),
                            ("nodes", Json::UInt(engine.store().n() as u64)),
                            ("edges", Json::UInt(engine.store().m() as u64)),
                        ],
                    )
                    .render()
                });
                out.transcript.control.push((op, epoch, reply));
            }
            Op::Repin => {
                // A rebuild if the store is dirty, else a cached pin.
                let (dirty, snap) = sp.child_named(req, || {
                    let dirty = engine.dirty_shards();
                    let name = if dirty > 0 {
                        "store.rebuild"
                    } else {
                        "store.pin"
                    };
                    ((dirty, engine.snapshot()), name)
                });
                out.mirror_served += session.mirror_served();
                out.memo_hits += session.memo_hits();
                // Replacing the session drops the old one, as the daemon's
                // repin does.
                sp.child("session.open", req, || {
                    session = engine.session(&spec).expect("fpa is registered");
                });
                let pinned = session.snapshot();
                let reply = sp.child("server.reply", req, || {
                    typed(
                        "repin",
                        vec![
                            ("version", Json::UInt(pinned.version())),
                            ("nodes", Json::UInt(pinned.n() as u64)),
                            ("edges", Json::UInt(pinned.m() as u64)),
                        ],
                    )
                    .render()
                });
                out.transcript.control.push((op, epoch, reply));
                epoch = pinned.version();
                if dirty > 0 {
                    out.dirty.push(dirty);
                    rebuilt = Some(snap);
                }
            }
        }
        sp.root(req, root_start);
        if let Some((key, reply)) = recorded {
            out.transcript.queries.entry(key).or_default().add(&reply);
        }
        if let Some(snap) = rebuilt {
            if traced && out.layout_ms.len() < LAYOUT_SAMPLES && out.dirty.len() % 4 == 1 {
                let (_, ns) = sp.side("layout.build", || {
                    ComputeGraph::build(snap.graph(), LayoutPolicy::Bfs)
                });
                out.side_ns += ns;
                out.layout_ms.push(ns as f64 / 1e6);
            }
        }
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out.mirror_served += session.mirror_served();
    out.memo_hits += session.memo_hits();
    out.spans = sp.spans;
    out
}

/// A replay of every connection of a daemon workload.
pub struct Replay {
    pub conns: Vec<ConnReplay>,
    pub wall_s: f64,
    pub load_s: f64,
    /// Layout of the initial graph, then of sampled fresh epochs.
    pub layout_ms: Vec<f64>,
    pub plan_us: f64,
    pub cache_entries: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rebuilds: u64,
}

/// Replay `sent[c]` ops of connection `c`, one thread per connection.
pub fn replay_daemon(inputs: &Inputs, work: &Path, sent: &[usize], traced: bool) -> Replay {
    let stack = build_stack(work, inputs.workload.bfs_layout());
    let origin = Instant::now();
    let mut sp = Spans::new(origin, traced, u16::MAX);
    let mut layout_ms = Vec::new();
    let mut plan_us = 0.0;
    if traced {
        let snap = stack.engine.snapshot();
        let (_, ns) = sp.side("layout.build", || {
            ComputeGraph::build(snap.graph(), LayoutPolicy::Bfs)
        });
        layout_ms.push(ns as f64 / 1e6);
        // On a fresh snapshot, so the component index is built as a
        // batch's first plan builds it, without warming the served one.
        let fresh = Snapshot::freeze(snap.graph().clone());
        let (_, ns) = sp.side("plan.choose", || QueryPlan::choose(PlanMode::Auto, &fresh));
        plan_us = ns as f64 / 1e3;
    }
    let rebuilds0 = stack.engine.rebuild_stats().rebuilds;
    let streams: Vec<(Vec<String>, &[Op])> = inputs
        .clients
        .iter()
        .zip(sent)
        .map(|(ops, &k)| {
            let ops = &ops[..k];
            (ops.iter().map(|&op| inputs.line(op)).collect(), ops)
        })
        .collect();
    let barrier = Barrier::new(streams.len() + 1);
    let (conns, wall_s) = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, (lines, ops))| {
                let (stack, barrier) = (&stack, &barrier);
                scope.spawn(move || {
                    replay_conn(stack, lines, ops, c as u16, traced, origin, barrier)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let conns: Vec<ConnReplay> = workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect();
        (conns, t0.elapsed().as_secs_f64())
    });
    let cache = stack.engine.cache();
    let mut all = conns;
    if let Some(first) = all.first_mut() {
        first.spans.extend(sp.spans);
        layout_ms.extend(all.iter().flat_map(|c| c.layout_ms.iter().copied()));
    }
    Replay {
        wall_s,
        load_s: stack.load_s,
        layout_ms,
        plan_us,
        cache_entries: cache.len(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        rebuilds: stack.engine.rebuild_stats().rebuilds - rebuilds0,
        conns: all,
    }
}

/// The batch workload replayed: the calls `dmcs --queries` makes.
pub struct BatchReplay {
    pub spans: Vec<Span>,
    pub wall_ns: u64,
    pub report: BatchReport,
    pub lines: Vec<String>,
    pub cache_entries: usize,
    pub plan_us: f64,
    pub load_s: f64,
}

pub fn replay_batch(work: &Path, traced: bool) -> BatchReplay {
    let origin = Instant::now();
    let mut sp = Spans::new(origin, traced, 0);
    let spec = AlgoSpec::new("fpa");
    let t0 = Instant::now();
    let root_start = sp.now();
    let (load_s, (g, original)) = sp.child("io.load", 0, || {
        let t = Instant::now();
        let loaded = load_edge_list(work.join("graph.txt")).expect("generated graph loads");
        (t.elapsed().as_secs_f64(), loaded)
    });
    let engine = sp.child("store.build", 0, || {
        let engine = Engine::from_graph_sharded(g, DEFAULT_SHARD_COUNT);
        engine.snapshot();
        engine
    });
    let path = work.join("queries.txt");
    let requests: Vec<QueryRequest> = sp.child("cli.parse", 0, || {
        let text = std::fs::read_to_string(&path).expect("generated queries");
        parse_query_file("queries.txt", &text)
            .expect("generated queries parse")
            .iter()
            .map(|q| QueryRequest::new(map_queries(q, &original).expect("known ids")))
            .collect()
    });
    let report = sp
        .child("batch.run", 0, || {
            engine.run_batch_planned(&spec, &requests, 2, PlanMode::Auto)
        })
        .expect("batch runs");
    let mut lines: Vec<String> = report
        .responses
        .iter()
        .map(|r| {
            sp.child("output.render", 0, || {
                response_json(r, Some(&original)).render()
            })
        })
        .collect();
    lines.push(sp.child("output.render", 0, || {
        summary_json("FPA", false, &report).render()
    }));
    sp.root(0, root_start);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut plan_us = 0.0;
    if traced {
        let fresh = Snapshot::freeze(engine.snapshot().graph().clone());
        let (_, ns) = sp.side("plan.choose", || QueryPlan::choose(PlanMode::Auto, &fresh));
        plan_us = ns as f64 / 1e3;
    }
    BatchReplay {
        spans: sp.spans,
        wall_ns,
        report,
        lines,
        cache_entries: engine.cache().len(),
        plan_us,
        load_s,
    }
}
