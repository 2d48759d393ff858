//! The op layer that `dmcs --queries`, `dmcs --updates` and the `dmcs
//! serve` wire protocol share:
//!
//! - [`IdSpace`] — the one original-id ↔ dense-id map, plus the
//!   query-id hygiene rules ([`parse_query_ids`], [`check_distinct`]).
//!   Its process-unique [`id`](IdSpace::id) stamps the reply bytes the
//!   result cache keeps for the daemon.
//! - [`Mutation`] — one `add`/`del`/`setw`, checked on construction
//!   against the rules that hold whatever the store and by
//!   [`Mutation::apply`] against the rest, with one error text per rule.
//!   [`parse_update_script`] reads the `--updates` grammar into it; the
//!   wire builds it from JSON members.
//! - [`StreamTally`] — what a query stream's closing `summary` needs:
//!   each query's seconds, success and cache flag, recorded without a
//!   [`QueryResponse`](crate::QueryResponse), which a copied cache hit
//!   never builds. A stream answers queries one by one and never asks
//!   the planner, so its summary carries no `plan` or `skew`.
//!
//! Shape errors stay with the front ends, with their own codes: a
//! malformed script line is a `BadUpdate` (exit 7), a malformed wire
//! request a `BadRequest` (code 9).

use crate::batch::BatchReport;
use crate::error::EngineError;
use crate::output::SummaryInput;
use crate::{Engine, Session};
use dmcs_graph::weighted::{valid_weight, WEIGHT_CONSTRAINT};
use dmcs_graph::NodeId;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// The original-id ↔ dense-id map of one served graph. `add` mutations
/// may introduce fresh ids; the map only ever grows, in lockstep with
/// the store's node count. Shared by every connection of a daemon, so
/// it sits behind a lock: queries, `del` and `setw` take it for
/// reading, an `add` takes it for writing once for both endpoints.
///
/// Each map carries a process-unique [`id`](IdSpace::id). Since a
/// dense id never changes its original id, a reply rendered through
/// one map stays valid for it, and the result cache stamps the reply
/// bytes it keeps with this id.
#[derive(Debug)]
pub struct IdSpace {
    id: u64,
    ids: RwLock<Ids>,
}

/// The next [`IdSpace::id`].
static NEXT_SPACE: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct Ids {
    index: HashMap<u64, NodeId>,
    original: Vec<u64>,
}

impl IdSpace {
    /// The map of a freshly loaded graph: `original[dense]` is the file
    /// id of dense node `dense`, as the edge-list readers return it.
    pub fn new(original: Vec<u64>) -> Self {
        let index = original
            .iter()
            .enumerate()
            .map(|(dense, &raw)| (raw, dense as NodeId))
            .collect();
        IdSpace {
            id: NEXT_SPACE.fetch_add(1, Ordering::Relaxed),
            ids: RwLock::new(Ids { index, original }),
        }
    }

    /// This map's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    // Poison recovery: a panicking connection thread must not take the
    // map down with it. Both id spaces only ever grow (appends under the
    // write lock), so a poisoned guard still holds a usable mapping.
    fn read(&self) -> RwLockReadGuard<'_, Ids> {
        self.ids.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Ids> {
        self.ids.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dense ids for `raw`, or the first id the graph does not contain.
    fn find(&self, raw: &[u64]) -> Result<Vec<NodeId>, u64> {
        let ids = self.read();
        raw.iter()
            .map(|id| ids.index.get(id).copied().ok_or(*id))
            .collect()
    }

    /// Map a query's original ids to dense ids. The first id missing
    /// from the graph is an [`EngineError::UnknownNode`] (exit code 5).
    pub fn map_query(&self, raw: &[u64]) -> Result<Vec<NodeId>, EngineError> {
        self.find(raw).map_err(EngineError::unknown_node)
    }

    /// Lend the dense → original id slice to `render` (replies and
    /// output lines name nodes in original ids).
    pub fn with_original<R>(&self, render: impl FnOnce(&[u64]) -> R) -> R {
        render(&self.read().original)
    }

    /// Dense ids for an `add`'s endpoints, creating a store node for
    /// each unseen id. One write lock spans the map and
    /// [`Engine::add_node`], so the two id spaces stay in lockstep.
    fn resolve_or_create(&self, engine: &Engine, u: u64, v: u64) -> (NodeId, NodeId) {
        let mut ids = self.write();
        let mut resolve = |raw: u64| -> NodeId {
            if let Some(&dense) = ids.index.get(&raw) {
                return dense;
            }
            let dense = engine.add_node();
            debug_assert_eq!(dense as usize, ids.original.len(), "id spaces in lockstep");
            ids.index.insert(raw, dense);
            ids.original.push(raw);
            dense
        };
        (resolve(u), resolve(v))
    }
}

/// Reject a query that names a node twice, naming the first repeat. A
/// query is a set of nodes: a repeat would only split one answer across
/// two cache keys.
pub fn check_distinct(ids: &[u64]) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(ids.len());
    match ids.iter().find(|&&id| !seen.insert(id)) {
        Some(id) => Err(format!("duplicate query id {id}")),
        None => Ok(()),
    }
}

/// Parse one comma-separated query-id list with strict hygiene: empty
/// tokens (trailing or doubled commas), non-numeric ids and duplicate
/// ids are all rejected with a message naming the offender.
pub fn parse_query_ids(s: &str) -> Result<Vec<u64>, EngineError> {
    let mut ids = Vec::new();
    for tok in s.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            return Err(EngineError::bad_param(format!(
                "empty query id in {s:?} (trailing or doubled comma?)"
            )));
        }
        ids.push(
            tok.parse()
                .map_err(|_| EngineError::bad_param(format!("bad query id {tok:?}")))?,
        );
    }
    check_distinct(&ids).map_err(EngineError::bad_param)?;
    Ok(ids)
}

/// What a [`Mutation`] does to its edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// `add u v [w]`: insert the edge; unseen ids create fresh nodes.
    /// A weight needs a weighted store, which inserts a weightless
    /// `add` at weight 1.
    Add(Option<f64>),
    /// `del u v`: remove an existing edge between known nodes.
    Del,
    /// `setw u v w`: change the weight of an existing edge (weighted
    /// stores only).
    SetW(f64),
}

impl Action {
    /// The action named `name` (`add`, `del` or `setw`) on edge
    /// `u v`, with the weight the request carried. `setw` needs one;
    /// `del` ignores it. Errors are shape errors: the front end picks
    /// their code.
    pub fn parse(name: &str, u: u64, v: u64, w: Option<f64>) -> Result<Action, String> {
        match name {
            "add" => Ok(Action::Add(w)),
            "del" => Ok(Action::Del),
            "setw" => w
                .map(Action::SetW)
                .ok_or_else(|| format!("setw {u} {v} needs a weight")),
            other => Err(format!(
                "unknown update action {other:?} (expected add, del or setw)"
            )),
        }
    }

    /// The action's name in the script grammar and on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Action::Add(_) => "add",
            Action::Del => "del",
            Action::SetW(_) => "setw",
        }
    }
}

/// One store mutation in original ids, already checked against the
/// rules that hold whatever the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mutation {
    action: Action,
    u: u64,
    v: u64,
}

impl Mutation {
    /// `action` on edge `u v`. A weight outside [`WEIGHT_CONSTRAINT`] or
    /// a self-loop is an [`EngineError::BadUpdate`] at `line`.
    pub fn new(action: Action, u: u64, v: u64, line: usize) -> Result<Mutation, EngineError> {
        if let Action::Add(Some(w)) | Action::SetW(w) = action {
            if !valid_weight(w) {
                return Err(EngineError::bad_update(
                    line,
                    format!("weight {w} {WEIGHT_CONSTRAINT}"),
                ));
            }
        }
        if u == v {
            return Err(EngineError::bad_update(
                line,
                format!("self-loop {} {u} {u} (simple graph)", action.name()),
            ));
        }
        Ok(Mutation { action, u, v })
    }

    /// What the mutation does.
    pub fn action(&self) -> Action {
        self.action
    }

    /// The edge's endpoints, in original ids.
    pub fn endpoints(&self) -> (u64, u64) {
        (self.u, self.v)
    }

    /// Apply the mutation to `engine`'s live store, resolving ids
    /// through `ids`. Every store-dependent rule is checked here and
    /// reported as an [`EngineError::BadUpdate`] at `line`: a weight op
    /// on an unweighted store, an unknown node in `del`/`setw`, a
    /// duplicate `add`, an absent edge. Returns the previous weight for
    /// `setw`, `None` otherwise.
    pub fn apply(
        &self,
        engine: &Engine,
        ids: &IdSpace,
        line: usize,
    ) -> Result<Option<f64>, EngineError> {
        let (a, b) = (self.u, self.v);
        let bad = |reason: String| EngineError::bad_update(line, reason);
        let weighted = engine.store().is_weighted();
        let known = || -> Result<(NodeId, NodeId), EngineError> {
            let dense = ids
                .find(&[a, b])
                .map_err(|id| bad(format!("unknown node {id}")))?;
            Ok((dense[0], dense[1]))
        };
        let absent = || bad(format!("edge {a} {b} does not exist"));
        match self.action {
            Action::Add(w) => {
                if w.is_some() && !weighted {
                    return Err(bad(format!(
                        "weighted add {a} {b} requires --weighted (graph has no weights)"
                    )));
                }
                let (u, v) = ids.resolve_or_create(engine, a, b);
                let inserted = if weighted {
                    engine.insert_edge_w(u, v, w.unwrap_or(1.0))
                } else {
                    engine.insert_edge(u, v)
                };
                if !inserted {
                    return Err(bad(format!("edge {a} {b} already exists")));
                }
                Ok(None)
            }
            Action::Del => {
                let (u, v) = known()?;
                if !engine.remove_edge(u, v) {
                    return Err(absent());
                }
                Ok(None)
            }
            Action::SetW(w) => {
                if !weighted {
                    return Err(bad(format!(
                        "setw {a} {b} requires --weighted (graph has no weights)"
                    )));
                }
                let (u, v) = known()?;
                engine.set_weight(u, v, w).map(Some).ok_or_else(absent)
            }
        }
    }
}

/// One operation of a `--updates` script (original/file id space).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `add u v [w]`, `del u v` or `setw u v w`.
    Mutate(Mutation),
    /// `query id[,id...]` — answer against the graph as mutated so far.
    Query(Vec<u64>),
}

/// Parse a `--updates` script with the same strict-grammar discipline as
/// the JSON parser: blank lines and `#` comments are skipped, everything
/// else must be exactly `add u v [w]`, `del u v`, `setw u v w` or
/// `query id[,id...]`. Violations are [`EngineError::BadUpdate`]s
/// carrying the 1-based line number (exit code 7). Whether an op is
/// *admissible* against the store (a weight op needs a weighted graph,
/// a `del` an existing edge) is [`Mutation::apply`]'s call.
pub fn parse_update_script(text: &str) -> Result<Vec<(usize, UpdateOp)>, EngineError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(op) = tokens.next() else {
            continue; // blank line
        };
        let bad = |reason: String| EngineError::bad_update(line_no, reason);
        match op {
            "add" | "del" | "setw" => {
                let mut endpoint = |which: &str| -> Result<u64, EngineError> {
                    let tok = tokens
                        .next()
                        .ok_or_else(|| bad(format!("{op} needs two node ids (missing {which})")))?;
                    tok.parse().map_err(|_| bad(format!("bad node id {tok:?}")))
                };
                let u = endpoint("u")?;
                let v = endpoint("v")?;
                // `add` takes an optional weight, `setw` a mandatory
                // one, `del` none.
                let w = match op {
                    "del" => None,
                    _ => tokens
                        .next()
                        .map(|tok| tok.parse().map_err(|_| bad(format!("bad weight {tok:?}"))))
                        .transpose()?,
                };
                if let Some(extra) = tokens.next() {
                    return Err(bad(format!("trailing token {extra:?} after {op} {u} {v}")));
                }
                let action = Action::parse(op, u, v, w).map_err(bad)?;
                ops.push((
                    line_no,
                    UpdateOp::Mutate(Mutation::new(action, u, v, line_no)?),
                ));
            }
            "query" => {
                let ids = line[op.len()..].trim();
                if ids.is_empty() {
                    return Err(bad("query needs at least one node id".to_string()));
                }
                let ids = parse_query_ids(ids).map_err(|e| bad(e.to_string()))?;
                ops.push((line_no, UpdateOp::Query(ids)));
            }
            other => {
                return Err(bad(format!(
                    "unknown op {other:?} (expected add, del, setw or query)"
                )))
            }
        }
    }
    Ok(ops)
}

/// Running totals of a stream of single queries — a daemon connection
/// or an `--updates` script — for its closing `summary` line. Keeps one
/// latency per query, never the responses: a long-lived connection
/// would otherwise grow by every community it returned.
#[derive(Debug)]
pub struct StreamTally {
    started: Instant,
    seconds: Vec<f64>,
    ok: usize,
    cache_hits: usize,
    /// Mirror-served queries of sessions the stream has replaced.
    mirror_served: u64,
}

impl StreamTally {
    /// An empty tally; the stream's wall clock starts now.
    pub fn start() -> Self {
        StreamTally {
            started: Instant::now(),
            seconds: Vec::new(),
            ok: 0,
            cache_hits: 0,
            mirror_served: 0,
        }
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> usize {
        self.seconds.len()
    }

    /// Count one answered query: its (replayed) wall time, whether it
    /// found a community, and whether the cache answered it. The daemon
    /// copies most cached replies without building a
    /// [`QueryResponse`](crate::QueryResponse), so the tally takes the
    /// three facts it needs.
    pub fn record(&mut self, seconds: f64, ok: bool, cached: bool) {
        self.seconds.push(seconds);
        self.ok += usize::from(ok);
        self.cache_hits += usize::from(cached);
    }

    /// The stream re-pins: `replaced` is about to be dropped, so fold
    /// in its mirror-served count (each session counts from zero).
    pub fn repin(&mut self, replaced: &Session) {
        self.mirror_served += replaced.mirror_served();
    }

    /// Queries the stream has run on the compute mirror, `current`
    /// session included.
    pub fn mirror_served(&self, current: &Session) -> u64 {
        self.mirror_served + current.mirror_served()
    }

    /// Close the stream: latency percentiles and throughput through
    /// [`BatchReport`]'s percentile code, every query counted as unique,
    /// and the mirror count including `current`'s. The report's plan
    /// stays empty: no planner scheduled the stream.
    pub fn finish(self, current: Option<&Session>) -> SummaryInput<'static> {
        let queries = self.seconds.len();
        let wall = self.started.elapsed().as_secs_f64();
        let report = BatchReport {
            mirror_served: self.mirror_served + current.map_or(0, Session::mirror_served),
            ..BatchReport::from_latencies(
                self.seconds,
                wall,
                queries,
                self.cache_hits,
                queries - self.cache_hits,
            )
        };
        SummaryInput {
            report: Cow::Owned(report),
            queries,
            ok: self.ok,
            store: None,
        }
    }
}
