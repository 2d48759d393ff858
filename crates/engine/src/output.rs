//! Structured (JSON) output for the serving API — hand-rolled, like the
//! `vendor/` shims, because the workspace's dependency policy admits no
//! serde. Two halves:
//!
//! - [`LineWriter`], the one JSON-lines writer. Every line the program
//!   emits — all `--format json` output and every `dmcs serve` reply —
//!   is appended by it to a caller-owned `String`: literal keys, numbers
//!   written in place, id lists mapped to original ids and sorted in the
//!   writer's reused scratch vector. No value tree is built: a warm
//!   writer and buffer allocate nothing for a successful `response`.
//!   A `response` is written as a head (`type`, the protocol members and
//!   `tag`) and a tail (`algo` on), which depends on the answer alone;
//!   the daemon keeps a cached answer's tail and copies it on later hits
//!   (see [`cache`](crate::cache)).
//! - [`Json`], a value type with a strict parser. The daemon parses every
//!   request line with it, and tests and the CI output validator read
//!   output back through it. [`Json::render`] writes a value (tests build
//!   reference trees with it to check the writer's bytes).
//!
//! ## JSON-lines schema
//!
//! Every object carries the protocol fields first: `protocol_version`
//! (the wire-schema revision, [`PROTOCOL_VERSION`] — consumers reject
//! lines from a future protocol instead of misparsing them) and `server`
//! (the producing build, [`SERVER_ID`]). One `response` object per
//! query, in submission order:
//!
//! ```json
//! {"type":"response","protocol_version":1,"server":"dmcs/0.1.0","tag":null,
//!  "algo":"FPA","query":[0,33],"ok":true,
//!  "size":7,"dm":0.551,"iterations":27,"seconds":0.0012,"community":[0,1,2,3,7,13,33]}
//! {"type":"response","protocol_version":1,"server":"dmcs/0.1.0","tag":"t-9",
//!  "algo":"FPA","query":[0,5],"ok":false,
//!  "error":"query nodes are not in the same connected component","seconds":0.0001}
//! ```
//!
//! followed, for batches, by exactly one `summary` object:
//!
//! ```json
//! {"type":"summary","protocol_version":1,"server":"dmcs/0.1.0","algo":"FPA",
//!  "weighted":false,"queries":3,"ok":2,
//!  "wall_seconds":0.004,"queries_per_sec":750.0,"p50_seconds":0.001,
//!  "p95_seconds":0.002,"unique":3,"cache_hits":0,"cache_misses":3,
//!  "groups":2,"grouped_queries":3,"shared_bfs_reuses":1,"plan":"auto:grouped+memo",
//!  "mirror_served":0,"skew":0.5}
//! ```
//!
//! `weighted` records whether the batch served the weighted density
//! modularity (the CLI's `--weighted`, or an
//! [`AlgoSpec`](crate::AlgoSpec) with the weighted parameter); weighted
//! responses additionally reveal themselves through the algorithm name
//! (`"W-FPA"` / `"W-NCA"`), and their `dm` field is the *weighted*
//! objective. On unit weights a weighted line differs from the
//! unweighted one in its `algo` (and timings) only: the kernels are
//! the same and every weighted sum is then an exact integer.
//!
//! `unique` counts the distinct work items the batch actually dispatched
//! (in-batch dedup answers the rest by fan-out); `cache_hits` /
//! `cache_misses` count executed queries served from / missing the
//! engine's version-keyed result cache (both 0 when no cache was
//! attached, as in a `dmcs --queries` batch). Responses served from the
//! cache are **byte-identical** to the response that populated the
//! entry — there is deliberately no per-response cached marker.
//!
//! `groups` / `grouped_queries` / `shared_bfs_reuses` describe the
//! component-aware scheduler: how many connected-component groups the
//! plan formed, how many work items ran through them (both 0 on an
//! ungrouped run), and how many queries reused a component BFS memoized
//! by an earlier query on the same worker. `plan` is the label of the
//! plan that ran (`"auto:grouped+memo"`, `"auto:memo+mirror"`, …; it
//! says `grouped` only when the batch grouped and `mirror` only when its
//! worker sessions served from the mirror); `mirror_served` counts
//! queries executed on the snapshot's renumbered compute mirror (always
//! byte-identical to canonical execution, see `dmcs_graph::layout`), and
//! `skew` is the largest-component mass fraction the planner weighed.
//! None of these affect response bytes — the plan chooses execution
//! order only.
//!
//! A query stream (a daemon connection, an `--updates` script) closes
//! with the same `summary` minus `plan` and `skew`: it answers queries
//! one by one and never asks the planner. An `--updates` summary
//! appends the store's rebuild counters (`shards`, `rebuilds`,
//! `shards_rebuilt`, `shards_reused`) after `mirror_served`.
//!
//! Node ids in `query` and `community` are in the *original* (input
//! file) id space when a mapping is supplied, dense ids otherwise.
//! Non-finite floats render as `null` (JSON has no NaN/Infinity).

use crate::batch::BatchReport;
use crate::request::{QueryRequest, QueryResponse};
use crate::session::TopKOutcome;
use dmcs_core::{SearchError, SearchResult};
use dmcs_graph::{NodeId, RebuildStats};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Revision of the JSON-lines wire schema. Bumped only on an
/// incompatible change (a field rename, a meaning change); additive
/// fields do not bump it. Every emitted object carries this as its
/// `protocol_version` member.
pub const PROTOCOL_VERSION: u64 = 1;

/// Identity of the producing build, emitted as the `server` member of
/// every object (`"dmcs/<crate version>"`).
pub const SERVER_ID: &str = concat!("dmcs/", env!("CARGO_PKG_VERSION"));

/// The one JSON-lines writer: it appends each finished line, newline
/// included, to a caller-owned `String`. The shape methods
/// ([`response`](LineWriter::response), [`result`](LineWriter::result),
/// [`topk`](LineWriter::topk), [`summary`](LineWriter::summary)) write
/// the schema's objects; inside the crate, `object` opens any other
/// typed object (the daemon's control and error replies). Keep one
/// writer and one buffer per output stream: the scratch vector and the
/// buffer's capacity carry over from line to line.
#[derive(Debug, Default)]
pub struct LineWriter {
    /// One id list at a time, mapped to original ids and sorted.
    ids: Vec<u64>,
}

impl LineWriter {
    /// A writer with an empty scratch vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an object of type `ty` in `out`, with the protocol members
    /// (`protocol_version`, `server`) right after `type`. Members follow
    /// through the returned [`Obj`]; [`Obj::end`] finishes the line.
    pub(crate) fn object<'a>(&'a mut self, out: &'a mut String, ty: &str) -> Obj<'a> {
        open_object(out, ty);
        Obj {
            out,
            ids: &mut self.ids,
        }
    }

    /// The `response` line of one [`QueryResponse`].
    pub fn response(&mut self, out: &mut String, resp: &QueryResponse, original: Option<&[u64]>) {
        let QueryResponse {
            request,
            algo,
            result,
            seconds,
            ..
        } = resp;
        self.result(out, algo, request, result.as_ref(), *seconds, original);
    }

    /// A `response` line from its parts: the `tag` and query of
    /// `request`, and a borrowed outcome (the CLI's top-k rounds).
    pub fn result(
        &mut self,
        out: &mut String,
        algo: &str,
        request: &QueryRequest,
        result: Result<&SearchResult, &SearchError>,
        seconds: f64,
        original: Option<&[u64]>,
    ) {
        response_head(out, request.tag.as_deref());
        self.response_tail(out, algo, &request.nodes, result, seconds, original);
    }

    /// The rest of a `response` line after [`response_head`]: everything
    /// from `algo` on, which depends on the answer alone, never on the
    /// request's tag. The daemon keeps these bytes in the result cache.
    pub(crate) fn response_tail(
        &mut self,
        out: &mut String,
        algo: &str,
        query: &[NodeId],
        result: Result<&SearchResult, &SearchError>,
        seconds: f64,
        original: Option<&[u64]>,
    ) {
        let obj = Obj {
            out,
            ids: &mut self.ids,
        }
        .str("algo", algo)
        .ids("query", query, original);
        match result {
            Ok(r) => obj
                .bool("ok", true)
                .uint("size", r.community.len() as u64)
                .num("dm", r.density_modularity)
                .uint("iterations", r.iterations as u64)
                .num("seconds", seconds)
                .ids("community", &r.community, original),
            Err(e) => obj
                .bool("ok", false)
                .str("error", &e.to_string())
                .num("seconds", seconds),
        }
        .end();
    }

    /// One `topk` line: a top-`k` enumeration's rounds inlined as
    /// `{size, dm, iterations, community}` objects.
    pub fn topk(
        &mut self,
        out: &mut String,
        outcome: &TopKOutcome,
        k: usize,
        tag: Option<&str>,
        query: &[NodeId],
        original: Option<&[u64]>,
    ) {
        let obj = self
            .object(out, "topk")
            .str_or_null("tag", tag)
            .str("algo", outcome.algo)
            .ids("query", query, original)
            .uint("k", k as u64);
        match &outcome.rounds {
            Ok(rounds) => {
                let mut obj = obj.bool("ok", true).num("seconds", outcome.seconds);
                obj.key("rounds").push('[');
                for (i, r) in rounds.iter().enumerate() {
                    if i > 0 {
                        obj.out.push(',');
                    }
                    obj.out.push_str("{\"size\":");
                    push_uint(obj.out, r.community.len() as u64);
                    obj.out.push_str(",\"dm\":");
                    push_num(obj.out, r.density_modularity);
                    obj.out.push_str(",\"iterations\":");
                    push_uint(obj.out, r.iterations as u64);
                    obj.out.push_str(",\"community\":");
                    obj.id_list(&r.community, original);
                    obj.out.push('}');
                }
                obj.out.push(']');
                obj
            }
            Err(e) => obj
                .bool("ok", false)
                .str("error", &e.to_string())
                .num("seconds", outcome.seconds),
        }
        .end();
    }

    /// The `summary` line of a [`BatchReport`] or a query stream (see
    /// [`SummaryInput`]). `weighted` records whether it ran the weighted
    /// objective. `plan` and `skew` are written only for a report a
    /// planner scheduled (see [`BatchReport::planned`]).
    pub fn summary<'i>(
        &mut self,
        out: &mut String,
        algo: &str,
        weighted: bool,
        input: impl Into<SummaryInput<'i>>,
    ) {
        let SummaryInput {
            report,
            queries,
            ok,
            store,
        } = input.into();
        let mut obj = self
            .object(out, "summary")
            .str("algo", algo)
            .bool("weighted", weighted)
            .uint("queries", queries as u64)
            .uint("ok", ok as u64)
            .num("wall_seconds", report.wall_seconds)
            .num("queries_per_sec", report.queries_per_sec)
            .num("p50_seconds", report.p50_seconds)
            .num("p95_seconds", report.p95_seconds)
            .uint("unique", report.unique_queries as u64)
            .uint("cache_hits", report.cache_hits as u64)
            .uint("cache_misses", report.cache_misses as u64)
            .uint("groups", report.groups as u64)
            .uint("grouped_queries", report.grouped_queries as u64)
            .uint("shared_bfs_reuses", report.shared_bfs_reuses);
        if report.planned() {
            obj = obj.str("plan", report.plan);
        }
        obj = obj.uint("mirror_served", report.mirror_served);
        if report.planned() {
            obj = obj.num("skew", report.skew);
        }
        match store {
            Some(rb) => obj
                .uint("shards", rb.shards as u64)
                .uint("rebuilds", rb.rebuilds)
                .uint("shards_rebuilt", rb.shards_rebuilt)
                .uint("shards_reused", rb.shards_reused),
            None => obj,
        }
        .end();
    }
}

/// Write `{"type":<ty>` and the protocol members, leaving the object
/// open.
fn open_object(out: &mut String, ty: &str) {
    out.push_str("{\"type\":");
    push_str_value(out, ty);
    out.push_str(",\"protocol_version\":");
    push_uint(out, PROTOCOL_VERSION);
    out.push_str(",\"server\":");
    push_str_value(out, SERVER_ID);
}

/// The head of a `response` line: `type`, the protocol members and
/// `tag`, with the object left open for [`LineWriter::response_tail`].
pub(crate) fn response_head(out: &mut String, tag: Option<&str>) {
    open_object(out, "response");
    out.push_str(",\"tag\":");
    push_str_or_null(out, tag);
}

/// An object a [`LineWriter`] is writing. Each member method appends
/// `,"key":value` with `key` written as given (a literal that needs no
/// escaping); [`Obj::end`] closes the object and its line.
#[must_use = "the line is unfinished until `end` closes it"]
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    ids: &'a mut Vec<u64>,
}

impl Obj<'_> {
    /// Write `,"key":` and hand back the buffer for the value.
    fn key(&mut self, key: &'static str) -> &mut String {
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// An unsigned integer member.
    pub fn uint(mut self, key: &'static str, v: u64) -> Self {
        push_uint(self.key(key), v);
        self
    }

    /// A number member; a non-finite value writes `null`.
    pub fn num(mut self, key: &'static str, x: f64) -> Self {
        push_num(self.key(key), x);
        self
    }

    /// A boolean member.
    pub fn bool(mut self, key: &'static str, b: bool) -> Self {
        self.key(key).push_str(if b { "true" } else { "false" });
        self
    }

    /// A string member, escaped.
    pub fn str(mut self, key: &'static str, s: &str) -> Self {
        push_str_value(self.key(key), s);
        self
    }

    /// A string member, or `null` when there is none.
    pub fn str_or_null(mut self, key: &'static str, s: Option<&str>) -> Self {
        push_str_or_null(self.key(key), s);
        self
    }

    /// An id-list member: `nodes` mapped through `original` (dense ids
    /// when `None`), sorted ascending.
    pub fn ids(mut self, key: &'static str, nodes: &[NodeId], original: Option<&[u64]>) -> Self {
        self.key(key);
        self.id_list(nodes, original);
        self
    }

    /// Write `nodes` as a sorted array of original ids, mapped and
    /// sorted in the writer's scratch vector.
    fn id_list(&mut self, nodes: &[NodeId], original: Option<&[u64]>) {
        self.ids.clear();
        match original {
            Some(o) => self.ids.extend(nodes.iter().map(|&v| o[v as usize])),
            None => self.ids.extend(nodes.iter().map(|&v| u64::from(v))),
        }
        self.ids.sort_unstable();
        self.out.push('[');
        for (i, &id) in self.ids.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_uint(self.out, id);
        }
        self.out.push(']');
    }

    /// Close the object and end the line.
    pub fn end(self) {
        self.out.push_str("}\n");
    }
}

fn push_uint(out: &mut String, v: u64) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{v}");
}

/// Rust's shortest round-trip float formatting; whole numbers render
/// without a fraction ("5", not "5.0"). JSON has no NaN or infinity, so
/// non-finite values write `null`.
fn push_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// `s` as a quoted JSON string, or `null` when there is none.
fn push_str_or_null(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => push_str_value(out, s),
        None => out.push_str("null"),
    }
}

/// `s` as a quoted JSON string, with quotes, backslashes and control
/// characters escaped. Every byte that needs an escape is ASCII, so each
/// run between two of them starts and ends on a char boundary and is
/// copied whole.
fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON value. Object member order is preserved (the writer emits a
/// stable field order; the parser keeps whatever it reads).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, kept exact — node ids are `u64` and must
    /// not round-trip through `f64` (ids above 2^53 would silently lose
    /// precision). The parser produces this for any bare digit run that
    /// fits a `u64`.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one. Integers above 2^53 lose precision
    /// here; use [`Json::as_u64`] for ids.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            // Strict upper bound: `u64::MAX as f64` rounds up to 2^64,
            // which is itself out of range — a saturating cast there
            // would fabricate u64::MAX.
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => push_uint(out, *v),
            Json::Num(x) => push_num(out, *x),
            Json::Str(s) => push_str_value(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_value(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (strict: trailing garbage is an error).
    /// Arrays and objects nested deeper than [`MAX_JSON_DEPTH`] are
    /// rejected with a [`JsonError`], so a hostile line cannot recurse
    /// the parser off the end of its thread's stack.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl JsonError {
    fn new(offset: usize, msg: impl Into<String>) -> Self {
        JsonError {
            offset,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError::new(*pos, format!("expected {token:?}")))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts — far beyond
/// what any request or reply of the wire protocol uses.
pub const MAX_JSON_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_JSON_DEPTH {
        return Err(JsonError::new(
            *pos,
            format!("nesting deeper than {MAX_JSON_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::new(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::new(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::new(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(JsonError::new(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::new(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| JsonError::new(*pos, "unterminated escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| JsonError::new(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(JsonError::new(*pos, "unknown escape")),
                }
            }
            Some(&b) if b < 0x20 => {
                return Err(JsonError::new(*pos, "raw control character in string"));
            }
            Some(_) => {
                // Copy the whole unescaped run at once: it ends before an
                // ASCII byte (or at the end of the input), so it is whole
                // UTF-8 and each byte is validated once.
                let start = *pos;
                while matches!(bytes.get(*pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError::new(start, "invalid UTF-8"))?;
                out.push_str(run);
            }
        }
    }
}

/// Parse a number following the JSON grammar exactly:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Rust's permissive
/// `f64::from_str` (which accepts `+1`, `.5`, `1.`, `inf`) is only used
/// on text this grammar already admitted, so non-JSON forms are
/// rejected rather than laundered through the validator.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let digits = |bytes: &[u8], pos: &mut usize| -> bool {
        let before = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > before
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: 0, or a nonzero digit followed by more digits
    // (leading zeros like "007" are not JSON).
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(bytes, pos);
        }
        _ => return Err(JsonError::new(start, "expected a value")),
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(JsonError::new(*pos, "expected digits after '.'"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(JsonError::new(*pos, "expected exponent digits"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::new(start, "malformed number"))?;
    // Bare digit runs stay exact u64 integers (node ids above 2^53 must
    // not round-trip through f64); everything else is an f64.
    if !is_float && !text.starts_with('-') {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::new(start, "malformed number"))
}

/// One finished line, as [`response_json`] and [`summary_json`] return
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonLine(String);

impl JsonLine {
    /// The line's text, without its newline.
    pub fn render(self) -> String {
        let mut text = self.0;
        text.pop();
        text
    }
}

/// The `response` line of one [`QueryResponse`], through a fresh
/// [`LineWriter`]; a stream of lines should keep one writer and buffer
/// instead.
pub fn response_json(resp: &QueryResponse, original: Option<&[u64]>) -> JsonLine {
    let mut out = String::new();
    LineWriter::new().response(&mut out, resp, original);
    JsonLine(out)
}

/// What a `summary` line describes: a [`BatchReport`] plus how many
/// queries it answered and how many of them succeeded. A batch report
/// counts its own responses (the `From<&BatchReport>` conversion); a
/// query stream keeps no responses, so its
/// [`StreamTally`](crate::ops::StreamTally) supplies the counts and an
/// owned report.
#[derive(Debug, Clone)]
pub struct SummaryInput<'a> {
    /// Latency, cache and scheduling figures.
    pub report: Cow<'a, BatchReport>,
    /// Queries answered.
    pub queries: usize,
    /// Queries that produced a community.
    pub ok: usize,
    /// The store's rebuild counters, written last as `shards`,
    /// `rebuilds`, `shards_rebuilt` and `shards_reused` (the `--updates`
    /// summary; a batch runs on one snapshot and leaves this empty).
    pub store: Option<RebuildStats>,
}

impl<'a> From<&'a BatchReport> for SummaryInput<'a> {
    fn from(report: &'a BatchReport) -> Self {
        SummaryInput {
            report: Cow::Borrowed(report),
            queries: report.responses.len(),
            ok: report.succeeded(),
            store: None,
        }
    }
}

/// The `summary` line of a [`BatchReport`] or query stream (see
/// [`SummaryInput`]), through a fresh [`LineWriter`]. `weighted` records
/// whether it ran the weighted objective.
pub fn summary_json<'a>(
    algo: &str,
    weighted: bool,
    input: impl Into<SummaryInput<'a>>,
) -> JsonLine {
    let mut out = String::new();
    LineWriter::new().summary(&mut out, algo, weighted, input);
    JsonLine(out)
}

/// A whole [`BatchReport`] as JSON-lines: one `response` line per query
/// in submission order, then one `summary` line. Every line is a
/// complete JSON object; the result ends with a newline.
pub fn report_jsonl(
    algo: &str,
    weighted: bool,
    report: &BatchReport,
    original: Option<&[u64]>,
) -> String {
    let mut out = String::new();
    let mut writer = LineWriter::new();
    for resp in &report.responses {
        writer.response(&mut out, resp, original);
    }
    writer.summary(&mut out, algo, weighted, report);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_on_scalars() {
        for (v, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::UInt(5), "5"),
            (Json::Num(-0.25), "-0.25"),
            (Json::str("a \"b\"\n\t\\"), "\"a \\\"b\\\"\\n\\t\\\\\""),
            (
                Json::str("c\r\u{1}\u{1f}\u{7f} é 社"),
                "\"c\\r\\u0001\\u001f\u{7f} é 社\"",
            ),
        ] {
            assert_eq!(v.render(), text);
            assert_eq!(Json::parse(text).unwrap(), v);
        }
        // Non-finite numbers degrade to null on write.
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn large_u64_ids_stay_exact() {
        // 2^53 + 1 is not representable as f64; ids must not go through
        // one.
        for v in [9007199254740993u64, u64::MAX] {
            let text = Json::UInt(v).render();
            assert_eq!(text, v.to_string());
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{v} corrupted via {text}");
        }
        // as_u64 tolerates integral floats but rejects fractions.
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Num(4.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            (
                "b".to_string(),
                Json::Obj(vec![("c".to_string(), Json::str("x"))]),
            ),
        ]);
        let text = v.render();
        assert_eq!(text, "{\"a\":[1,null],\"b\":{\"c\":\"x\"}}");
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Whitespace tolerance on parse.
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , null ] , \"b\": {\"c\":\"x\"} } ").unwrap(),
            v
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "nul",
            // JSON's number grammar is strict; Rust's permissive float
            // parser must not leak through the validator.
            "+1",
            ".5",
            "1.",
            "007",
            "-",
            "1e",
            "1e+",
            "inf",
            "NaN",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} must fail");
        }
        // Nesting is capped: the cap itself parses, one more level (or
        // a stack-sized pile of brackets) is a typed error.
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_JSON_DEPTH);
        assert!(Json::parse(&"[{\"a\":".repeat(40_000)).is_err());
        // ...while every legal shape still parses.
        for good in ["0", "-0", "10", "-5", "0.5", "1e3", "1E-3", "2.5e+7"] {
            Json::parse(good).unwrap_or_else(|e| panic!("{good:?} must parse: {e}"));
        }
        assert_eq!(Json::parse("-5").unwrap().as_f64(), Some(-5.0));
        // The exact-2^64 float is out of u64 range, not saturated.
        assert_eq!(Json::Num(18446744073709551616.0).as_u64(), None);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456.789, -0.0] {
            let text = Json::Num(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn unicode_survives() {
        let v = Json::str("café → 社区");
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_str(), Some("café → 社区"));
        // \u escapes parse too.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn writer_maps_ids_and_reports_errors() {
        let original = vec![100u64, 200, 300];
        let ok = SearchResult {
            community: vec![2, 0],
            density_modularity: 0.5,
            removal_order: vec![],
            iterations: 3,
        };
        let mut writer = LineWriter::new();
        let mut out = String::new();
        let request = QueryRequest::new(vec![0]).with_tag("t");
        writer.result(&mut out, "FPA", &request, Ok(&ok), 0.25, Some(&original));
        assert_eq!(out.matches('\n').count(), 1);
        assert!(out.ends_with('\n'));
        let v = Json::parse(out.trim_end()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("response"));
        assert_eq!(
            v.get("protocol_version").unwrap().as_u64(),
            Some(PROTOCOL_VERSION)
        );
        assert_eq!(v.get("server").unwrap().as_str(), Some(SERVER_ID));
        assert!(SERVER_ID.starts_with("dmcs/"));
        assert_eq!(v.get("tag").unwrap().as_str(), Some("t"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("size").unwrap().as_f64(), Some(2.0));
        let comm: Vec<f64> = v
            .get("community")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(comm, vec![100.0, 300.0], "mapped and sorted");

        // The next line appends to the same buffer.
        let err = SearchError::EmptyQuery;
        let before = out.len();
        writer.result(
            &mut out,
            "FPA",
            &QueryRequest::new(vec![]),
            Err(&err),
            0.0,
            None,
        );
        let v = Json::parse(out[before..].trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("query set is empty"));
        assert_eq!(v.get("tag").unwrap(), &Json::Null);
        assert!(v.get("community").is_none());
        assert_eq!(v.get("query").unwrap(), &Json::Arr(vec![]));
    }

    #[test]
    fn parsing_a_long_string_is_linear() {
        // A request line holding a 1 MiB tag (mixed ASCII, two- and
        // three-byte characters, and escapes) parses well within the
        // bound. A parser that re-validates the rest of the line at every
        // character is quadratic: 19 s for 256 KiB of such text (release
        // build, 2-vCPU VM).
        let unit = "abcdefgh é 社 \\\" ";
        let tag: String = unit.repeat((1 << 20) / unit.len() + 1);
        let line = format!("{{\"op\":\"query\",\"nodes\":[0],\"tag\":\"{tag}\"}}");
        assert!(line.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        let took = start.elapsed();
        assert!(took.as_secs_f64() < 3.0, "1 MiB string took {took:?}");
        let parsed = v.get("tag").unwrap().as_str().unwrap();
        assert_eq!(parsed, tag.replace("\\\"", "\""));
        // Errors keep their offsets: a raw control byte inside a run.
        let err = Json::parse("\"ab\u{1}c\"").unwrap_err();
        assert_eq!(
            (err.offset, err.msg.as_str()),
            (3, "raw control character in string")
        );
    }
}
