//! Command-line interface of the `dmcs` binary: load a SNAP-format edge
//! list, run a community-search algorithm (or a whole batch of queries),
//! print the community / throughput report as text or JSON-lines.
//!
//! ```text
//! dmcs --graph karate.txt --query 0 --algo fpa --stats
//! dmcs --demo --query 0,3 --algo nca --format json
//! dmcs --graph big.txt --queries q.txt --threads 8 --algo fpa
//! dmcs --graph w.txt --weighted --queries q.txt --threads 8 --format json
//! dmcs --demo --updates script.txt --format json
//! ```
//!
//! This module keeps two jobs: flag parsing and text rendering. Parsing
//! is hand-rolled (the workspace's dependency policy admits no CLI
//! crate) and lives in the library so it is unit-testable; `src/main.rs`
//! is a thin wrapper. `dmcs …` and `dmcs serve …` share one flag loop,
//! and [`run`] and [`run_serve`] one engine setup. Algorithm labels
//! resolve through the [`dmcs_engine::registry`], and the `--algo`
//! section of the usage text is generated from it, so help cannot drift
//! from the code.
//!
//! Every failure is a typed [`EngineError`]; `main` maps each variant to
//! its documented exit code (2 = bad flags/params, 3 = unknown
//! algorithm, 4 = I/O, 5 = unknown query node, 6 = search failure,
//! 7 = bad update-script line).
//!
//! Every mode serves through the versioned
//! [`GraphStore`](dmcs_graph::GraphStore) behind an [`Engine`]: queries
//! pin epoch snapshots, and the
//! `--updates` mode interleaves `add` / `del` / `setw` mutations with
//! `query` lines, exercising the full mutate → snapshot → query →
//! cache-invalidate cycle in a single run. Mapping ids, interpreting
//! `--updates` lines and tallying a query stream's summary are the
//! [`dmcs_engine::ops`] layer's jobs, shared with `dmcs serve`.
//!
//! **Weighted serving** is the same stack, not a side door: `--weighted`
//! loads a `u v w` edge list into a weighted
//! [`GraphStore`](dmcs_graph::GraphStore) (the demo graph gets unit
//! weights) and builds `fpa`/`nca` on the weights
//! ([`AlgoParams::weighted`], `W-FPA`/`W-NCA`), so
//! `--queries`, `--threads`, `--format json`, `--updates` (whose grammar
//! grows `add u v w` and `setw u v w`) and the shard-scoped result
//! cache all compose with weights.

use crate::core::SearchResult;
use crate::engine::ops::{
    parse_query_ids, parse_update_script, Action, IdSpace, Mutation, StreamTally, UpdateOp,
};
use crate::engine::output::{report_jsonl, LineWriter, SummaryInput};
use crate::engine::registry::{self, AlgoParams, AlgoSpec};
use crate::engine::{
    BatchReport, Engine, EngineError, PlanMode, QueryRequest, QueryResponse, Server, ServerConfig,
    Session,
};
use crate::graph::io::{load_edge_list, read_weighted_edge_list};
use crate::graph::{Graph, LayoutPolicy, NodeId};
use crate::metrics::Goodness;

/// Output rendering of the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// JSON-lines: one `response` object per query, one `summary` object
    /// per batch — the schema of [`dmcs_engine::output`].
    Json,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliConfig {
    /// Path to the edge-list file; `None` means `--demo` (Karate club).
    pub graph_path: Option<String>,
    /// Query nodes in *original* (file) id space.
    pub query: Vec<u64>,
    /// Algorithm label.
    pub algo: String,
    /// `k` for the parameterised baselines (kc/kt/kecc).
    pub k: u32,
    /// Disable FPA's layer-based pruning.
    pub no_pruning: bool,
    /// Print structural goodness statistics of the result.
    pub stats: bool,
    /// Cap on how many member ids to print (0 = all; text format only).
    pub max_print: usize,
    /// Serve the weighted density modularity: load the input as a
    /// strict `u v w` edge list (the demo graph gets unit weights) and
    /// build the weight-aware algorithm on the weights (`fpa` ->
    /// `W-FPA`, `nca` -> `W-NCA`). Composes with every mode:
    /// `--query`, `--queries`/`--threads`, `--updates`, `--format json`.
    pub weighted: bool,
    /// Return up to this many diverse communities (0 = single community).
    pub top_k: usize,
    /// Write a Graphviz DOT rendering of the result here.
    pub dot_path: Option<String>,
    /// Batch mode: path to a file with one query per line.
    pub queries_path: Option<String>,
    /// Live-update mode: path to a script of interleaved `add u v` /
    /// `del u v` / `query id[,id...]` lines.
    pub updates_path: Option<String>,
    /// Batch mode worker threads.
    pub threads: usize,
    /// Output rendering (`--format {text,json}`).
    pub format: OutputFormat,
    /// Shard count for the versioned store (`--shards`): node-id ranges
    /// per shard, giving shard-scoped cache invalidation under updates
    /// and the store's per-shard rebuild counters.
    pub shards: usize,
    /// Batch planner mode (`--plan {auto,off}`, batch mode only): whether
    /// a batch picks component-grouped scheduling and the per-worker
    /// component memo from snapshot statistics. Strategy only — output
    /// bytes are identical across modes.
    pub plan: PlanMode,
    /// Compute-mirror layout policy (`--layout {identity,bfs}`): `bfs`
    /// makes the store additionally build a cache-friendly renumbered
    /// CSR mirror per snapshot. Public ids (and all output) stay in the
    /// external id space.
    pub layout: LayoutPolicy,
}

impl Default for CliConfig {
    fn default() -> Self {
        CliConfig {
            graph_path: None,
            query: Vec::new(),
            algo: "fpa".into(),
            k: 3,
            no_pruning: false,
            stats: false,
            max_print: 50,
            weighted: false,
            top_k: 0,
            dot_path: None,
            queries_path: None,
            updates_path: None,
            threads: 1,
            format: OutputFormat::Text,
            shards: crate::graph::DEFAULT_SHARD_COUNT,
            plan: PlanMode::default(),
            layout: LayoutPolicy::default(),
        }
    }
}

/// Usage text for `--help` and parse errors. The `--algo` section is
/// generated from the algorithm registry, so it lists exactly the
/// algorithms that actually resolve.
pub fn usage() -> String {
    format!(
        "\
dmcs — Density-Modularity based Community Search (SIGMOD 2022)

USAGE:
    dmcs [--graph <edge-list> | --demo] --query <id[,id...]> [options]
    dmcs [--graph <edge-list> | --demo] --queries <file> [--threads <n>] [options]
    dmcs [--graph <edge-list> | --demo] --updates <file> [options]
    dmcs serve [--graph <edge-list> | --demo] (--unix <path> | --tcp <addr>) [options]
                      (socket daemon; see `dmcs serve --help`)

OPTIONS:
    --graph <path>    SNAP-format edge list (`u v` per line, # comments)
    --demo            use the embedded Zachary Karate Club instead
    --query <ids>     comma-separated query node ids (file id space)
    --queries <path>  batch mode: one query per line (comma-separated ids;
                      blank lines and # comments are skipped)
    --updates <path>  live-update mode: interleaved script of `add u v`,
                      `del u v` and `query id[,id...]` lines (file id
                      space; `add` may introduce new ids; blank lines and
                      # comments are skipped); queries answer against the
                      graph as mutated so far — consecutive mutations
                      coalesce into one snapshot rebuild at the next
                      query — with shard-scoped result caching. With
                      --weighted the grammar grows
                      `add u v w` and `setw u v w` (weight ops on an
                      unweighted graph are exit-7 errors)
    --threads <n>     batch mode worker threads (default: 1)
    --format <fmt>    output format: text (default) or json (JSON-lines,
                      one response object per query; schema in README)
    --algo <name>     algorithm label (default: fpa), one of:
{algos}    --k <int>         k for the algorithms marked [uses --k] (default: 3)
    --no-pruning      disable FPA's layer-based pruning
    --stats           print conductance/expansion/... of the result and
                      the graph's resident memory footprint (text format)
    --max-print <n>   print at most n member ids, 0 = all (default: 50)
    --weighted        input has strict `u v w` lines (--demo gets unit
                      weights); serve the weighted density modularity
                      with an algorithm marked [weights]; composes with
                      --queries, --threads, --updates and --format json
    --top-k <n>       return up to n diverse communities per query;
                      composes with --algo and --weighted (rounds run
                      the resolved searcher and score its objective)
    --dot <path>      write a Graphviz DOT rendering of the result
    --shards <n>      partition the store's node-id space into n shards
                      (default: 16): updates dirty only the shards they
                      touch, and cached answers scoped to clean shards
                      survive updates that leave the edge count unchanged
    --plan <mode>     batch planner (batch mode only): auto (default;
                      the batch runs component-grouped with a per-worker
                      component memo when snapshot stats warrant it —
                      grouping is skew-aware, skipped when one giant
                      component holds most of the mass — and mirror-safe
                      searches run on the compute mirror when one
                      exists) or off (ungrouped canonical baseline).
                      Execution strategy only — results are
                      bit-identical across modes
    --layout <policy> snapshot compute-mirror layout: identity (default;
                      no mirror) or bfs — builds a renumbered
                      cache-friendly CSR mirror per snapshot that
                      mirror-safe searches execute on (in a batch, under
                      --plan auto); ids in all output stay in the input
                      id space
    --help            show this text

EXIT CODES:
    0 success, 2 bad flags or parameters, 3 unknown algorithm,
    4 I/O failure, 5 unknown query node, 6 search failure,
    7 bad update-script line, 8 server overloaded (wire code),
    9 bad wire request (wire code)
",
        algos = registry::algo_help()
    )
}

/// Parse `args` (without the program name). `Ok(None)` means `--help`.
pub fn parse(args: &[String]) -> Result<Option<CliConfig>, EngineError> {
    Ok(parse_grammar(args, Grammar::Run)?.map(|parsed| parsed.cfg))
}

/// The two command lines [`parse_grammar`] reads: a one-shot run
/// (`dmcs …`) and the daemon (`dmcs serve …`). Both take the graph and
/// algorithm flags; each rejects the other's own flags as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grammar {
    Run,
    Serve,
}

/// The one flag loop behind [`parse`] and [`parse_serve`]. Errors come
/// in a fixed order: the first bad flag or value on the line, then the
/// graph source, then the grammar's own rules, then `--weighted`
/// against `--algo`. Under [`Grammar::Run`] the listener configuration
/// keeps its defaults.
fn parse_grammar(args: &[String], grammar: Grammar) -> Result<Option<ServeCli>, EngineError> {
    use Grammar::{Run, Serve};
    let (mut cfg, mut server) = (CliConfig::default(), ServerConfig::default());
    // `demo`, and the first batch-only flag on the line.
    let (mut demo, mut batch_flag) = (false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| EngineError::bad_param(format!("{arg} needs a value")))
        };
        match (arg.as_str(), grammar) {
            ("--help" | "-h", _) => return Ok(None),
            ("--graph", _) => cfg.graph_path = Some(value()?.to_string()),
            ("--demo", _) => demo = true,
            ("--weighted", _) => cfg.weighted = true,
            ("--algo", _) => cfg.algo = value()?.to_lowercase(),
            ("--k", _) => cfg.k = number(arg, value()?)?,
            ("--no-pruning", _) => cfg.no_pruning = true,
            ("--shards", _) => {
                cfg.shards = number(arg, value()?)?;
                if cfg.shards == 0 {
                    return Err(EngineError::bad_param("--shards must be at least 1"));
                }
            }
            ("--layout", _) => cfg.layout = policy(arg, value()?)?,
            ("--query", Run) => cfg.query = parse_query_ids(value()?)?,
            ("--queries", Run) => cfg.queries_path = Some(value()?.to_string()),
            ("--updates", Run) => cfg.updates_path = Some(value()?.to_string()),
            ("--threads", Run) => {
                cfg.threads = number(arg, value()?)?;
                batch_flag = batch_flag.or(Some(arg.as_str()));
            }
            ("--format", Run) => {
                cfg.format = match value()? {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => {
                        return Err(EngineError::bad_param(format!(
                            "bad --format {other:?} (expected text or json)"
                        )))
                    }
                };
            }
            ("--stats", Run) => cfg.stats = true,
            ("--max-print", Run) => cfg.max_print = number(arg, value()?)?,
            ("--top-k", Run) => cfg.top_k = number(arg, value()?)?,
            ("--dot", Run) => cfg.dot_path = Some(value()?.to_string()),
            ("--plan", Run) => {
                cfg.plan = policy(arg, value()?)?;
                batch_flag = batch_flag.or(Some(arg.as_str()));
            }
            ("--unix", Serve) => server.unix_path = Some(value()?.to_string()),
            ("--tcp", Serve) => server.tcp_addr = Some(value()?.to_string()),
            ("--queue-cap", Serve) => server.queue_cap = number(arg, value()?)?,
            ("--max-line-bytes", Serve) => server.max_line_bytes = number(arg, value()?)?,
            (other, _) => {
                let serve = if grammar == Serve { " serve" } else { "" };
                return Err(EngineError::bad_param(format!(
                    "unknown{serve} argument {other:?}"
                )));
            }
        }
    }
    if demo && cfg.graph_path.is_some() {
        return Err(EngineError::bad_param(
            "--demo and --graph are mutually exclusive",
        ));
    }
    if !demo && cfg.graph_path.is_none() {
        return Err(EngineError::bad_param(
            "either --graph or --demo is required",
        ));
    }
    if grammar == Run {
        run_rules(&cfg, batch_flag)?;
    } else if server.unix_path.is_none() && server.tcp_addr.is_none() {
        return Err(EngineError::bad_param(
            "serve needs at least one listener (--unix <path> and/or --tcp <addr>)",
        ));
    }
    validate_weighted_algo(&cfg)?;
    Ok(Some(ServeCli { cfg, server }))
}

/// A flag's numeric value; anything else is `bad <flag> value`.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, EngineError> {
    value
        .parse()
        .map_err(|_| EngineError::bad_param(format!("bad {flag} value")))
}

/// A flag's named policy (`--plan`, `--layout`); an unknown name is
/// `bad <flag> value: ` and the policy's own reason.
fn policy<T: std::str::FromStr<Err = String>>(flag: &str, value: &str) -> Result<T, EngineError> {
    value
        .parse()
        .map_err(|e| EngineError::bad_param(format!("bad {flag} value: {e}")))
}

/// The one-shot run's own rules: exactly one query source, the
/// batch-only flags (`--threads`, `--plan`; `batch_flag` is the first
/// given) only for a batch, and no flag the chosen source cannot honour.
fn run_rules(cfg: &CliConfig, batch_flag: Option<&str>) -> Result<(), EngineError> {
    let sources = [
        !cfg.query.is_empty(),
        cfg.queries_path.is_some(),
        cfg.updates_path.is_some(),
    ];
    match sources.iter().filter(|&&s| s).count() {
        0 => {
            return Err(EngineError::bad_param(
                "--query, --queries or --updates is required",
            ))
        }
        1 => {}
        _ => {
            return Err(EngineError::bad_param(
                "--query, --queries and --updates are mutually exclusive",
            ))
        }
    }
    if let (Some(flag), None) = (batch_flag, &cfg.queries_path) {
        return Err(EngineError::bad_param(format!(
            "{flag} requires --queries (batch mode)"
        )));
    }
    // A batch or an update script answers each query with one
    // community: no top-k rounds, no DOT file.
    let stream = match (&cfg.queries_path, &cfg.updates_path) {
        (Some(_), _) => "--queries",
        (_, Some(_)) => "--updates",
        _ => return Ok(()),
    };
    if cfg.top_k > 0 {
        return Err(EngineError::bad_param(format!(
            "{stream} does not support --top-k"
        )));
    }
    if cfg.dot_path.is_some() {
        return Err(EngineError::bad_param(format!(
            "{stream} does not support --dot"
        )));
    }
    if cfg.stats && cfg.updates_path.is_some() {
        return Err(EngineError::bad_param(
            "--updates does not support --stats (the graph changes mid-run)",
        ));
    }
    Ok(())
}

/// `--weighted` needs a weight-aware algorithm. A label the registry
/// does not know at all is left for run() to reject with the richer
/// UnknownAlgo error (exit 3, nearest-name suggestion).
fn validate_weighted_algo(cfg: &CliConfig) -> Result<(), EngineError> {
    if cfg.weighted {
        if let Some(entry) = registry::find(&cfg.algo) {
            if !entry.weight_aware {
                return Err(EngineError::bad_param(format!(
                    "--weighted does not support --algo {} (weight-aware: {})",
                    cfg.algo,
                    registry::REGISTRY
                        .iter()
                        .filter(|e| e.weight_aware)
                        .map(|e| e.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
    }
    Ok(())
}

/// The registry spec a config's `--algo` / `--k` / `--no-pruning` /
/// `--weighted` flags describe.
pub fn algo_spec(cfg: &CliConfig) -> AlgoSpec {
    AlgoSpec {
        name: cfg.algo.clone(),
        params: AlgoParams {
            k: cfg.k,
            layer_pruning: !cfg.no_pruning,
            weighted: cfg.weighted,
        },
    }
}

/// Load the graph named by the config. Returns the graph and the
/// dense-id -> original-id mapping. Under `--weighted` the file is
/// parsed as a strict `u v w` edge list and the returned graph carries
/// its weights lane (the demo graph gets unit weights), so the same
/// engine/store/session stack serves both worlds.
pub fn load_graph(cfg: &CliConfig) -> Result<(Graph, Vec<u64>), EngineError> {
    match &cfg.graph_path {
        Some(path) if cfg.weighted => {
            let file = std::fs::File::open(path).map_err(|e| EngineError::io(path, e))?;
            read_weighted_edge_list(file).map_err(|e| EngineError::io(path, e))
        }
        Some(path) => load_edge_list(path).map_err(|e| EngineError::io(path, e)),
        None => {
            let g = crate::gen::karate::karate();
            let ids = (0..g.n() as u64).collect();
            let g = if cfg.weighted {
                g.with_unit_weights()
            } else {
                g
            };
            Ok((g, ids))
        }
    }
}

/// Map original query ids to dense ids by scanning `original`: cheaper
/// than building an [`IdSpace`] for a single `--query`. An id missing
/// from the graph is an [`EngineError::UnknownNode`] (exit code 5).
pub fn map_queries(query: &[u64], original: &[u64]) -> Result<Vec<NodeId>, EngineError> {
    query
        .iter()
        .map(|&raw| {
            original
                .iter()
                .position(|&o| o == raw)
                .map(|i| i as NodeId)
                .ok_or_else(|| EngineError::unknown_node(raw))
        })
        .collect()
}

/// Wrap a write failure on the output stream.
fn werr(e: std::io::Error) -> EngineError {
    EngineError::io("<output>", e)
}

/// Print one search result (community in original ids, optional stats).
fn print_result<W: std::io::Write>(
    cfg: &CliConfig,
    out: &mut W,
    g: &Graph,
    original: &[u64],
    label: &str,
    result: &SearchResult,
    secs: f64,
) -> Result<(), EngineError> {
    writeln!(
        out,
        "algorithm: {label}   time: {secs:.3}s   |C| = {}   DM = {:.6}",
        result.community.len(),
        result.density_modularity
    )
    .map_err(werr)?;

    let (members, shown) = shown_members(cfg, original, &result.community);
    writeln!(
        out,
        "community ({} shown{}): {:?}",
        shown,
        if shown < members.len() {
            format!(" of {}", members.len())
        } else {
            String::new()
        },
        &members[..shown]
    )
    .map_err(werr)?;

    if cfg.stats {
        write_goodness(out, "", g, &result.community).map_err(werr)?;
    }
    Ok(())
}

/// The `--stats` goodness line of one community after `indent`: flush
/// under a single or top-k result, indented under a batch's query line.
fn write_goodness<W: std::io::Write>(
    out: &mut W,
    indent: &str,
    g: &Graph,
    community: &[NodeId],
) -> std::io::Result<()> {
    let l = g.internal_edges(community);
    let vol = g.degree_sum(community);
    let good = Goodness::from_counts(g.n(), community.len(), l, vol, g.m() as u64);
    writeln!(
        out,
        "{indent}stats: conductance {:.4}  expansion {:.3}  cut-ratio {:.5}  int-density {:.4}  separability {:.3}",
        good.conductance(),
        good.expansion(),
        good.cut_ratio(),
        good.internal_density(),
        good.separability()
    )
}

/// Write the DOT rendering of `communities` (dense ids, labelled with
/// original ids) to `path`, and say so in the text format.
fn write_dot_file<W: std::io::Write>(
    cfg: &CliConfig,
    out: &mut W,
    path: &str,
    g: &Graph,
    original: &[u64],
    communities: &[&[NodeId]],
) -> Result<(), EngineError> {
    let file = std::fs::File::create(path).map_err(|e| EngineError::io(path, e))?;
    let labels = |v: NodeId| original[v as usize].to_string();
    crate::graph::dot::write_dot(g, communities, Some(&labels), file)
        .map_err(|e| EngineError::io(path, e))?;
    if cfg.format == OutputFormat::Text {
        writeln!(out, "DOT written to {path}").map_err(werr)?;
    }
    Ok(())
}

/// The engine behind [`run`] and [`run_serve`], the dense → original id
/// map and the algorithm's display name. `--algo` resolves first, so an
/// unregistered label fails (exit code 3) before any graph loads; then
/// the graph (with its weights lane under `--weighted`) seeds a store of
/// `--shards` shards under the `--layout` policy, which every mode
/// serves from through the shard-scoped result cache.
fn open_engine(cfg: &CliConfig) -> Result<(Engine, Vec<u64>, &'static str), EngineError> {
    let algo_name = algo_spec(cfg).build()?.name();
    let (g, original) = load_graph(cfg)?;
    let engine = Engine::from_graph_sharded(g, cfg.shards);
    engine.store().set_layout_policy(cfg.layout);
    Ok((engine, original, algo_name))
}

/// Full CLI run; writes text or JSON-lines output to `out`.
pub fn run<W: std::io::Write>(cfg: &CliConfig, out: &mut W) -> Result<(), EngineError> {
    let (engine, original, algo_name) = open_engine(cfg)?;
    if cfg.format == OutputFormat::Text {
        let snap = engine.snapshot();
        if snap.is_weighted() {
            writeln!(
                out,
                "graph: {} nodes, {} edges, total weight {:.3}",
                snap.n(),
                snap.m(),
                snap.total_weight()
            )
            .map_err(werr)?;
        } else {
            writeln!(out, "graph: {} nodes, {} edges", snap.n(), snap.m()).map_err(werr)?;
        }
        if cfg.stats {
            let bytes = snap.memory_bytes();
            writeln!(
                out,
                "graph memory: {bytes} bytes ({:.2} MiB)",
                bytes as f64 / (1024.0 * 1024.0)
            )
            .map_err(werr)?;
            let rb = engine.rebuild_stats();
            writeln!(
                out,
                "store: {} shards, {} dirty  rebuilds: {} ({} shards rebuilt, {} reused)  last: {} dirty in {:.6}s",
                rb.shards,
                engine.dirty_shards(),
                rb.rebuilds,
                rb.shards_rebuilt,
                rb.shards_reused,
                rb.last_dirty_shards,
                rb.last_rebuild_seconds
            )
            .map_err(werr)?;
        }
    }

    // Live-update path: interleaved mutations and queries.
    if let Some(upath) = &cfg.updates_path {
        return run_updates(cfg, upath, &engine, original, algo_name, out);
    }

    // Batch path: fan a query file out across worker threads.
    if let Some(qpath) = &cfg.queries_path {
        return run_batch(cfg, qpath, &engine, original, algo_name, out);
    }
    let snap = engine.snapshot();
    let query = map_queries(&cfg.query, &original)?;
    // A one-query session (the typed serving API; a long-running caller
    // would keep the session and loop).
    let mut session = engine.session(&algo_spec(cfg))?;

    // Top-k path: several diverse communities, served through the
    // session like every other query — the registry resolves the
    // searcher (so --algo and --weighted compose) and the shared result
    // cache replays repeat enumerations.
    if cfg.top_k > 0 {
        let outcome = session.top_k(&query, cfg.top_k);
        let algo = outcome.algo;
        let rounds = outcome.rounds.map_err(|e| EngineError::Search {
            algo: format!("top-k {algo}"),
            source: e,
        })?;
        let secs = outcome.seconds;
        // In JSON each round is a `response` line tagged `round-N`.
        let mut round = QueryRequest::new(query);
        let (mut json, mut line) = (LineWriter::new(), String::new());
        if cfg.format == OutputFormat::Text {
            writeln!(
                out,
                "top-{} search found {} communities:",
                cfg.top_k,
                rounds.len()
            )
            .map_err(werr)?;
        }
        for (i, r) in rounds.iter().enumerate() {
            match cfg.format {
                OutputFormat::Text => print_result(
                    cfg,
                    out,
                    &snap,
                    &original,
                    &format!("{algo} round {}", i + 1),
                    r,
                    secs,
                )?,
                OutputFormat::Json => {
                    round.tag = Some(format!("round-{}", i + 1));
                    line.clear();
                    json.result(&mut line, algo, &round, Ok(r), secs, Some(&original));
                    out.write_all(line.as_bytes()).map_err(werr)?;
                }
            }
        }
        if let Some(dot) = &cfg.dot_path {
            let comms: Vec<&[NodeId]> = rounds.iter().map(|r| r.community.as_slice()).collect();
            write_dot_file(cfg, out, dot, &snap, &original, &comms)?;
        }
        return Ok(());
    }

    // Single-community path.
    let response = session.query(&QueryRequest::new(query))?;
    let result = match &response.result {
        Ok(r) => r,
        Err(e) => {
            return Err(EngineError::Search {
                algo: response.algo.into(),
                source: e.clone(),
            })
        }
    };
    match cfg.format {
        OutputFormat::Text => print_result(
            cfg,
            out,
            &snap,
            &original,
            response.algo,
            result,
            response.seconds,
        )?,
        OutputFormat::Json => {
            let mut line = String::new();
            LineWriter::new().response(&mut line, &response, Some(&original));
            out.write_all(line.as_bytes()).map_err(werr)?;
        }
    }
    if let Some(dot) = &cfg.dot_path {
        write_dot_file(cfg, out, dot, &snap, &original, &[&result.community])?;
    }
    Ok(())
}

/// Parse a batch query file: one comma-separated query per line, blank
/// lines and `#` comments skipped. Errors carry `file:line` context.
pub fn parse_query_file(path: &str, text: &str) -> Result<Vec<Vec<u64>>, EngineError> {
    let mut queries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        queries.push(
            parse_query_ids(line)
                .map_err(|e| EngineError::bad_param(format!("{path}:{}: {e}", i + 1)))?,
        );
    }
    if queries.is_empty() {
        return Err(EngineError::bad_param(format!(
            "{path}: contains no queries"
        )));
    }
    Ok(queries)
}

/// A community's members in original ids, sorted, and how many of them
/// `--max-print` shows.
fn shown_members(cfg: &CliConfig, original: &[u64], community: &[NodeId]) -> (Vec<u64>, usize) {
    let mut members: Vec<u64> = community.iter().map(|&v| original[v as usize]).collect();
    members.sort_unstable();
    let shown = match cfg.max_print {
        0 => members.len(),
        cap => cap.min(members.len()),
    };
    (members, shown)
}

/// Sorted community members in original ids, elided to `--max-print`.
fn members_string(cfg: &CliConfig, original: &[u64], community: &[NodeId]) -> String {
    let (members, shown) = shown_members(cfg, original, community);
    let elided = if shown < members.len() {
        format!(" (+{} more)", members.len() - shown)
    } else {
        String::new()
    };
    format!("{:?}{elided}", &members[..shown])
}

/// One per-query text line (shared by the batch and update modes).
fn write_query_line<W: std::io::Write>(
    cfg: &CliConfig,
    out: &mut W,
    original: &[u64],
    i: usize,
    raw: &[u64],
    resp: &QueryResponse,
) -> std::io::Result<()> {
    match &resp.result {
        Ok(r) => writeln!(
            out,
            "query {i} {raw:?}: |C| = {}  DM = {:.6}  time = {:.4}s  members: {}{}",
            r.community.len(),
            r.density_modularity,
            resp.seconds,
            members_string(cfg, original, &r.community),
            if resp.cached { "  [cached]" } else { "" },
        ),
        Err(e) => writeln!(out, "query {i} {raw:?}: error: {e}"),
    }
}

/// The text-format throughput/cache footer (batch and update modes):
/// the `summary` line's figures, from the same input. Like the JSON
/// summary, it names the plan and skew only for a batch.
fn write_summary_lines<W: std::io::Write>(
    out: &mut W,
    input: &SummaryInput,
) -> std::io::Result<()> {
    let report = &input.report;
    writeln!(
        out,
        "throughput: {:.1} queries/sec  wall {:.3}s  p50 {:.2}ms  p95 {:.2}ms  ok {}/{}",
        report.queries_per_sec,
        report.wall_seconds,
        report.p50_seconds * 1e3,
        report.p95_seconds * 1e3,
        input.ok,
        input.queries
    )?;
    writeln!(
        out,
        "cache: {} hits, {} misses  unique: {}/{}",
        report.cache_hits, report.cache_misses, report.unique_queries, input.queries
    )?;
    if report.planned() {
        write!(out, "plan: {}  ", report.plan)?;
    }
    write!(
        out,
        "groups: {} ({} queries)  shared-bfs reuses: {}  mirror-served: {}",
        report.groups, report.grouped_queries, report.shared_bfs_reuses, report.mirror_served,
    )?;
    if report.planned() {
        write!(out, "  skew: {:.2}", report.skew)?;
    }
    writeln!(out)
}

/// Batch execution through the engine: map every query through one
/// [`IdSpace`], run them on `cfg.threads` workers with deterministic
/// output ordering, and print per-query lines plus the throughput
/// summary (text) or JSON-lines.
fn run_batch<W: std::io::Write>(
    cfg: &CliConfig,
    qpath: &str,
    engine: &Engine,
    original: Vec<u64>,
    algo_name: &str,
    out: &mut W,
) -> Result<(), EngineError> {
    let text = std::fs::read_to_string(qpath).map_err(|e| EngineError::io(qpath, e))?;
    let raw_queries = parse_query_file(qpath, &text)?;
    let ids = IdSpace::new(original);
    let mut requests = Vec::with_capacity(raw_queries.len());
    for q in &raw_queries {
        requests.push(QueryRequest::new(ids.map_query(q).map_err(
            // 0-based "query N", matching the per-query output lines.
            |e| e.with_node_context(format!("{qpath}: query {}", requests.len())),
        )?));
    }
    let spec = algo_spec(cfg);
    let report = engine.run_batch_planned(&spec, &requests, cfg.threads, cfg.plan)?;
    let weighted = spec.params.weighted;
    let snap = engine.snapshot();
    ids.with_original(|original| match cfg.format {
        OutputFormat::Json => {
            out.write_all(report_jsonl(algo_name, weighted, &report, Some(original)).as_bytes())
        }
        OutputFormat::Text => {
            write_batch_text(cfg, &snap, algo_name, &raw_queries, &report, original, out)
        }
    })
    .map_err(werr)
}

/// The text rendering of a finished batch: a header, one line per query
/// (plus its goodness line under `--stats`), and the footer.
fn write_batch_text<W: std::io::Write>(
    cfg: &CliConfig,
    g: &Graph,
    algo_name: &str,
    raw_queries: &[Vec<u64>],
    report: &BatchReport,
    original: &[u64],
    out: &mut W,
) -> std::io::Result<()> {
    writeln!(
        out,
        "batch: {} queries, algo {}, {} thread{}",
        report.responses.len(),
        algo_name,
        cfg.threads,
        if cfg.threads == 1 { "" } else { "s" }
    )?;
    for ((i, raw), resp) in raw_queries.iter().enumerate().zip(&report.responses) {
        write_query_line(cfg, out, original, i, raw, resp)?;
        if cfg.stats {
            if let Ok(r) = &resp.result {
                write_goodness(out, "  ", g, &r.community)?;
            }
        }
    }
    write_summary_lines(out, &SummaryInput::from(report))
}

/// Live-update execution: apply the script in order against the
/// engine's store. Mutations land in the [`GraphStore`] **without
/// snapshotting** — a run of consecutive `add`/`del`/`setw` lines
/// coalesces into the store's overlay of changed rows, and the CSR is
/// rebuilt (unchanged rows copied forward from the previous snapshot)
/// exactly when the next `query` line forces a read; a script ending in
/// mutations never pays a final rebuild. Each `query`
/// pins the then-current snapshot (re-opening its session only when the
/// version moved) and consults the shard-scoped cache, so a repeated
/// query with no intervening update is a byte-identical cache hit while
/// updates invalidate exactly the cached answers whose shards they
/// touched. Ends with the batch-style summary carrying the cache
/// hit/miss counters (and, in JSON, the store's rebuild counters).
///
/// [`GraphStore`]: dmcs_graph::GraphStore
fn run_updates<W: std::io::Write>(
    cfg: &CliConfig,
    upath: &str,
    engine: &Engine,
    original: Vec<u64>,
    algo_name: &str,
    out: &mut W,
) -> Result<(), EngineError> {
    let text = std::fs::read_to_string(upath).map_err(|e| EngineError::io(upath, e))?;
    let ops = parse_update_script(&text)?;
    if ops.is_empty() {
        return Err(EngineError::bad_param(format!(
            "{upath}: contains no operations"
        )));
    }
    let spec = algo_spec(cfg);
    let ids = IdSpace::new(original);

    let mut session: Option<Session> = None;
    let mut tally = StreamTally::start();
    let (mut json, mut line) = (LineWriter::new(), String::new());
    for (line_no, op) in &ops {
        match op {
            UpdateOp::Mutate(m) => {
                let previous = m.apply(engine, &ids, *line_no)?;
                if cfg.format == OutputFormat::Text {
                    write_update_line(out, engine, m, previous).map_err(werr)?;
                }
            }
            UpdateOp::Query(raw) => {
                let nodes = ids
                    .map_query(raw)
                    .map_err(|e| e.with_node_context(format!("{upath}:{line_no}")))?;
                // Re-pin only when an update moved the store version;
                // between updates the session (and its workspace) is
                // reused just like a batch worker's.
                let fresh = session
                    .as_ref()
                    .is_none_or(|s| s.snapshot().version() != engine.version());
                if fresh {
                    if let Some(s) = session.take() {
                        tally.repin(&s);
                    }
                    session = Some(engine.session(&spec)?);
                }
                let resp = session
                    .as_mut()
                    .expect("session opened above")
                    .query(&QueryRequest::new(nodes))?;
                ids.with_original(|original| match cfg.format {
                    OutputFormat::Text => {
                        write_query_line(cfg, out, original, tally.queries(), raw, &resp)
                    }
                    OutputFormat::Json => {
                        line.clear();
                        json.response(&mut line, &resp, Some(original));
                        out.write_all(line.as_bytes())
                    }
                })
                .map_err(werr)?;
                tally.record(resp.seconds, resp.is_ok(), resp.cached);
            }
        }
    }
    // The summary additionally carries the store's rebuild counters:
    // how many snapshot recompilations the script's query lines forced
    // (coalesced mutation runs pay one), and how many shard segments
    // they actually touched.
    let input = SummaryInput {
        store: Some(engine.rebuild_stats()),
        ..tally.finish(session.as_ref())
    };
    match cfg.format {
        OutputFormat::Json => {
            line.clear();
            json.summary(&mut line, algo_name, spec.params.weighted, input);
            out.write_all(line.as_bytes())
        }
        OutputFormat::Text => write_summary_lines(out, &input),
    }
    .map_err(werr)
}

/// The text line of one applied mutation.
fn write_update_line<W: std::io::Write>(
    out: &mut W,
    engine: &Engine,
    m: &Mutation,
    previous: Option<f64>,
) -> std::io::Result<()> {
    let ((a, b), version) = (m.endpoints(), engine.version());
    let (n, e) = (engine.store().n(), engine.store().m());
    match (m.action(), previous) {
        (Action::SetW(w), Some(old)) => {
            writeln!(
                out,
                "update setw {a} {b} {w} (was {old}): version {version}"
            )
        }
        (Action::Add(Some(w)), _) => writeln!(
            out,
            "update add {a} {b} (weight {w}): {n} nodes, {e} edges (version {version})"
        ),
        (action, _) => writeln!(
            out,
            "update {} {a} {b}: {n} nodes, {e} edges (version {version})",
            action.name()
        ),
    }
}

/// Parsed `dmcs serve` command line: the shared graph/algorithm flags
/// plus the daemon's listener configuration.
#[derive(Debug, Clone)]
pub struct ServeCli {
    /// Graph and algorithm options (the query/batch members are unused
    /// — clients send queries over the socket).
    pub cfg: CliConfig,
    /// Listeners, admission cap and framing limit.
    pub server: ServerConfig,
}

/// Usage text for `dmcs serve --help` and serve parse errors.
pub fn serve_usage() -> String {
    format!(
        "\
dmcs serve — long-lived socket daemon for community-search queries

USAGE:
    dmcs serve [--graph <edge-list> | --demo] (--unix <path> | --tcp <addr>) [options]

LISTENERS (at least one):
    --unix <path>     bind a unix stream socket at <path> (a stale
                      socket file is replaced; unlinked on shutdown)
    --tcp <addr>      bind a TCP listener, e.g. 127.0.0.1:7171
                      (port 0 picks an ephemeral port, printed on start)

OPTIONS:
    --graph <path>    SNAP-format edge list (`u v` per line, # comments)
    --demo            use the embedded Zachary Karate Club instead
    --weighted        input has strict `u v w` lines; serve the weighted
                      density modularity (--demo gets unit weights)
    --algo <name>     algorithm label (default: fpa), one of:
{algos}    --k <int>         k for the algorithms marked [uses --k] (default: 3)
    --no-pruning      disable FPA's layer-based pruning
    --shards <n>      partition the store's node-id space into n shards
                      (default: 16; see `dmcs --help`)
    --layout <policy> snapshot compute-mirror layout: identity (default)
                      or bfs (see `dmcs --help`)
    --queue-cap <n>   bounded admission: at most n queries/updates in
                      flight across all connections; requests past the
                      cap get a typed overload error line, wire code 8
                      (default: 64)
    --max-line-bytes <n>  longest accepted request line; longer lines
                      get a typed error line, wire code 9
                      (default: 65536)
    --help            show this text

WIRE PROTOCOL (one JSON object per line; see README \"Serving\"):
    {{\"op\":\"query\",\"nodes\":[1,2],\"tag\":\"t\",\"k\":0}}   -> response / topk line
    {{\"op\":\"update\",\"action\":\"add\",\"u\":1,\"v\":2}}    -> update line
    {{\"op\":\"repin\"}}                                 -> pin the current epoch
    {{\"op\":\"stats\"}}                                 -> server counters
    {{\"op\":\"shutdown\"}}                              -> drain and exit

Every connection is pinned to the graph epoch current at accept time
until it sends repin. Replies carry protocol_version/server fields;
errors carry the exit-code analog (5 unknown node, 7 bad update,
8 overloaded, 9 bad request). SIGTERM drains gracefully.

EXIT CODES:
    0 clean shutdown, 2 bad flags or parameters, 3 unknown algorithm,
    4 I/O failure (bind or socket error)
",
        algos = registry::algo_help()
    )
}

/// Parse `dmcs serve` arguments (without the program name and the
/// leading `serve`). `Ok(None)` means `--help`.
pub fn parse_serve(args: &[String]) -> Result<Option<ServeCli>, EngineError> {
    parse_grammar(args, Grammar::Serve)
}

/// Load the graph, bind the listeners and serve until drained (a
/// `shutdown` op or SIGTERM). Startup and shutdown banners go to `out`.
pub fn run_serve<W: std::io::Write>(serve: &ServeCli, out: &mut W) -> Result<(), EngineError> {
    let cfg = &serve.cfg;
    let (engine, original, algo_name) = open_engine(cfg)?;
    let snap = engine.snapshot();
    writeln!(
        out,
        "serving {} ({} nodes, {} edges{}) with {algo_name}",
        cfg.graph_path.as_deref().unwrap_or("demo graph"),
        snap.n(),
        snap.m(),
        if cfg.weighted { ", weighted" } else { "" },
    )
    .map_err(werr)?;
    let server = Server::bind(engine, algo_spec(cfg), original, &serve.server)?;
    // Before the banners: a supervisor that waits for them may send
    // SIGTERM at once, and must get a drain rather than the default kill.
    #[cfg(unix)]
    crate::engine::install_sigterm_drain();
    if let Some(path) = server.unix_path() {
        writeln!(out, "listening on unix socket {}", path.display()).map_err(werr)?;
    }
    if let Some(addr) = server.tcp_addr() {
        writeln!(out, "listening on tcp {addr}").map_err(werr)?;
    }
    out.flush().map_err(werr)?;
    let stats = server.run();
    writeln!(
        out,
        "drained: {} connections, {} requests served (cache: {} hits, {} misses)",
        stats.connections, stats.served, stats.cache_hits, stats.cache_misses
    )
    .map_err(werr)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::output::Json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cfg = parse(&args(
            "--graph g.txt --query 1,2,3 --algo nca --k 4 --stats --max-print 0 --format json",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(cfg.graph_path.as_deref(), Some("g.txt"));
        assert_eq!(cfg.query, vec![1, 2, 3]);
        assert_eq!(cfg.algo, "nca");
        assert_eq!(cfg.k, 4);
        assert!(cfg.stats);
        assert_eq!(cfg.max_print, 0);
        assert_eq!(cfg.format, OutputFormat::Json);
        assert_eq!(cfg.shards, crate::graph::DEFAULT_SHARD_COUNT);
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        let cfg = parse(&args("--demo --query 0 --shards 4"))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.shards, 4);
        assert!(parse(&args("--demo --query 0 --shards 0")).is_err());
        assert!(parse(&args("--demo --query 0 --shards nope")).is_err());
        let serve = parse_serve(&args("--demo --tcp 127.0.0.1:0 --shards 8"))
            .unwrap()
            .unwrap();
        assert_eq!(serve.cfg.shards, 8);
        assert!(parse_serve(&args("--demo --tcp 127.0.0.1:0 --shards 0")).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&args("--help")).unwrap(), None);
        assert_eq!(parse(&args("--graph g --query 1 -h")).unwrap(), None);
    }

    #[test]
    fn rejects_bad_input_with_exit_code_2() {
        for bad in [
            "--query 1",
            "--demo",
            "--demo --graph g --query 1",
            "--demo --query x",
            "--demo --query 1 --k nope",
            "--wat",
            "--graph",
            "--demo --query 1 --format yaml",
        ] {
            let err = parse(&args(bad)).unwrap_err();
            assert!(matches!(err, EngineError::BadParam { .. }), "{bad}: {err}");
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
    }

    #[test]
    fn query_id_hygiene() {
        // Duplicates are named in the error.
        let err = parse(&args("--demo --query 1,2,1"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate query id 1"), "{err}");
        // Trailing comma.
        let err = parse(&[String::from("--demo"), "--query".into(), "1,2,".into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("empty query id"), "{err}");
        // Doubled comma.
        let err = parse(&[String::from("--demo"), "--query".into(), "1,,2".into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("empty query id"), "{err}");
        // Non-numeric token is still named.
        let err = parse(&args("--demo --query 1,x")).unwrap_err().to_string();
        assert!(err.contains("bad query id \"x\""), "{err}");
        // Plain lists still parse (with whitespace tolerance).
        let ids = parse_query_ids("3, 1 ,2").unwrap();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn out_of_range_query_id_is_a_typed_unknown_node() {
        let cfg = parse(&args("--demo --query 999")).unwrap().unwrap();
        let mut out = Vec::new();
        let err = run(&cfg, &mut out).unwrap_err();
        assert!(
            matches!(err, EngineError::UnknownNode { id: 999, .. }),
            "{err}"
        );
        assert_eq!(err.exit_code(), 5);
        assert!(
            err.to_string()
                .contains("query node 999 does not appear in the graph"),
            "{err}"
        );
    }

    #[test]
    fn unknown_algo_is_typed_with_a_suggestion() {
        let cfg = parse(&args("--demo --query 0 --algo fpa-dgm"))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        let err = run(&cfg, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let text = err.to_string();
        assert!(text.contains("did you mean \"fpa-dmg\"?"), "{text}");
        assert!(text.contains("valid: fpa"), "{text}");
        // The weighted searchers have no labels of their own: the
        // `-w` labels of earlier releases suggest the label to use with
        // --weighted.
        for (gone, label) in [("fpa-w", "fpa"), ("nca-w", "nca")] {
            let flags = format!("--demo --query 0 --algo {gone}");
            let cfg = parse(&args(&flags)).unwrap().unwrap();
            let err = run(&cfg, &mut Vec::new()).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{gone}");
            let text = err.to_string();
            assert!(
                text.contains(&format!("did you mean \"{label}\"?")),
                "{text}"
            );
        }
    }

    #[test]
    fn batch_flag_rules() {
        assert!(parse(&args("--demo --queries q.txt")).is_ok());
        assert!(parse(&args("--demo --queries q.txt --threads 4")).is_ok());
        assert!(
            parse(&args("--demo --query 1 --queries q.txt")).is_err(),
            "mutually exclusive"
        );
        assert!(
            parse(&args("--demo --query 1 --threads 2")).is_err(),
            "--threads needs --queries"
        );
        assert!(parse(&args("--demo --queries q.txt --threads x")).is_err());
        assert!(parse(&args("--demo --queries q.txt --top-k 2")).is_err());
        assert!(parse(&args("--demo --queries q.txt --dot o.dot")).is_err());
        // --plan configures batches alone.
        assert!(parse(&args("--demo --queries q.txt --plan off")).is_ok());
        assert!(parse(&args("--demo --query 1 --plan off")).is_err());
        // Weighted batches are first-class: --weighted composes with
        // --queries and --threads.
        assert!(parse(&args("--graph g --queries q.txt --weighted")).is_ok());
        assert!(parse(&args(
            "--graph g --queries q.txt --weighted --threads 4 --format json"
        ))
        .is_ok());
    }

    #[test]
    fn zero_threads_is_rejected_by_the_engine() {
        // Parse accepts --threads 0; the engine's BatchRunner validates
        // it (EngineError::BadParam, exit code 2).
        let dir = std::env::temp_dir().join("dmcs_cli_threads0");
        std::fs::create_dir_all(&dir).unwrap();
        let qfile = dir.join("q.txt");
        std::fs::write(&qfile, "0\n").unwrap();
        let cfg = parse(&args(&format!(
            "--demo --queries {} --threads 0",
            qfile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        let err = run(&cfg, &mut out).unwrap_err();
        assert!(matches!(err, EngineError::BadParam { .. }), "{err}");
        assert!(err.to_string().contains("thread count"), "{err}");
    }

    #[test]
    fn query_file_parsing() {
        let qs = parse_query_file("q", "# header\n0\n\n1,2\n 3 \n").unwrap();
        assert_eq!(qs, vec![vec![0], vec![1, 2], vec![3]]);
        let err = parse_query_file("q", "0\n1,1\n").unwrap_err().to_string();
        assert!(err.contains("q:2"), "line number in {err}");
        assert!(parse_query_file("q", "# only comments\n").is_err());
    }

    #[test]
    fn batch_end_to_end_on_demo() {
        let dir = std::env::temp_dir().join("dmcs_cli_batch");
        std::fs::create_dir_all(&dir).unwrap();
        let qfile = dir.join("queries.txt");
        std::fs::write(&qfile, "# three queries\n0\n33\n0,33\n").unwrap();
        let cfg = parse(&args(&format!(
            "--demo --queries {} --threads 2 --stats",
            qfile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("graph memory:"), "{text}");
        assert!(
            text.contains("batch: 3 queries, algo FPA, 2 threads"),
            "{text}"
        );
        // --stats adds a per-query goodness line in batch mode too.
        assert_eq!(text.matches("stats: conductance").count(), 3, "{text}");
        assert!(text.contains("query 0 [0]:"), "{text}");
        assert!(text.contains("query 2 [0, 33]:"), "{text}");
        assert!(text.contains("queries/sec"), "{text}");
        assert!(text.contains("ok 3/3"), "{text}");

        // Batch output is identical at any thread count.
        let strip_timings = |s: &str| -> String {
            s.lines()
                .filter(|l| l.starts_with("query"))
                .map(|l| l.split("  time =").next().unwrap().to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let cfg1 = CliConfig {
            threads: 1,
            ..cfg.clone()
        };
        let mut out1 = Vec::new();
        run(&cfg1, &mut out1).unwrap();
        assert_eq!(
            strip_timings(&text),
            strip_timings(&String::from_utf8(out1).unwrap())
        );
    }

    #[test]
    fn batch_json_output_is_valid_and_complete() {
        let dir = std::env::temp_dir().join("dmcs_cli_batch_json");
        std::fs::create_dir_all(&dir).unwrap();
        let qfile = dir.join("queries.txt");
        std::fs::write(&qfile, "0\n33\n0,33\n").unwrap();
        let cfg = parse(&args(&format!(
            "--demo --queries {} --threads 2 --format json",
            qfile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 responses + summary: {text}");
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
            if i < 3 {
                assert_eq!(v.get("type").unwrap().as_str(), Some("response"));
                assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
                assert_eq!(v.get("algo").unwrap().as_str(), Some("FPA"));
            } else {
                assert_eq!(v.get("type").unwrap().as_str(), Some("summary"));
                assert_eq!(v.get("queries").unwrap().as_f64(), Some(3.0));
                assert_eq!(v.get("ok").unwrap().as_f64(), Some(3.0));
            }
        }
        // The multi-node query echoes both ids.
        let q3 = Json::parse(lines[2]).unwrap();
        let ids: Vec<f64> = q3
            .get("query")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(ids, vec![0.0, 33.0]);
    }

    #[test]
    fn single_query_json_output() {
        let cfg = parse(&args("--demo --query 0 --format json"))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "exactly one JSON line: {text}");
        let v = Json::parse(text.trim()).unwrap();
        assert_eq!(v.get("algo").unwrap().as_str(), Some("FPA"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v.get("dm").unwrap().as_f64().unwrap().is_finite());
    }

    #[test]
    fn top_k_json_output_tags_rounds() {
        let cfg = parse(&args("--demo --query 0 --top-k 2 --format json"))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("tag").unwrap().as_str(), Some("round-1"));
    }

    #[test]
    fn batch_reports_per_query_errors_without_aborting() {
        let dir = std::env::temp_dir().join("dmcs_cli_batch_err");
        std::fs::create_dir_all(&dir).unwrap();
        // Two components: queries spanning them fail per-query.
        let gfile = dir.join("g.txt");
        std::fs::write(&gfile, "0 1\n1 2\n0 2\n5 6\n6 7\n5 7\n").unwrap();
        let qfile = dir.join("q.txt");
        std::fs::write(&qfile, "0\n0,5\n5\n").unwrap();
        let cfg = parse(&args(&format!(
            "--graph {} --queries {}",
            gfile.display(),
            qfile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("query 1 [0, 5]: error:"), "{text}");
        assert!(text.contains("ok 2/3"), "{text}");
    }

    #[test]
    fn batch_unknown_id_is_a_typed_unknown_node() {
        let dir = std::env::temp_dir().join("dmcs_cli_batch_badid");
        std::fs::create_dir_all(&dir).unwrap();
        let qfile = dir.join("q.txt");
        std::fs::write(&qfile, "0\n999\n").unwrap();
        let cfg = parse(&args(&format!("--demo --queries {}", qfile.display())))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        let err = run(&cfg, &mut out).unwrap_err();
        assert!(
            matches!(err, EngineError::UnknownNode { id: 999, .. }),
            "{err}"
        );
        assert_eq!(err.exit_code(), 5);
        // The error names the file and the (0-based) query index, matching
        // the per-query output lines of a successful batch.
        let text = err.to_string();
        assert!(text.contains("q.txt: query 1:"), "{text}");
        assert!(text.contains("999"), "{text}");
    }

    #[test]
    fn usage_lists_every_registered_algorithm_and_the_exit_codes() {
        let text = usage();
        for name in registry::names() {
            assert!(text.contains(name), "{name} missing from usage");
        }
        assert!(text.contains("EXIT CODES:"), "{text}");
        assert!(text.contains("--format"), "{text}");
    }

    #[test]
    fn all_algo_labels_resolve() {
        for name in [
            "fpa",
            "nca",
            "fpa-dmg",
            "nca-dr",
            "exact",
            "bnb",
            "kc",
            "kt",
            "kecc",
            "highcore",
            "hightruss",
            "ls",
            "lpa",
            "ppr",
        ] {
            let cfg = CliConfig {
                algo: name.into(),
                ..Default::default()
            };
            assert!(algo_spec(&cfg).build().is_ok(), "{name} should resolve");
        }
        let bad = CliConfig {
            algo: "zeus".into(),
            ..Default::default()
        };
        assert!(matches!(
            algo_spec(&bad).build(),
            Err(EngineError::UnknownAlgo { .. })
        ));
    }

    #[test]
    fn demo_end_to_end() {
        let cfg = parse(&args("--demo --query 0 --algo fpa --stats"))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("34 nodes, 78 edges"), "{text}");
        assert!(text.contains("FPA"));
        assert!(text.contains("conductance"));
    }

    #[test]
    fn file_end_to_end_with_sparse_ids() {
        // Two triangles with sparse original ids joined by a bridge.
        let dir = std::env::temp_dir().join("dmcs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        std::fs::write(
            &path,
            "# toy\n100 200\n200 300\n100 300\n300 4000\n4000 5000\n5000 6000\n4000 6000\n",
        )
        .unwrap();
        let cfg = parse(&args(&format!(
            "--graph {} --query 100 --algo nca",
            path.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("[100, 200, 300]"),
            "community reported in original ids: {text}"
        );

        // Batch mode maps ids through the same map and answers in file
        // ids too.
        let qfile = dir.join("toy_queries.txt");
        std::fs::write(&qfile, "100\n200,300\n").unwrap();
        let cfg = parse(&args(&format!(
            "--graph {} --queries {} --algo nca --format json",
            path.display(),
            qfile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let ids = |line: &str, key: &str| -> Vec<u64> {
            let v = Json::parse(line).unwrap();
            v.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap())
                .collect()
        };
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 responses + summary: {text}");
        assert_eq!(ids(lines[0], "query"), [100]);
        assert_eq!(ids(lines[1], "query"), [200, 300]);
        for line in &lines[..2] {
            assert_eq!(ids(line, "community"), [100, 200, 300], "{text}");
        }
    }

    #[test]
    fn flag_combination_rules() {
        assert!(parse(&args("--demo --query 0 --weighted --algo kc")).is_err());
        // --top-k routes through the registry now: it composes with
        // --weighted and any registered algorithm.
        assert!(parse(&args("--demo --query 0 --weighted --top-k 2")).is_ok());
        assert!(parse(&args("--demo --query 0 --top-k 2 --algo nca")).is_ok());
        assert!(parse(&args("--demo --query 0 --top-k 2")).is_ok());
        assert!(parse(&args("--graph g --query 0 --weighted --algo nca")).is_ok());
        // The demo graph is fine too.
        assert!(parse(&args("--demo --query 0 --weighted")).is_ok());
        // The weight-aware rejection names the supported labels.
        let err = parse(&args("--demo --query 0 --weighted --algo louvain"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("weight-aware: fpa, nca)"), "{err}");
        // An unknown label is deferred to run() for the exit-3 error.
        assert!(parse(&args("--demo --query 0 --weighted --algo zeus")).is_ok());
    }

    #[test]
    fn weighted_end_to_end() {
        let dir = std::env::temp_dir().join("dmcs_cli_weighted");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.txt");
        // Heavy triangle 1-2-3, light triangle 4-5-6, light bridge.
        std::fs::write(
            &path,
            "1 2 5.0\n2 3 5.0\n1 3 5.0\n4 5 1.0\n5 6 1.0\n4 6 1.0\n3 4 0.5\n",
        )
        .unwrap();
        let cfg = parse(&args(&format!(
            "--graph {} --query 1 --weighted --algo fpa",
            path.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("W-FPA"), "{text}");
        assert!(text.contains("total weight 18"), "{text}");
        assert!(text.contains("[1, 2, 3]"), "heavy triangle found: {text}");

        // The weighted path renders JSON too.
        let cfg_json = CliConfig {
            format: OutputFormat::Json,
            ..cfg
        };
        let mut out = Vec::new();
        run(&cfg_json, &mut out).unwrap();
        let v = Json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        assert_eq!(v.get("algo").unwrap().as_str(), Some("W-FPA"));
        let ids: Vec<f64> = v
            .get("community")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(ids, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn weighted_batch_end_to_end() {
        // --weighted + --queries + --threads + --format json: the full
        // serving stack (weighted fpa, sessions, dedup, cache) on a
        // weighted graph.
        let dir = std::env::temp_dir().join("dmcs_cli_weighted_batch");
        std::fs::create_dir_all(&dir).unwrap();
        let gfile = dir.join("w.txt");
        std::fs::write(
            &gfile,
            "1 2 5.0\n2 3 5.0\n1 3 5.0\n4 5 1.0\n5 6 1.0\n4 6 1.0\n3 4 0.5\n",
        )
        .unwrap();
        let qfile = dir.join("q.txt");
        // Four queries, one duplicate — dedup must fire.
        std::fs::write(&qfile, "1\n4\n1\n2,3\n").unwrap();
        let cfg = parse(&args(&format!(
            "--graph {} --weighted --queries {} --threads 2 --format json",
            gfile.display(),
            qfile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "4 responses + summary: {text}");
        assert_eq!(lines[0], lines[2], "deduped repeat answers identically");
        for line in &lines[..4] {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("algo").unwrap().as_str(), Some("W-FPA"), "{line}");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
        }
        // Query 1 lives in the heavy triangle.
        let first = Json::parse(lines[0]).unwrap();
        let comm: Vec<u64> = first
            .get("community")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(comm, vec![1, 2, 3]);
        let summary = Json::parse(lines[4]).unwrap();
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(summary.get("algo").unwrap().as_str(), Some("W-FPA"));
        assert_eq!(summary.get("weighted").unwrap().as_bool(), Some(true));
        assert_eq!(summary.get("unique").unwrap().as_u64(), Some(3), "{text}");

        // Text mode works too, with the weighted header.
        let cfg_text = CliConfig {
            format: OutputFormat::Text,
            ..cfg
        };
        let mut out = Vec::new();
        run(&cfg_text, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("total weight 18"), "{text}");
        assert!(
            text.contains("batch: 4 queries, algo W-FPA, 2 threads"),
            "{text}"
        );
        assert!(text.contains("ok 4/4"), "{text}");
    }

    #[test]
    fn weighted_updates_end_to_end_with_setw() {
        let dir = std::env::temp_dir().join("dmcs_cli_weighted_updates");
        std::fs::create_dir_all(&dir).unwrap();
        let gfile = dir.join("w.txt");
        // Heavy triangle 1-2-3, light triangle 4-5-6, light bridge 3-4.
        std::fs::write(
            &gfile,
            "1 2 5.0\n2 3 5.0\n1 3 5.0\n4 5 1.0\n5 6 1.0\n4 6 1.0\n3 4 0.5\n",
        )
        .unwrap();
        let ufile = dir.join("script.txt");
        // query; repeat (hit); weight-only update; re-query (recompute —
        // the massive bridge now pulls 3 into 4's community); weighted
        // add of a brand-new node.
        std::fs::write(
            &ufile,
            "query 4\nquery 4\nsetw 3 4 50.0\nquery 4\nadd 7 4 9.0\nquery 7\n",
        )
        .unwrap();
        let cfg = parse(&args(&format!(
            "--graph {} --weighted --updates {} --format json",
            gfile.display(),
            ufile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "4 responses + summary: {text}");
        assert_eq!(lines[0], lines[1], "repeat before setw: cache hit");
        assert_ne!(lines[1], lines[2], "weight change moved the epoch");
        let community = |line: &str| -> Vec<u64> {
            Json::parse(line)
                .unwrap()
                .get("community")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap())
                .collect()
        };
        assert!(
            community(lines[2]).contains(&3),
            "heavy bridge pulls 3 in: {text}"
        );
        assert!(
            community(lines[3]).contains(&7),
            "new weighted node: {text}"
        );
        let summary = Json::parse(lines[4]).unwrap();
        assert_eq!(summary.get("weighted").unwrap().as_bool(), Some(true));
        assert_eq!(summary.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(summary.get("cache_misses").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn weight_ops_on_unweighted_graphs_are_typed_errors() {
        let dir = std::env::temp_dir().join("dmcs_cli_weight_ops_err");
        std::fs::create_dir_all(&dir).unwrap();
        let run_script = |script: &str| -> EngineError {
            let ufile = dir.join("s.txt");
            std::fs::write(&ufile, script).unwrap();
            let cfg = parse(&args(&format!("--demo --updates {}", ufile.display())))
                .unwrap()
                .unwrap();
            run(&cfg, &mut Vec::new()).unwrap_err()
        };
        // setw without --weighted: BadUpdate (exit 7) naming the line.
        let err = run_script("query 0\nsetw 0 1 2.0\n");
        assert!(
            matches!(err, EngineError::BadUpdate { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("requires --weighted"), "{err}");
        assert_eq!(err.exit_code(), 7);
        // A weighted add without --weighted too.
        let err = run_script("add 0 9 2.5\n");
        assert!(
            matches!(err, EngineError::BadUpdate { line: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("requires --weighted"), "{err}");
        // setw on a missing edge of a weighted graph is the usual
        // does-not-exist BadUpdate (karate has no 0-9 edge; --demo
        // --weighted serves unit weights).
        let ufile = dir.join("s2.txt");
        std::fs::write(&ufile, "setw 0 9 2.0\n").unwrap();
        let cfg = parse(&args(&format!(
            "--demo --weighted --updates {}",
            ufile.display()
        )))
        .unwrap()
        .unwrap();
        let err = run(&cfg, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn demo_weighted_serves_unit_weights() {
        // --demo --weighted: unit lane, W-FPA, and the very line FPA
        // prints on the topology apart from `algo` and `seconds`.
        let line = |flags: &str| {
            let cfg = parse(&args(flags)).unwrap().unwrap();
            let mut out = Vec::new();
            run(&cfg, &mut out).unwrap();
            let line = String::from_utf8(out).unwrap().trim().to_string();
            // Zero the `seconds` value, which varies run to run.
            let at = line.find("\"seconds\":").unwrap() + "\"seconds\":".len();
            let end = at + line[at..].find([',', '}']).unwrap();
            format!("{}0{}", &line[..at], &line[end..])
        };
        let weighted = line("--demo --query 0 --weighted --format json");
        let plain = line("--demo --query 0 --format json");
        let v = Json::parse(&weighted).unwrap();
        assert_eq!(v.get("algo").unwrap().as_str(), Some("W-FPA"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            weighted.replacen("\"algo\":\"W-FPA\"", "\"algo\":\"FPA\"", 1),
            plain
        );
    }

    #[test]
    fn top_k_end_to_end_on_demo() {
        let cfg = parse(&args("--demo --query 0 --top-k 3")).unwrap().unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("FPA round 1"), "{text}");
        assert!(text.contains("search found"), "{text}");
    }

    #[test]
    fn updates_flag_rules() {
        assert!(parse(&args("--demo --updates u.txt")).is_ok());
        assert!(
            parse(&args("--graph g --updates u.txt --weighted")).is_ok(),
            "weighted live updates are first-class"
        );
        for bad in [
            "--demo --updates u.txt --query 1",
            "--demo --updates u.txt --queries q.txt",
            "--demo --updates u.txt --threads 2",
            "--demo --updates u.txt --stats",
            "--demo --updates u.txt --top-k 2",
            "--demo --updates u.txt --dot o.dot",
            "--demo --updates u.txt --plan off",
        ] {
            let err = parse(&args(bad)).unwrap_err();
            assert!(matches!(err, EngineError::BadParam { .. }), "{bad}: {err}");
        }
    }

    /// An expected script op: `action` on `u v`.
    fn mutate(action: Action, u: u64, v: u64) -> UpdateOp {
        UpdateOp::Mutate(Mutation::new(action, u, v, 0).unwrap())
    }

    #[test]
    fn update_script_parses_the_strict_grammar() {
        let ops = parse_update_script(
            "# warmup\nadd 7 9\n\ndel 7 9\nquery 0\n  query 1, 2  \nadd 100 0\n",
        )
        .unwrap();
        assert_eq!(
            ops,
            vec![
                (2, mutate(Action::Add(None), 7, 9)),
                (4, mutate(Action::Del, 7, 9)),
                (5, UpdateOp::Query(vec![0])),
                (6, UpdateOp::Query(vec![1, 2])),
                (7, mutate(Action::Add(None), 100, 0)),
            ]
        );
        assert!(parse_update_script("# only comments\n").unwrap().is_empty());
    }

    #[test]
    fn update_script_parses_the_weighted_grammar() {
        let ops = parse_update_script("add 7 9 2.5\nsetw 7 9 0.25\nadd 1 2\nquery 7\n").unwrap();
        assert_eq!(
            ops,
            vec![
                (1, mutate(Action::Add(Some(2.5)), 7, 9)),
                (2, mutate(Action::SetW(0.25), 7, 9)),
                (3, mutate(Action::Add(None), 1, 2)),
                (4, UpdateOp::Query(vec![7])),
            ]
        );
    }

    #[test]
    fn update_script_rejects_malformed_lines_with_line_numbers() {
        for (script, line, needle) in [
            ("add 1", 1, "missing v"),
            ("query 0\nadd 1 2 3 4", 2, "trailing token"),
            ("del 1 2 3", 1, "trailing token"),
            ("setw 1 2 3 4", 1, "trailing token"),
            ("add 1 x", 1, "bad node id \"x\""),
            ("add 4 4", 1, "self-loop"),
            ("del 4 4", 1, "self-loop"),
            ("add 1 2 x", 1, "bad weight \"x\""),
            ("add 1 2 0", 1, "finite and strictly positive"),
            ("add 1 2 -3", 1, "finite and strictly positive"),
            ("add 1 2 inf", 1, "finite and strictly positive"),
            ("setw 1 2", 1, "needs a weight"),
            ("setw 1 2 nan", 1, "finite and strictly positive"),
            ("query", 1, "at least one node id"),
            ("query 1,,2", 1, "empty query id"),
            ("query 1,1", 1, "duplicate query id"),
            ("swap 1 2", 1, "unknown op \"swap\""),
            ("# fine\n\nadd 0 1\nqueryx 2", 4, "unknown op \"queryx\""),
        ] {
            let err = parse_update_script(script).unwrap_err();
            match &err {
                EngineError::BadUpdate { line: l, reason } => {
                    assert_eq!(*l, line, "{script:?}: {err}");
                    assert!(reason.contains(needle), "{script:?}: {err}");
                }
                other => panic!("{script:?}: expected BadUpdate, got {other:?}"),
            }
            assert_eq!(err.exit_code(), 7, "{script:?}");
        }
    }

    #[test]
    fn updates_end_to_end_text_mode() {
        let dir = std::env::temp_dir().join("dmcs_cli_updates");
        std::fs::create_dir_all(&dir).unwrap();
        let ufile = dir.join("script.txt");
        // Karate has no 0-9 edge; 40/41 are brand-new nodes.
        std::fs::write(
            &ufile,
            "query 0\nquery 0\nadd 0 9\nquery 0\nquery 0\nadd 40 41\ndel 40 41\nquery 0\n",
        )
        .unwrap();
        let cfg = parse(&args(&format!("--demo --updates {}", ufile.display())))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("34 nodes, 78 edges"), "{text}");
        assert!(
            text.contains("update add 0 9: 34 nodes, 79 edges (version 1)"),
            "{text}"
        );
        assert!(
            text.contains("update add 40 41: 36 nodes, 80 edges (version 4)"),
            "{text}"
        );
        assert!(
            text.contains("update del 40 41: 36 nodes, 79 edges (version 5)"),
            "{text}"
        );
        // Query 1 repeats query 0 unchanged (hit); query 3 repeats after
        // an update (recomputed); query 4 repeats again (hit); query 5
        // runs after add+del restored nothing relevant — new version, so
        // recomputed.
        assert_eq!(text.matches("[cached]").count(), 2, "{text}");
        assert!(text.contains("cache: 2 hits, 3 misses"), "{text}");
        assert!(text.contains("ok 5/5"), "{text}");
    }

    #[test]
    fn updates_coalesce_mutations_into_one_rebuild_per_query() {
        let dir = std::env::temp_dir().join("dmcs_cli_updates_coalesce");
        std::fs::create_dir_all(&dir).unwrap();
        let ufile = dir.join("script.txt");
        // The run of three mutations between the queries must coalesce
        // into one snapshot rebuild (paid by the second query); the
        // trailing add never pays one. The first query reads the seed
        // snapshot adopted at load, which counts no rebuild at all.
        std::fs::write(
            &ufile,
            "query 0\nadd 0 9\nadd 9 10\ndel 0 9\nquery 0\nadd 26 27\n",
        )
        .unwrap();
        let cfg = parse(&args(&format!(
            "--demo --updates {} --format json",
            ufile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let summary = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(summary.get("type").and_then(Json::as_str), Some("summary"));
        assert_eq!(summary.get("shards").and_then(Json::as_u64), Some(16));
        assert_eq!(summary.get("rebuilds").and_then(Json::as_u64), Some(1));
        let rebuilt = summary
            .get("shards_rebuilt")
            .and_then(Json::as_u64)
            .unwrap();
        let reused = summary.get("shards_reused").and_then(Json::as_u64).unwrap();
        assert!((1..16).contains(&rebuilt), "incremental: {rebuilt}");
        assert_eq!(rebuilt + reused, 16, "one rebuild covers all shards");
        // A script answers its queries one by one and never asks the
        // planner, so its summary names no plan and no skew.
        assert_eq!((summary.get("plan"), summary.get("skew")), (None, None));
    }

    #[test]
    fn stats_prints_the_store_shard_line() {
        let cfg = parse(&args("--demo --query 0 --stats --shards 4"))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("store: 4 shards, 0 dirty"), "{text}");
        assert!(
            text.contains("rebuilds: 0 (0 shards rebuilt, 0 reused)"),
            "{text}"
        );
    }

    #[test]
    fn updates_json_repeats_are_byte_identical_until_an_update() {
        let dir = std::env::temp_dir().join("dmcs_cli_updates_json");
        std::fs::create_dir_all(&dir).unwrap();
        let ufile = dir.join("script.txt");
        std::fs::write(&ufile, "query 0\nquery 0\nadd 0 9\nquery 0\n").unwrap();
        let cfg = parse(&args(&format!(
            "--demo --updates {} --format json",
            ufile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 responses + summary: {text}");
        assert_eq!(
            lines[0], lines[1],
            "repeat with no update: byte-identical cache hit"
        );
        let summary = Json::parse(lines[3]).unwrap();
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(summary.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(summary.get("cache_misses").unwrap().as_u64(), Some(2));
        for line in &lines[..3] {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
            assert!(
                v.get("cached").is_none(),
                "no per-response cache marker in JSON"
            );
        }
    }

    #[test]
    fn updates_cache_hit_after_an_update_elsewhere_equals_a_fresh_search() {
        // Component A (nodes 0-8) and the path 100-…-113, whose ids sit in
        // other shards. Densifying the path never touches A's shards but
        // moves m from 28 to 83, and density modularity divides by m, so
        // A's answer changes: the repeat must not replay the old one.
        let dir = std::env::temp_dir().join("dmcs_cli_updates_elsewhere");
        std::fs::create_dir_all(&dir).unwrap();
        let component_a =
            "0 1\n0 2\n0 3\n1 2\n1 5\n1 8\n2 3\n3 4\n3 7\n4 5\n5 6\n5 7\n6 7\n6 8\n7 8\n";
        let path: String = (100..113).map(|i| format!("{i} {}\n", i + 1)).collect();
        let added: Vec<(u32, u32)> = (102..=113)
            .flat_map(|i| (i + 2..=113).map(move |j| (i, j)))
            .collect();
        assert_eq!(added.len(), 55);
        let pairs: String = added.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
        let adds: String = added
            .iter()
            .map(|(u, v)| format!("add {u} {v}\n"))
            .collect();
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.display().to_string()
        };
        let graph = write("r.txt", format!("{component_a}{path}"));
        let script = write("ru.txt", format!("query 0\n{adds}query 0\n"));
        let final_graph = write("final.txt", format!("{component_a}{path}{pairs}"));
        let run_json = |flags: String| -> Vec<Json> {
            let cfg = parse(&args(&flags)).unwrap().unwrap();
            let mut out = Vec::new();
            run(&cfg, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            text.lines().map(|l| Json::parse(l).unwrap()).collect()
        };
        // A response without its wall time, the one field a fresh run
        // cannot reproduce.
        let answer = |v: &Json| match v {
            Json::Obj(members) => members
                .iter()
                .filter(|(k, _)| k != "seconds")
                .cloned()
                .collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };

        let streamed = run_json(format!("--graph {graph} --updates {script} --format json"));
        let fresh = run_json(format!("--graph {final_graph} --query 0 --format json"));
        assert_eq!(streamed.len(), 3, "2 responses + summary");
        assert_eq!(answer(&streamed[1]), answer(&fresh[0]));
        assert_eq!(fresh[0].get("size").unwrap().as_u64(), Some(9));
        assert_eq!(streamed[2].get("cache_hits").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn updates_runtime_errors_are_bad_updates() {
        let dir = std::env::temp_dir().join("dmcs_cli_updates_err");
        std::fs::create_dir_all(&dir).unwrap();
        let run_script = |script: &str| -> EngineError {
            let ufile = dir.join("s.txt");
            std::fs::write(&ufile, script).unwrap();
            let cfg = parse(&args(&format!("--demo --updates {}", ufile.display())))
                .unwrap()
                .unwrap();
            run(&cfg, &mut Vec::new()).unwrap_err()
        };
        // Duplicate add: karate has the 0-1 edge.
        let err = run_script("add 0 1\n");
        assert!(
            matches!(err, EngineError::BadUpdate { line: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("already exists"), "{err}");
        // Deleting an absent edge.
        let err = run_script("query 0\ndel 0 9\n");
        assert!(
            matches!(err, EngineError::BadUpdate { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("does not exist"), "{err}");
        // Deleting around an unknown node.
        let err = run_script("del 999 0\n");
        assert!(err.to_string().contains("unknown node 999"), "{err}");
        // Querying an unknown node is the usual exit-5 UnknownNode with
        // file:line context.
        let err = run_script("add 0 9\nquery 777\n");
        assert!(
            matches!(err, EngineError::UnknownNode { id: 777, .. }),
            "{err}"
        );
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains(":2:"), "{err}");
        // An empty script is a BadParam naming the file.
        let err = run_script("# nothing\n");
        assert!(matches!(err, EngineError::BadParam { .. }), "{err}");
        assert!(err.to_string().contains("no operations"), "{err}");
    }

    #[test]
    fn updates_can_grow_a_community() {
        // Wire three new members into Mr. Hi's neighbourhood and watch
        // the answer change between pinned epochs.
        let dir = std::env::temp_dir().join("dmcs_cli_updates_grow");
        std::fs::create_dir_all(&dir).unwrap();
        let ufile = dir.join("grow.txt");
        std::fs::write(
            &ufile,
            "query 0\nadd 50 0\nadd 50 1\nadd 50 2\nadd 50 3\nquery 50\n",
        )
        .unwrap();
        let cfg = parse(&args(&format!(
            "--demo --updates {} --format json",
            ufile.display()
        )))
        .unwrap()
        .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let second = Json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(second.get("ok").unwrap().as_bool(), Some(true));
        let comm: Vec<u64> = second
            .get("community")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert!(comm.contains(&50), "new node joins its community: {text}");
    }

    #[test]
    fn dot_output_written() {
        let dir = std::env::temp_dir().join("dmcs_cli_dot");
        std::fs::create_dir_all(&dir).unwrap();
        let dot = dir.join("out.dot");
        let cfg = parse(&args(&format!("--demo --query 0 --dot {}", dot.display())))
            .unwrap()
            .unwrap();
        let mut out = Vec::new();
        run(&cfg, &mut out).unwrap();
        let text = std::fs::read_to_string(&dot).unwrap();
        assert!(text.starts_with("graph dmcs {"));
        assert!(text.contains("fillcolor=lightskyblue"));
    }
}
