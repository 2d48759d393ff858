//! The writer's bytes against an independent oracle: one `Json` value
//! tree per line shape (`response`, `topk`, `summary`), built member by
//! member and rendered by `Json::render`. Random inputs cover tags with
//! quotes, backslashes, control and non-ASCII characters; ids up to
//! `u64::MAX` under a shuffled original-id map, so a writer that skipped
//! the sort after mapping fails; NaN, ±inf, -0.0 and extreme floats;
//! every `SearchError` and empty communities; and summaries with and
//! without the store counters.

use dmcs_core::{SearchError, SearchResult};
use dmcs_engine::output::{Json, LineWriter, SummaryInput, PROTOCOL_VERSION, SERVER_ID};
use dmcs_engine::{BatchReport, QueryRequest, QueryResponse, TopKOutcome};
use dmcs_graph::{GraphError, NodeId, RebuildStats};
use proptest::prelude::TestRng;
use std::borrow::Cow;

const CASES: usize = 400;

// ---- the oracle: value trees, rendered by `Json::render` ----

fn typed(ty: &str, members: Vec<(&str, Json)>) -> Json {
    let mut all = vec![
        ("type".to_string(), Json::str(ty)),
        ("protocol_version".to_string(), Json::UInt(PROTOCOL_VERSION)),
        ("server".to_string(), Json::str(SERVER_ID)),
    ];
    all.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all)
}

fn sorted_ids(mut ids: Vec<u64>) -> Json {
    ids.sort_unstable();
    Json::Arr(ids.into_iter().map(Json::UInt).collect())
}

fn id_array(nodes: &[NodeId], original: Option<&[u64]>) -> Json {
    sorted_ids(
        nodes
            .iter()
            .map(|&v| original.map_or(v as u64, |o| o[v as usize]))
            .collect(),
    )
}

fn tag_json(tag: Option<&str>) -> Json {
    tag.map_or(Json::Null, Json::str)
}

fn oracle_response(resp: &QueryResponse, original: Option<&[u64]>) -> Json {
    let mut members = vec![
        ("tag", tag_json(resp.request.tag.as_deref())),
        ("algo", Json::str(resp.algo)),
        ("query", id_array(&resp.request.nodes, original)),
    ];
    match &resp.result {
        Ok(r) => members.extend([
            ("ok", Json::Bool(true)),
            ("size", Json::UInt(r.community.len() as u64)),
            ("dm", Json::Num(r.density_modularity)),
            ("iterations", Json::UInt(r.iterations as u64)),
            ("seconds", Json::Num(resp.seconds)),
            ("community", id_array(&r.community, original)),
        ]),
        Err(e) => members.extend([
            ("ok", Json::Bool(false)),
            ("error", Json::str(e.to_string())),
            ("seconds", Json::Num(resp.seconds)),
        ]),
    }
    typed("response", members)
}

/// The `topk` tree. Its query is the client's raw ids, sorted; the
/// writer maps the dense query back through `original` instead.
fn oracle_topk(
    outcome: &TopKOutcome,
    k: usize,
    tag: Option<&str>,
    query_raw: &[u64],
    original: &[u64],
) -> Json {
    let mut members = vec![
        ("tag", tag_json(tag)),
        ("algo", Json::str(outcome.algo)),
        ("query", sorted_ids(query_raw.to_vec())),
        ("k", Json::UInt(k as u64)),
    ];
    match &outcome.rounds {
        Ok(rounds) => {
            let rounds = rounds
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("size".to_string(), Json::UInt(r.community.len() as u64)),
                        ("dm".to_string(), Json::Num(r.density_modularity)),
                        ("iterations".to_string(), Json::UInt(r.iterations as u64)),
                        (
                            "community".to_string(),
                            id_array(&r.community, Some(original)),
                        ),
                    ])
                })
                .collect();
            members.extend([
                ("ok", Json::Bool(true)),
                ("seconds", Json::Num(outcome.seconds)),
                ("rounds", Json::Arr(rounds)),
            ]);
        }
        Err(e) => members.extend([
            ("ok", Json::Bool(false)),
            ("error", Json::str(e.to_string())),
            ("seconds", Json::Num(outcome.seconds)),
        ]),
    }
    typed("topk", members)
}

fn oracle_summary(algo: &str, weighted: bool, input: &SummaryInput) -> Json {
    let r = &input.report;
    let mut members = vec![
        ("algo", Json::str(algo)),
        ("weighted", Json::Bool(weighted)),
        ("queries", Json::UInt(input.queries as u64)),
        ("ok", Json::UInt(input.ok as u64)),
        ("wall_seconds", Json::Num(r.wall_seconds)),
        ("queries_per_sec", Json::Num(r.queries_per_sec)),
        ("p50_seconds", Json::Num(r.p50_seconds)),
        ("p95_seconds", Json::Num(r.p95_seconds)),
        ("unique", Json::UInt(r.unique_queries as u64)),
        ("cache_hits", Json::UInt(r.cache_hits as u64)),
        ("cache_misses", Json::UInt(r.cache_misses as u64)),
        ("groups", Json::UInt(r.groups as u64)),
        ("grouped_queries", Json::UInt(r.grouped_queries as u64)),
        ("shared_bfs_reuses", Json::UInt(r.shared_bfs_reuses)),
        ("plan", Json::str(r.plan)),
        ("mirror_served", Json::UInt(r.mirror_served)),
        ("skew", Json::Num(r.skew)),
    ];
    if let Some(rb) = &input.store {
        members.extend([
            ("shards", Json::UInt(rb.shards as u64)),
            ("rebuilds", Json::UInt(rb.rebuilds)),
            ("shards_rebuilt", Json::UInt(rb.shards_rebuilt)),
            ("shards_reused", Json::UInt(rb.shards_reused)),
        ]);
    }
    typed("summary", members)
}

// ---- random inputs ----

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.int_in(0, n as i128 - 1) as usize
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[below(rng, items.len())]
}

fn any_u64(rng: &mut TestRng) -> u64 {
    match below(rng, 4) {
        0 => pick(rng, &[0, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1]),
        1 => rng.int_in(0, 1000) as u64,
        _ => rng.int_in(0, u64::MAX as i128) as u64,
    }
}

fn any_f64(rng: &mut TestRng) -> f64 {
    match below(rng, 3) {
        0 => pick(
            rng,
            &[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                1e-300,
                1e300,
                -1e300,
                5e-324,
                f64::MAX,
                1.0,
                0.1,
            ],
        ),
        1 => rng.f64_unit() - 0.5,
        _ => (rng.f64_unit() - 0.5) * 10f64.powi(rng.int_in(-20, 20) as i32),
    }
}

fn any_text(rng: &mut TestRng) -> String {
    let pool = [
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}',
        'é', '社', '😀',
    ];
    (0..below(rng, 12)).map(|_| pick(rng, &pool)).collect()
}

fn any_tag(rng: &mut TestRng) -> Option<String> {
    (below(rng, 3) > 0).then(|| any_text(rng))
}

/// `n` distinct original ids, shuffled: mapping does not preserve order.
fn any_original(rng: &mut TestRng, n: usize) -> Vec<u64> {
    let mut ids = std::collections::BTreeSet::new();
    if below(rng, 2) == 0 {
        ids.insert(u64::MAX);
    }
    while ids.len() < n {
        ids.insert(any_u64(rng));
    }
    let mut ids: Vec<u64> = ids.into_iter().collect();
    for i in (1..ids.len()).rev() {
        let j = below(rng, i + 1);
        ids.swap(i, j);
    }
    ids
}

/// A random subset of `0..n` (possibly empty) in random order.
fn any_nodes(rng: &mut TestRng, n: usize, max: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..nodes.len()).rev() {
        let j = below(rng, i + 1);
        nodes.swap(i, j);
    }
    nodes.truncate(below(rng, max.min(n) + 1));
    nodes
}

fn any_error(rng: &mut TestRng) -> SearchError {
    match below(rng, 4) {
        0 => SearchError::EmptyQuery,
        1 => SearchError::Graph(GraphError::NodeOutOfRange(
            rng.int_in(0, u32::MAX as i128) as NodeId
        )),
        2 => SearchError::Graph(GraphError::QueryDisconnected),
        _ => SearchError::Graph(GraphError::NoFeasibleSolution(
            "no \"k-truss\" \\ holds\tthe query",
        )),
    }
}

fn any_result(rng: &mut TestRng, n: usize) -> SearchResult {
    SearchResult {
        community: any_nodes(rng, n, n),
        density_modularity: any_f64(rng),
        removal_order: vec![],
        iterations: below(rng, 100),
    }
}

fn any_summary(rng: &mut TestRng) -> SummaryInput<'static> {
    let report = BatchReport {
        responses: vec![],
        wall_seconds: any_f64(rng),
        queries_per_sec: any_f64(rng),
        p50_seconds: any_f64(rng),
        p95_seconds: any_f64(rng),
        unique_queries: below(rng, 5000),
        cache_hits: below(rng, 5000),
        cache_misses: below(rng, 5000),
        groups: below(rng, 50),
        grouped_queries: below(rng, 5000),
        shared_bfs_reuses: any_u64(rng),
        mirror_served: any_u64(rng),
        skew: any_f64(rng),
        plan: pick(
            rng,
            &["off", "auto:memo", "auto:grouped+memo", "auto:memo+mirror"],
        ),
    };
    let store = (below(rng, 2) == 0).then(|| RebuildStats {
        shards: below(rng, 64) + 1,
        rebuilds: any_u64(rng),
        shards_rebuilt: any_u64(rng),
        shards_reused: any_u64(rng),
        last_dirty_shards: below(rng, 64),
        last_rebuild_seconds: any_f64(rng),
    });
    SummaryInput {
        report: Cow::Owned(report),
        queries: below(rng, 5000),
        ok: below(rng, 5000),
        store,
    }
}

// ---- the comparisons ----

#[test]
fn response_lines_equal_the_oracle() {
    let mut rng = TestRng::for_test("response_lines_equal_the_oracle");
    // One writer and one buffer across all cases, as a stream uses them.
    let (mut writer, mut out) = (LineWriter::new(), String::new());
    for case in 0..CASES {
        let n = below(&mut rng, 40) + 1;
        let original = (below(&mut rng, 4) > 0).then(|| any_original(&mut rng, n));
        let mut request = QueryRequest::new(any_nodes(&mut rng, n, 3));
        request.tag = any_tag(&mut rng);
        let resp = QueryResponse {
            request,
            algo: pick(&mut rng, &["FPA", "W-FPA", "NCA"]),
            result: if below(&mut rng, 4) > 0 {
                Ok(any_result(&mut rng, n))
            } else {
                Err(any_error(&mut rng))
            },
            seconds: any_f64(&mut rng),
            cached: below(&mut rng, 2) == 0,
        };
        let original = original.as_deref();
        out.clear();
        writer.response(&mut out, &resp, original);
        let expected = oracle_response(&resp, original).render() + "\n";
        assert_eq!(out, expected, "case {case}: {resp:?}");
        // The parser reads the tag back exactly (escapes checked against
        // independent code).
        let parsed = Json::parse(out.trim_end()).expect("valid line");
        assert_eq!(
            parsed.get("tag").and_then(Json::as_str),
            resp.request.tag.as_deref(),
            "case {case}"
        );
    }
}

#[test]
fn topk_lines_equal_the_oracle() {
    let mut rng = TestRng::for_test("topk_lines_equal_the_oracle");
    let (mut writer, mut out) = (LineWriter::new(), String::new());
    for case in 0..CASES {
        let n = below(&mut rng, 40) + 1;
        let original = any_original(&mut rng, n);
        let query = any_nodes(&mut rng, n, 3);
        let query_raw: Vec<u64> = query.iter().map(|&v| original[v as usize]).collect();
        let outcome = TopKOutcome {
            algo: pick(&mut rng, &["FPA", "W-FPA"]),
            rounds: if below(&mut rng, 4) > 0 {
                Ok((0..below(&mut rng, 4))
                    .map(|_| any_result(&mut rng, n))
                    .collect())
            } else {
                Err(any_error(&mut rng))
            },
            seconds: any_f64(&mut rng),
            cached: false,
        };
        let k = below(&mut rng, 10);
        let tag = any_tag(&mut rng);
        out.clear();
        writer.topk(
            &mut out,
            &outcome,
            k,
            tag.as_deref(),
            &query,
            Some(&original),
        );
        let expected = oracle_topk(&outcome, k, tag.as_deref(), &query_raw, &original).render();
        assert_eq!(out, expected + "\n", "case {case}: {outcome:?}");
    }
}

#[test]
fn summary_lines_equal_the_oracle() {
    let mut rng = TestRng::for_test("summary_lines_equal_the_oracle");
    let (mut writer, mut out) = (LineWriter::new(), String::new());
    let mut with_store = 0;
    for case in 0..CASES {
        let input = any_summary(&mut rng);
        with_store += usize::from(input.store.is_some());
        let algo = pick(&mut rng, &["FPA", "W-NCA"]);
        let weighted = below(&mut rng, 2) == 0;
        let expected = oracle_summary(algo, weighted, &input).render() + "\n";
        out.clear();
        writer.summary(&mut out, algo, weighted, input);
        assert_eq!(out, expected, "case {case}");
    }
    assert!(
        with_store > 0 && with_store < CASES,
        "both summary shapes ran"
    );
}
