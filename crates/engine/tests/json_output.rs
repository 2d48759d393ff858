//! Golden-file test for the JSON-lines rendering: a hand-constructed
//! [`BatchReport`] (fixed timings, so the output is byte-stable) must
//! render exactly the checked-in `tests/golden/batch_report.jsonl`.
//! Guards the schema the bench harness and external consumers parse —
//! a field rename or reorder fails this test, not a downstream script.

use dmcs_core::{SearchError, SearchResult};
use dmcs_engine::output::{report_jsonl, response_json, Json};
use dmcs_engine::{BatchReport, QueryRequest, QueryResponse};
use dmcs_graph::GraphError;

fn ok_result(community: Vec<u32>, dm: f64, iterations: usize) -> Result<SearchResult, SearchError> {
    Ok(SearchResult {
        community,
        density_modularity: dm,
        removal_order: vec![],
        iterations,
    })
}

/// The fixture: two successes (one tagged and answered by another
/// algorithm) and one per-query failure, with power-of-two timings so
/// float rendering is exact on every platform.
fn fixed_report() -> BatchReport {
    let responses = vec![
        QueryResponse {
            request: QueryRequest::new(vec![0]),
            algo: "FPA",
            result: ok_result(vec![0, 1, 2], 0.5, 3),
            seconds: 0.015625,
            cached: false,
        },
        QueryResponse {
            request: QueryRequest::new(vec![5, 3]).with_tag("vip"),
            algo: "NCA",
            result: ok_result(vec![3, 4, 5], 0.25, 1),
            seconds: 0.5,
            cached: true, // cached responses render identically
        },
        QueryResponse {
            request: QueryRequest::new(vec![0, 3]),
            algo: "FPA",
            result: Err(SearchError::Graph(GraphError::QueryDisconnected)),
            seconds: 0.125,
            cached: false,
        },
    ];
    BatchReport {
        responses,
        wall_seconds: 0.75,
        queries_per_sec: 4.0,
        p50_seconds: 0.125,
        p95_seconds: 0.5,
        unique_queries: 3,
        cache_hits: 1,
        cache_misses: 2,
        groups: 2,
        grouped_queries: 3,
        shared_bfs_reuses: 1,
        mirror_served: 2,
        skew: 0.5,
        plan: "auto:grouped+memo",
    }
}

#[test]
fn report_matches_the_golden_file() {
    let rendered = report_jsonl("FPA", false, &fixed_report(), None);
    let golden = include_str!("golden/batch_report.jsonl");
    assert_eq!(
        rendered, golden,
        "JSON-lines schema drifted from tests/golden/batch_report.jsonl; \
         update the golden file only on a deliberate schema change"
    );
}

#[test]
fn every_golden_line_is_valid_json() {
    for (i, line) in include_str!("golden/batch_report.jsonl")
        .lines()
        .enumerate()
    {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("golden line {i}: {e}"));
        let ty = v.get("type").and_then(|t| t.as_str()).expect("type field");
        assert!(matches!(ty, "response" | "summary"), "line {i}: {ty}");
        assert_eq!(
            v.get("protocol_version").and_then(|p| p.as_u64()),
            Some(dmcs_engine::output::PROTOCOL_VERSION),
            "line {i}: protocol_version"
        );
        assert_eq!(
            v.get("server").and_then(|s| s.as_str()),
            Some(dmcs_engine::output::SERVER_ID),
            "line {i}: server"
        );
    }
}

#[test]
fn id_mapping_rewrites_query_and_community() {
    let original: Vec<u64> = vec![100, 200, 300, 4000, 5000, 6000];
    let resp = &fixed_report().responses[0];
    let v = Json::parse(&response_json(resp, Some(&original)).render()).unwrap();
    let ids = |key: &str| -> Vec<u64> {
        v.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap() as u64)
            .collect()
    };
    assert_eq!(ids("query"), vec![100]);
    assert_eq!(ids("community"), vec![100, 200, 300]);
}
