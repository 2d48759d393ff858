//! Property test: the JSON-lines rendering of a real batch round-trips
//! through the parser back to exactly the communities (and error/tag
//! structure) of the in-memory [`BatchReport`] — i.e. the structured
//! output is a faithful, lossless view of what the engine computed.

use dmcs_engine::output::{report_jsonl, Json};
use dmcs_engine::{AlgoSpec, BatchRunner, QueryRequest};
use dmcs_gen::sbm;
use dmcs_graph::{NodeId, Snapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn json_lines_round_trip_the_batch_report(seed in 0u64..1000, threads in 1usize..4) {
        let (g, comms) = sbm::planted_partition(&[8, 8, 8], 0.7, 0.05, seed);
        // A mix of plain, tagged and failing requests, one per node
        // sample.
        let mut requests: Vec<QueryRequest> = (0..g.n() as NodeId)
            .step_by(3)
            .map(|v| QueryRequest::new(vec![v]))
            .collect();
        requests[1] = requests[1].clone().with_tag("tagged \"q\"");
        requests.push(QueryRequest::new(vec![comms[0][0], comms[1][0]]));

        // Synthetic original-id mapping (sparse, order-preserving).
        let original: Vec<u64> = (0..g.n() as u64).map(|v| v * 10 + 7).collect();

        let report = BatchRunner::new(AlgoSpec::new("fpa"), threads)
            .expect("registered")
            .run(&Snapshot::freeze(g), &requests)
            .expect("batch runs");
        let rendered = report_jsonl("FPA", false, &report, Some(&original));

        let lines: Vec<&str> = rendered.lines().collect();
        prop_assert_eq!(lines.len(), report.responses.len() + 1, "responses + summary");

        for (i, resp) in report.responses.iter().enumerate() {
            let v = Json::parse(lines[i]).expect("valid JSON line");
            prop_assert_eq!(v.get("type").unwrap().as_str(), Some("response"));
            prop_assert_eq!(v.get("algo").unwrap().as_str(), Some(resp.algo));
            match &resp.request.tag {
                Some(t) => prop_assert_eq!(v.get("tag").unwrap().as_str(), Some(t.as_str())),
                None => prop_assert_eq!(v.get("tag").unwrap(), &Json::Null),
            }
            prop_assert_eq!(v.get("ok").unwrap().as_bool(), Some(resp.is_ok()));
            match &resp.result {
                Ok(r) => {
                    // The communities must round-trip exactly (mapped to
                    // original ids, sorted).
                    let mut expected: Vec<u64> =
                        r.community.iter().map(|&n| original[n as usize]).collect();
                    expected.sort_unstable();
                    let got: Vec<u64> = v
                        .get("community")
                        .expect("community field")
                        .as_arr()
                        .expect("array")
                        .iter()
                        .map(|x| x.as_f64().unwrap() as u64)
                        .collect();
                    prop_assert_eq!(&got, &expected, "query {} community drifted", i);
                    prop_assert_eq!(
                        v.get("size").unwrap().as_f64(),
                        Some(r.community.len() as f64)
                    );
                    prop_assert_eq!(v.get("dm").unwrap().as_f64(), Some(r.density_modularity));
                }
                Err(e) => {
                    let msg = e.to_string();
                    prop_assert_eq!(v.get("error").unwrap().as_str(), Some(msg.as_str()));
                    prop_assert!(v.get("community").is_none());
                }
            }
        }

        let summary = Json::parse(lines[report.responses.len()]).expect("valid summary");
        prop_assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        prop_assert_eq!(summary.get("weighted").unwrap().as_bool(), Some(false));
        prop_assert_eq!(
            summary.get("queries").unwrap().as_f64(),
            Some(report.responses.len() as f64)
        );
        prop_assert_eq!(
            summary.get("ok").unwrap().as_f64(),
            Some(report.succeeded() as f64)
        );
    }
}
