//! End-to-end tests of the compiled `dmcs` binary: spawn the real
//! executable (via `CARGO_BIN_EXE_dmcs`) and check stdout/stderr/exit
//! codes — the contract a shell user sees.

use std::process::Command;

fn dmcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmcs"))
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = dmcs().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE:"));
    assert!(text.contains("--algo"));
}

#[test]
fn demo_search_succeeds() {
    let out = dmcs()
        .args(["--demo", "--query", "0", "--algo", "fpa", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("34 nodes, 78 edges"), "{text}");
    assert!(text.contains("DM ="), "{text}");
    assert!(text.contains("conductance"), "{text}");
}

#[test]
fn every_cli_algorithm_answers_on_the_demo() {
    for algo in [
        "fpa",
        "nca",
        "fpa-dmg",
        "nca-dr",
        "kc",
        "kecc",
        "highcore",
        "hightruss",
        "ls",
        "lpa",
        "ppr",
        "kt",
    ] {
        let out = dmcs()
            .args(["--demo", "--query", "0", "--algo", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "algo {algo}: {:?}", out);
    }
    // The weighted searchers are the weight-aware labels under
    // --weighted (the demo graph gets unit weights).
    for algo in ["fpa", "nca"] {
        let out = dmcs()
            .args(["--demo", "--query", "0", "--weighted", "--algo", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "weighted {algo}: {:?}", out);
    }
    // The bitmask exact solver refuses the 34-node component with a
    // clean error.
    let out = dmcs()
        .args(["--demo", "--query", "0", "--algo", "exact"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "bitmask must refuse 34 nodes");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:"), "{err}");
    // Both exact solvers handle a small file graph (two triangles; a
    // 34-node Karate run would take minutes in debug builds).
    let dir = std::env::temp_dir().join("dmcs_bin_exact");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("barbell.txt");
    std::fs::write(&path, "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n").unwrap();
    for algo in ["exact", "bnb"] {
        let out = dmcs()
            .args([
                "--graph",
                path.to_str().unwrap(),
                "--query",
                "0",
                "--algo",
                algo,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "algo {algo}: {:?}", out);
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("[0, 1, 2]"), "algo {algo}: {text}");
    }
}

#[test]
fn no_args_exit_2_with_usage() {
    // Bare invocation: a graph source is required, so the binary must
    // point at the usage text and exit 2 (flag error), not crash.
    let out = dmcs().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE:"), "{err}");
    assert!(err.contains("--graph or --demo"), "{err}");
}

#[test]
fn figure1_query_over_edge_list() {
    // One real query over the paper's Figure 1 toy graph, exercising the
    // whole pipeline: edge-list load → FPA search → stats report.
    let g = dmcs::gen::toy::figure1();
    let mut edge_list = String::new();
    for (u, v) in g.edges() {
        edge_list.push_str(&format!("{u} {v}\n"));
    }
    let dir = std::env::temp_dir().join("dmcs_bin_fig1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1.txt");
    std::fs::write(&path, edge_list).unwrap();

    let out = dmcs()
        .args([
            "--graph",
            path.to_str().unwrap(),
            "--query",
            "0",
            "--algo",
            "fpa",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("graph: 28 nodes, 26 edges"), "{text}");
    assert!(text.contains("DM ="), "{text}");
    assert!(text.contains("conductance"), "{text}");
    // The reported community must include the query node 0.
    assert!(text.contains('0'), "{text}");
}

#[test]
fn bad_flags_exit_2_with_usage() {
    let out = dmcs().args(["--nonsense"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE:"));
}

#[test]
fn missing_file_exits_4() {
    // I/O failures map to exit code 4 in the EngineError taxonomy.
    let out = dmcs()
        .args(["--graph", "/definitely/not/here.txt", "--query", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot access"), "{err}");
}

#[test]
fn unknown_algo_exits_3_with_suggestion_and_names() {
    // The documented exit code for an unregistered --algo label is 3,
    // and stderr names the nearest registered label plus the full list.
    let out = dmcs()
        .args(["--demo", "--query", "0", "--algo", "fpa-dgm"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown algorithm \"fpa-dgm\""), "{err}");
    assert!(err.contains("did you mean \"fpa-dmg\"?"), "{err}");
    assert!(err.contains("valid: fpa, nca"), "{err}");
}

#[test]
fn search_failure_exits_6() {
    // The bitmask exact solver refuses the 34-node Karate component:
    // a search failure, exit code 6.
    let out = dmcs()
        .args(["--demo", "--query", "0", "--algo", "exact"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6));
}

#[test]
fn unknown_query_node_exits_5() {
    let out = dmcs().args(["--demo", "--query", "999"]).output().unwrap();
    assert_eq!(out.status.code(), Some(5));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("query node 999"), "{err}");
}

/// Validate a blob of `--format json` (or `dmcs serve` wire) output:
/// every line parses as a JSON object carrying the protocol fields
/// (`protocol_version`, `server`), all lines precede exactly one
/// mandatory summary line, and the counts agree. Used directly on live
/// runs below and by the CI smoke steps (which pipe a file in via
/// `DMCS_JSON_FILE`).
fn validate_jsonl(text: &str) {
    use dmcs::engine::output::Json;
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "no output");
    let mut responses = 0usize;
    let mut ok = 0usize;
    let mut saw_summary = false;
    for (i, line) in lines.iter().enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid: {e}\n{line}"));
        // Wire versioning is part of every line of the schema.
        assert_eq!(
            v.get("protocol_version").and_then(|p| p.as_u64()),
            Some(1),
            "line {i}: protocol_version must be 1\n{line}"
        );
        let server = v
            .get("server")
            .and_then(|s| s.as_str())
            .unwrap_or_else(|| panic!("line {i}: missing server field\n{line}"));
        assert!(server.starts_with("dmcs/"), "line {i}: server {server:?}");
        assert!(!saw_summary, "line {i}: nothing may follow the summary");
        match v.get("type").and_then(|t| t.as_str()) {
            Some("response") => {
                responses += 1;
                if v.get("ok").unwrap().as_bool() == Some(true) {
                    ok += 1;
                    assert!(v.get("community").unwrap().as_arr().is_some());
                } else {
                    assert!(v.get("error").unwrap().as_str().is_some());
                }
            }
            // Wire-protocol lines of `dmcs serve` (the daemon smoke
            // pipes a connection transcript through this validator).
            Some("topk") => {
                if v.get("ok").unwrap().as_bool() == Some(true) {
                    assert!(v.get("rounds").unwrap().as_arr().is_some());
                }
            }
            Some("update") => {
                assert!(v.get("version").unwrap().as_u64().is_some());
            }
            Some("repin") => {
                assert!(v.get("version").unwrap().as_u64().is_some());
            }
            Some("stats") => {
                assert!(v.get("cache_hits").unwrap().as_u64().is_some());
                assert!(v.get("cache_misses").unwrap().as_u64().is_some());
                // Sharded-store counters are part of the stats schema.
                let shards = v.get("shards").expect("stats.shards").as_u64().unwrap();
                assert!(shards >= 1, "line {i}: shards {shards}");
                assert!(v.get("dirty_shards").unwrap().as_u64().is_some());
                let rebuilds = v.get("rebuilds").expect("stats.rebuilds").as_u64().unwrap();
                let rebuilt = v
                    .get("shards_rebuilt")
                    .expect("stats.shards_rebuilt")
                    .as_u64()
                    .unwrap();
                assert!(
                    rebuilt <= rebuilds * shards,
                    "line {i}: {rebuilt} shards rebuilt over {rebuilds} rebuilds x {shards}"
                );
                assert!(v.get("last_dirty_shards").unwrap().as_u64().is_some());
                assert!(v.get("last_rebuild_seconds").unwrap().as_f64().is_some());
                // The daemon reports how many of this connection's
                // queries ran on the compute mirror.
                assert!(
                    v.get("mirror_served")
                        .expect("stats.mirror_served")
                        .as_u64()
                        .is_some(),
                    "stats.mirror_served must be an integer"
                );
            }
            Some("shutdown") => {
                assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
            }
            Some("error") => {
                let code = v.get("code").unwrap().as_u64().unwrap();
                assert!((2..=9).contains(&code), "line {i}: wire code {code}");
                assert!(v.get("line").unwrap().as_u64().is_some());
            }
            Some("summary") => {
                assert_eq!(i, lines.len() - 1, "summary must be the last line");
                assert_eq!(v.get("queries").unwrap().as_u64(), Some(responses as u64));
                assert_eq!(v.get("ok").unwrap().as_u64(), Some(ok as u64));
                // Weightedness is part of the schema: always present.
                assert!(
                    v.get("weighted").expect("weighted").as_bool().is_some(),
                    "summary.weighted must be a bool"
                );
                // The cache/dedup counters are part of the schema: always
                // present, and they never exceed the query count.
                let hits = v.get("cache_hits").expect("cache_hits").as_u64().unwrap();
                let misses = v
                    .get("cache_misses")
                    .expect("cache_misses")
                    .as_u64()
                    .unwrap();
                let unique = v.get("unique").expect("unique").as_u64().unwrap();
                assert!(hits + misses <= responses as u64, "{hits}+{misses}");
                assert!(unique <= responses as u64);
                // Scheduling counters are part of the schema: groups and
                // grouped_queries are 0 on ungrouped runs, and a group
                // is never empty.
                let groups = v.get("groups").expect("groups").as_u64().unwrap();
                let grouped = v
                    .get("grouped_queries")
                    .expect("grouped_queries")
                    .as_u64()
                    .unwrap();
                assert!(groups <= grouped, "line {i}: {groups} groups > {grouped}");
                assert!(grouped <= responses as u64);
                let reuses = v
                    .get("shared_bfs_reuses")
                    .expect("shared_bfs_reuses")
                    .as_u64()
                    .unwrap();
                assert!(reuses <= unique, "line {i}: {reuses} reuses > {unique}");
                // A batch names its plan and the skew the planner
                // weighed; a query stream, which nothing plans, names
                // neither.
                match (v.get("plan"), v.get("skew")) {
                    (Some(plan), Some(skew)) => {
                        assert!(plan.as_str().is_some(), "summary.plan must be a string");
                        let skew = skew.as_f64().unwrap();
                        assert!((0.0..=1.0).contains(&skew), "line {i}: skew {skew}");
                    }
                    (None, None) => {}
                    _ => panic!("line {i}: plan and skew come together or not at all\n{line}"),
                }
                // Mirror serving is part of the schema: the count never
                // exceeds the executed queries.
                let mirrored = v
                    .get("mirror_served")
                    .expect("mirror_served")
                    .as_u64()
                    .unwrap();
                assert!(
                    mirrored <= responses as u64,
                    "line {i}: {mirrored} mirror-served > {responses}"
                );
                // `--updates` summaries also carry the store's rebuild
                // counters; when present they must satisfy the sharding
                // invariant (every rebuild counts every shard, as either
                // moved or unmoved since the previous snapshot).
                if let Some(shards) = v.get("shards").and_then(|s| s.as_u64()) {
                    assert!(shards >= 1, "line {i}: shards {shards}");
                    let rebuilds = v.get("rebuilds").expect("rebuilds").as_u64().unwrap();
                    let rebuilt = v
                        .get("shards_rebuilt")
                        .expect("shards_rebuilt")
                        .as_u64()
                        .unwrap();
                    let reused = v
                        .get("shards_reused")
                        .expect("shards_reused")
                        .as_u64()
                        .unwrap();
                    assert_eq!(
                        rebuilt + reused,
                        rebuilds * shards,
                        "line {i}: rebuild counters inconsistent"
                    );
                }
                saw_summary = true;
            }
            other => panic!("line {i}: unexpected type {other:?}"),
        }
    }
    assert!(saw_summary, "output must end with a summary line");
}

#[test]
fn json_smoke() {
    // CI pipes the compiled binary's output through this validator via
    // DMCS_JSON_FILE; locally the test spawns the binary itself.
    if let Ok(path) = std::env::var("DMCS_JSON_FILE") {
        validate_jsonl(&std::fs::read_to_string(&path).unwrap());
        return;
    }
    let dir = std::env::temp_dir().join("dmcs_bin_json");
    std::fs::create_dir_all(&dir).unwrap();
    let qfile = dir.join("q.txt");
    std::fs::write(&qfile, "0\n33\n0,33\n").unwrap();
    let out = dmcs()
        .args([
            "--demo",
            "--queries",
            qfile.to_str().unwrap(),
            "--threads",
            "2",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    validate_jsonl(&text);
    assert_eq!(text.lines().count(), 4, "3 responses + summary");
    // Only a batch plans: its summary names the plan and the skew.
    let summary = text.lines().last().unwrap();
    assert!(summary.contains("\"plan\":\"auto:memo\""), "{summary}");
    assert!(summary.contains("\"skew\":1"), "{summary}");
}

#[test]
fn malformed_update_line_exits_7() {
    // Satellite contract: a bad --updates line is a BadUpdate with its
    // own documented exit code, naming the 1-based line.
    let dir = std::env::temp_dir().join("dmcs_bin_bad_update");
    std::fs::create_dir_all(&dir).unwrap();
    let ufile = dir.join("bad.txt");
    std::fs::write(&ufile, "query 0\nadd 1 2 3 4\n").unwrap();
    let out = dmcs()
        .args(["--demo", "--updates", ufile.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("update script line 2"), "{err}");
    assert!(err.contains("trailing token"), "{err}");
}

#[test]
fn weight_op_without_weighted_flag_exits_7() {
    // `add u v w` / `setw u v w` are grammar-valid but need a weighted
    // graph: on an unweighted run they are typed BadUpdate errors with
    // the documented exit code, naming the line and the fix.
    let dir = std::env::temp_dir().join("dmcs_bin_weight_op");
    std::fs::create_dir_all(&dir).unwrap();
    let ufile = dir.join("setw.txt");
    std::fs::write(&ufile, "query 0\nsetw 0 1 2.5\n").unwrap();
    let out = dmcs()
        .args(["--demo", "--updates", ufile.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("update script line 2"), "{err}");
    assert!(err.contains("requires --weighted"), "{err}");
}

#[test]
fn updates_json_smoke() {
    // A full mutate → snapshot → query → cache-invalidate cycle through
    // the compiled binary, validated like any batch JSON output.
    let dir = std::env::temp_dir().join("dmcs_bin_updates");
    std::fs::create_dir_all(&dir).unwrap();
    let ufile = dir.join("script.txt");
    std::fs::write(&ufile, "query 0\nquery 0\nadd 0 9\nquery 0\nquery 0\n").unwrap();
    let out = dmcs()
        .args([
            "--demo",
            "--updates",
            ufile.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    validate_jsonl(&text);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "4 responses + summary: {text}");
    assert_eq!(lines[0], lines[1], "pre-update repeat: byte-identical");
    assert_eq!(lines[2], lines[3], "post-update repeat: byte-identical");
    assert_ne!(
        lines[1], lines[2],
        "the update changed the epoch (timings recomputed at minimum)"
    );
    let summary = text.lines().last().unwrap();
    assert!(summary.contains("\"cache_hits\":2"), "{summary}");
    assert!(summary.contains("\"cache_misses\":2"), "{summary}");
    // The one mutation burst cost exactly one snapshot rebuild on the
    // default 16-shard layout (the seed snapshot is adopted, not built).
    assert!(summary.contains("\"shards\":16"), "{summary}");
    assert!(summary.contains("\"rebuilds\":1"), "{summary}");
    // A script never plans: no plan or skew in its summary.
    assert!(!summary.contains("\"plan\""), "{summary}");
    assert!(!summary.contains("\"skew\""), "{summary}");
}

#[test]
fn weighted_batch_json_smoke() {
    // The acceptance path of the weighted serving stack: --weighted
    // --queries --threads 2 --format json through the compiled binary,
    // with registry-resolved W-FPA and dedup/cache counters visible.
    let dir = std::env::temp_dir().join("dmcs_bin_weighted_batch");
    std::fs::create_dir_all(&dir).unwrap();
    let gfile = dir.join("w.txt");
    std::fs::write(
        &gfile,
        "1 2 5.0\n2 3 5.0\n1 3 5.0\n4 5 1.0\n5 6 1.0\n4 6 1.0\n3 4 0.5\n",
    )
    .unwrap();
    let qfile = dir.join("q.txt");
    std::fs::write(&qfile, "1\n4\n1\n").unwrap();
    let out = dmcs()
        .args([
            "--graph",
            gfile.to_str().unwrap(),
            "--weighted",
            "--queries",
            qfile.to_str().unwrap(),
            "--threads",
            "2",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    validate_jsonl(&text);
    assert!(text.contains("\"algo\":\"W-FPA\""), "{text}");
    assert!(text.contains("\"weighted\":true"), "{text}");
    assert!(text.contains("\"unique\":2"), "dedup fired: {text}");
}

#[test]
fn weighted_graph_load_errors_exit_4_with_line_numbers() {
    // The strict weighted reader's typed errors surface as exit-4 I/O
    // failures naming the offending line.
    let dir = std::env::temp_dir().join("dmcs_bin_weighted_badfile");
    std::fs::create_dir_all(&dir).unwrap();
    let gfile = dir.join("bad.txt");
    std::fs::write(&gfile, "1 2 5.0\n2 3\n").unwrap();
    let out = dmcs()
        .args([
            "--graph",
            gfile.to_str().unwrap(),
            "--weighted",
            "--query",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("missing weight"), "{err}");
}

#[test]
fn top_k_and_dot_flow() {
    let dir = std::env::temp_dir().join("dmcs_bin_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("demo.dot");
    let out = dmcs()
        .args([
            "--demo",
            "--query",
            "0",
            "--top-k",
            "2",
            "--dot",
            dot.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("FPA round 1"), "{text}");
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("graph dmcs {"));
}

#[test]
fn weighted_top_k_composes() {
    // --top-k used to be fpa-only and unweighted-only; it now routes
    // through the registry like every other query.
    let out = dmcs()
        .args(["--demo", "--query", "0", "--top-k", "2", "--weighted"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("W-FPA round 1"), "{text}");
}

#[cfg(unix)]
#[test]
fn serve_smoke_over_a_unix_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("dmcs-bin-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut daemon = dmcs()
        .args(["serve", "--demo", "--unix", path.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Wait for the listener (the daemon prints its banner after bind).
    let mut waited = 0;
    while !path.exists() {
        assert!(waited < 5_000, "daemon never bound {path:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
        waited += 20;
    }

    let stream = UnixStream::connect(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let mut transcript = String::new();
    for req in [
        r#"{"op":"query","nodes":[0],"tag":"smoke"}"#,
        r#"{"op":"query","nodes":[0],"k":2}"#,
        r#"{"op":"update","action":"add","u":0,"v":9}"#,
        r#"{"op":"repin"}"#,
        r#"{"op":"nope"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"shutdown"}"#,
    ] {
        writeln!(stream, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        transcript.push_str(&line);
    }
    // The closing summary line arrives before EOF.
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    transcript.push_str(&line);
    // The whole wire transcript passes the schema validator.
    validate_jsonl(&transcript);
    assert!(transcript.contains("\"type\":\"topk\""), "{transcript}");
    assert!(transcript.contains("\"code\":9"), "{transcript}");
    // A connection never plans: neither `stats` nor its summary names a
    // plan or a skew.
    assert!(!transcript.contains("\"plan\""), "{transcript}");
    assert!(!transcript.contains("\"skew\""), "{transcript}");

    // Clean exit after drain, and the socket file is gone.
    let status = daemon.wait().unwrap();
    assert_eq!(status.code(), Some(0));
    assert!(!path.exists(), "socket file unlinked on shutdown");
    let mut banner = String::new();
    std::io::Read::read_to_string(daemon.stdout.as_mut().unwrap(), &mut banner).unwrap();
    assert!(banner.contains("listening on unix socket"), "{banner}");
    assert!(banner.contains("drained:"), "{banner}");
}

#[cfg(unix)]
#[test]
fn serve_drains_on_sigterm() {
    use std::io::{BufRead, BufReader, Read};
    use std::time::{Duration, Instant};

    let path = std::env::temp_dir().join(format!("dmcs-bin-term-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut daemon = dmcs()
        .args(["serve", "--demo", "--unix", path.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The banner follows the SIGTERM handler's installation.
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut banner = String::new();
    while !banner.contains("listening on unix socket") {
        assert_ne!(stdout.read_line(&mut banner).unwrap(), 0, "{banner}");
    }

    // An idle daemon: no connection ever arrives.
    let sent = Instant::now();
    let kill = std::process::Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if sent.elapsed() > Duration::from_secs(2) {
            let _ = daemon.kill();
            panic!("no exit within 2 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(0), "{status:?}");
    stdout.read_to_string(&mut banner).unwrap();
    assert!(banner.contains("drained: 0 connections"), "{banner}");
    assert!(!path.exists(), "socket file unlinked on SIGTERM");
}

#[cfg(unix)]
#[test]
fn serve_overload_wire_code_8() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("dmcs-bin-cap0-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut daemon = dmcs()
        .args([
            "serve",
            "--demo",
            "--unix",
            path.to_str().unwrap(),
            "--queue-cap",
            "0",
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut waited = 0;
    while !path.exists() {
        assert!(waited < 5_000, "daemon never bound {path:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
        waited += 20;
    }

    let stream = UnixStream::connect(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    writeln!(stream, r#"{{"op":"query","nodes":[0]}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"code\":8"), "{line}");
    assert!(line.contains("overloaded"), "{line}");
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
}

#[test]
fn serve_without_listeners_exits_2() {
    let out = dmcs().args(["serve", "--demo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("at least one listener"), "{err}");
    assert!(err.contains("dmcs serve"), "serve usage on stderr: {err}");
}

#[test]
fn serve_help_documents_the_wire_protocol() {
    let out = dmcs().args(["serve", "--help"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "--unix",
        "--tcp",
        "--queue-cap",
        "\"op\":\"query\"",
        "repin",
    ] {
        assert!(text.contains(needle), "missing {needle}: {text}");
    }
}
