//! The exact error text of every flag-level mistake under both
//! grammars of the command line: `dmcs …` ([`parse`]) and
//! `dmcs serve …` ([`parse_serve`]). Each row is an argument line and
//! the message `main` prints after `error:` (exit code 2). The rows
//! cover every flag of the other grammar, every bad or missing value,
//! every mutually exclusive pair and mode rule, and lines with several
//! mistakes, which pin the order in which errors are reported.

use dmcs::cli::{parse, parse_serve};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// `dmcs <args>`: the error each line is rejected with.
const RUN: &[(&str, &str)] = &[
    // Flags of the serve grammar, and words of neither.
    (
        "--demo --query 0 --unix d.sock",
        "unknown argument \"--unix\"",
    ),
    (
        "--demo --query 0 --tcp 127.0.0.1:0",
        "unknown argument \"--tcp\"",
    ),
    (
        "--demo --query 0 --queue-cap 4",
        "unknown argument \"--queue-cap\"",
    ),
    (
        "--demo --query 0 --max-line-bytes 64",
        "unknown argument \"--max-line-bytes\"",
    ),
    ("--demo --query 0 --wat", "unknown argument \"--wat\""),
    ("--demo --query 0 serve", "unknown argument \"serve\""),
    // Bad values.
    ("--demo --query x", "bad query id \"x\""),
    (
        "--demo --query 1,,2",
        "empty query id in \"1,,2\" (trailing or doubled comma?)",
    ),
    (
        "--demo --query 1,2,",
        "empty query id in \"1,2,\" (trailing or doubled comma?)",
    ),
    ("--demo --query 1,1", "duplicate query id 1"),
    ("--demo --queries q.txt --threads x", "bad --threads value"),
    ("--demo --queries q.txt --threads -1", "bad --threads value"),
    (
        "--demo --query 0 --format yaml",
        "bad --format \"yaml\" (expected text or json)",
    ),
    ("--demo --query 0 --k nope", "bad --k value"),
    ("--demo --query 0 --k -1", "bad --k value"),
    ("--demo --query 0 --max-print x", "bad --max-print value"),
    ("--demo --query 0 --top-k x", "bad --top-k value"),
    ("--demo --query 0 --shards x", "bad --shards value"),
    ("--demo --query 0 --shards 0", "--shards must be at least 1"),
    (
        "--demo --query 0 --plan sometimes",
        "bad --plan value: unknown plan mode 'sometimes' (expected auto|off)",
    ),
    (
        "--demo --query 0 --layout rcm",
        "bad --layout value: unknown layout policy 'rcm' (expected identity or bfs)",
    ),
    // A flag missing its value.
    ("--demo --query 0 --graph", "--graph needs a value"),
    ("--demo --query", "--query needs a value"),
    ("--demo --queries", "--queries needs a value"),
    ("--demo --updates", "--updates needs a value"),
    (
        "--demo --queries q.txt --threads",
        "--threads needs a value",
    ),
    ("--demo --query 0 --format", "--format needs a value"),
    ("--demo --query 0 --algo", "--algo needs a value"),
    ("--demo --query 0 --k", "--k needs a value"),
    ("--demo --query 0 --max-print", "--max-print needs a value"),
    ("--demo --query 0 --top-k", "--top-k needs a value"),
    ("--demo --query 0 --dot", "--dot needs a value"),
    ("--demo --query 0 --shards", "--shards needs a value"),
    ("--demo --query 0 --plan", "--plan needs a value"),
    ("--demo --query 0 --layout", "--layout needs a value"),
    // Mutually exclusive flags and mode rules.
    (
        "--demo --graph g.txt --query 1",
        "--demo and --graph are mutually exclusive",
    ),
    ("--query 1", "either --graph or --demo is required"),
    ("--demo", "--query, --queries or --updates is required"),
    (
        "--demo --query 1 --queries q.txt",
        "--query, --queries and --updates are mutually exclusive",
    ),
    (
        "--demo --query 1 --updates u.txt",
        "--query, --queries and --updates are mutually exclusive",
    ),
    (
        "--demo --queries q.txt --updates u.txt",
        "--query, --queries and --updates are mutually exclusive",
    ),
    (
        "--demo --query 1 --threads 2",
        "--threads requires --queries (batch mode)",
    ),
    (
        "--demo --updates u.txt --threads 2",
        "--threads requires --queries (batch mode)",
    ),
    (
        "--demo --query 1 --plan off",
        "--plan requires --queries (batch mode)",
    ),
    (
        "--demo --query 1 --top-k 2 --plan auto",
        "--plan requires --queries (batch mode)",
    ),
    (
        "--demo --updates u.txt --plan off",
        "--plan requires --queries (batch mode)",
    ),
    (
        "--demo --queries q.txt --top-k 2",
        "--queries does not support --top-k",
    ),
    (
        "--demo --queries q.txt --dot o.dot",
        "--queries does not support --dot",
    ),
    (
        "--demo --updates u.txt --top-k 2",
        "--updates does not support --top-k",
    ),
    (
        "--demo --updates u.txt --dot o.dot",
        "--updates does not support --dot",
    ),
    (
        "--demo --updates u.txt --stats",
        "--updates does not support --stats (the graph changes mid-run)",
    ),
    (
        "--demo --query 0 --weighted --algo kc",
        "--weighted does not support --algo kc (weight-aware: fpa, nca, fpa-w, nca-w)",
    ),
    (
        "--graph g.txt --queries q.txt --weighted --algo louvain",
        "--weighted does not support --algo louvain (weight-aware: fpa, nca, fpa-w, nca-w)",
    ),
    // Several errors on one line: the first one found wins.
    ("--wat --k x", "unknown argument \"--wat\""),
    ("--k x --wat", "bad --k value"),
    (
        "--demo --unix d.sock --query",
        "unknown argument \"--unix\"",
    ),
    ("--demo --query 1 --k", "--k needs a value"),
    ("--k x --help", "bad --k value"),
    (
        "--demo --query 0 --shards 0 --wat",
        "--shards must be at least 1",
    ),
    (
        "--demo --graph g.txt",
        "--demo and --graph are mutually exclusive",
    ),
    (
        "--graph g.txt --demo --query 1 --queries q.txt --threads 2 --top-k 2",
        "--demo and --graph are mutually exclusive",
    ),
    (
        "--query 1 --queries q.txt",
        "either --graph or --demo is required",
    ),
    (
        "--demo --weighted --algo kc",
        "--query, --queries or --updates is required",
    ),
    (
        "--demo --query 1 --queries q.txt --threads 2",
        "--query, --queries and --updates are mutually exclusive",
    ),
    (
        "--demo --updates u.txt --threads 2 --top-k 2 --stats",
        "--threads requires --queries (batch mode)",
    ),
    (
        "--demo --updates u.txt --plan off --threads 2",
        "--plan requires --queries (batch mode)",
    ),
    (
        "--demo --query 1 --threads 2 --plan off --dot o.dot",
        "--threads requires --queries (batch mode)",
    ),
    (
        "--demo --query 1 --queries q.txt --plan off",
        "--query, --queries and --updates are mutually exclusive",
    ),
    (
        "--demo --queries q.txt --top-k 2 --dot o.dot --weighted --algo kc",
        "--queries does not support --top-k",
    ),
    (
        "--demo --updates u.txt --dot o.dot --stats",
        "--updates does not support --dot",
    ),
    (
        "--demo --updates u.txt --stats --weighted --algo kc",
        "--updates does not support --stats (the graph changes mid-run)",
    ),
];

/// `dmcs serve <args>`: the error each line is rejected with.
const SERVE: &[(&str, &str)] = &[
    // Flags of the run grammar, and words of neither.
    (
        "--demo --tcp 127.0.0.1:0 --query 0",
        "unknown serve argument \"--query\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --queries q.txt",
        "unknown serve argument \"--queries\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --updates u.txt",
        "unknown serve argument \"--updates\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --threads 2",
        "unknown serve argument \"--threads\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --format json",
        "unknown serve argument \"--format\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --stats",
        "unknown serve argument \"--stats\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --max-print 5",
        "unknown serve argument \"--max-print\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --top-k 2",
        "unknown serve argument \"--top-k\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --dot o.dot",
        "unknown serve argument \"--dot\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --plan off",
        "unknown serve argument \"--plan\"",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --wat",
        "unknown serve argument \"--wat\"",
    ),
    // Bad values.
    ("--demo --tcp 127.0.0.1:0 --k nope", "bad --k value"),
    ("--demo --tcp 127.0.0.1:0 --shards x", "bad --shards value"),
    (
        "--demo --tcp 127.0.0.1:0 --shards 0",
        "--shards must be at least 1",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --layout rcm",
        "bad --layout value: unknown layout policy 'rcm' (expected identity or bfs)",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --queue-cap x",
        "bad --queue-cap value",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --queue-cap -1",
        "bad --queue-cap value",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --max-line-bytes x",
        "bad --max-line-bytes value",
    ),
    // A flag missing its value.
    ("--demo --tcp 127.0.0.1:0 --graph", "--graph needs a value"),
    ("--demo --tcp 127.0.0.1:0 --algo", "--algo needs a value"),
    ("--demo --tcp 127.0.0.1:0 --k", "--k needs a value"),
    (
        "--demo --tcp 127.0.0.1:0 --shards",
        "--shards needs a value",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --layout",
        "--layout needs a value",
    ),
    ("--demo --unix", "--unix needs a value"),
    ("--demo --tcp", "--tcp needs a value"),
    (
        "--demo --tcp 127.0.0.1:0 --queue-cap",
        "--queue-cap needs a value",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --max-line-bytes",
        "--max-line-bytes needs a value",
    ),
    // Mutually exclusive flags and mode rules.
    (
        "--demo --graph g.txt --tcp 127.0.0.1:0",
        "--demo and --graph are mutually exclusive",
    ),
    ("--tcp 127.0.0.1:0", "either --graph or --demo is required"),
    (
        "--demo",
        "serve needs at least one listener (--unix <path> and/or --tcp <addr>)",
    ),
    (
        "--demo --unix d.sock --weighted --algo louvain",
        "--weighted does not support --algo louvain (weight-aware: fpa, nca, fpa-w, nca-w)",
    ),
    // Several errors on one line: the first one found wins.
    ("--query 0 --wat", "unknown serve argument \"--query\""),
    (
        "--demo --tcp 127.0.0.1:0 --threads",
        "unknown serve argument \"--threads\"",
    ),
    ("--demo --queue-cap x --unix", "bad --queue-cap value"),
    (
        "--graph g.txt --demo",
        "--demo and --graph are mutually exclusive",
    ),
    (
        "--weighted --algo kc --demo",
        "serve needs at least one listener (--unix <path> and/or --tcp <addr>)",
    ),
    (
        "--weighted --algo kc --tcp 127.0.0.1:0",
        "either --graph or --demo is required",
    ),
    (
        "--demo --tcp 127.0.0.1:0 --shards 0 --queue-cap x",
        "--shards must be at least 1",
    ),
];

#[test]
fn run_grammar_errors_keep_their_text_and_order() {
    for (line, expected) in RUN {
        let err = parse(&args(line)).expect_err(line);
        assert_eq!(err.to_string(), *expected, "dmcs {line}");
        assert_eq!(err.exit_code(), 2, "dmcs {line}");
    }
}

#[test]
fn serve_grammar_errors_keep_their_text_and_order() {
    for (line, expected) in SERVE {
        let err = parse_serve(&args(line)).expect_err(line);
        assert_eq!(err.to_string(), *expected, "dmcs serve {line}");
        assert_eq!(err.exit_code(), 2, "dmcs serve {line}");
    }
}
