//! The source rules: panic/lock discipline in serving paths, process
//! exits, and rustdoc coverage. Each rule is a pure function from a
//! [`ScannedFile`] to [`Finding`]s so the fixture tests can drive them
//! file by file.

use crate::scan::ScannedFile;
use crate::Finding;

/// Files on the serving path: code that runs between a request arriving
/// and a response leaving. Panics here tear down connection or worker
/// threads, so the panic and lock rules apply (outside test regions).
pub const SERVING_PATHS: &[&str] = &[
    "crates/engine/src/server.rs",
    "crates/engine/src/session.rs",
    "crates/engine/src/cache.rs",
    "crates/engine/src/batch.rs",
    "crates/engine/src/plan.rs",
    "crates/engine/src/ops.rs",
    "crates/engine/src/output.rs",
    "crates/graph/src/store.rs",
    "crates/graph/src/layout.rs",
];

/// Directory whose `pub` items must all carry rustdoc (the serving API
/// surface; `#![warn(missing_docs)]` covers the library targets, this
/// rule keeps the gate in the same report as everything else).
pub const DOC_SURFACE: &str = "crates/engine/src/";

/// Rule id: `unwrap`/`expect`/`panic!`/`unreachable!` on the serving
/// path outside tests.
pub const RULE_SERVING_PANIC: &str = "serving-panic";
/// Rule id: a `RwLock`/`Mutex` guard bound across a `snapshot()` or
/// CSR-rebuild call in the same scope.
pub const RULE_GUARD_ACROSS_SNAPSHOT: &str = "guard-across-snapshot";
/// Rule id: `std::process::exit` outside a `main.rs`.
pub const RULE_PROCESS_EXIT: &str = "process-exit";
/// Rule id: an undocumented `pub` item in the engine crate.
pub const RULE_PUB_UNDOCUMENTED: &str = "pub-undocumented";

/// Whether `rel_path` is one of the serving-path files.
pub fn is_serving_path(rel_path: &str) -> bool {
    SERVING_PATHS.contains(&rel_path)
}

/// Run every source rule that applies to `file` given its repo-relative
/// path. `force_all` (the fixture/`--serving-file` mode) applies all
/// rules regardless of path.
pub fn check_file(file: &ScannedFile, force_all: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let serving = force_all || is_serving_path(&file.rel_path);
    if serving {
        findings.extend(no_panics(file));
        findings.extend(no_guard_across_snapshot(file));
    }
    let basename = file.rel_path.rsplit('/').next().unwrap_or(&file.rel_path);
    if force_all || basename != "main.rs" {
        findings.extend(no_process_exit(file));
    }
    if force_all || file.rel_path.starts_with(DOC_SURFACE) {
        findings.extend(pub_items_documented(file));
    }
    findings
}

/// `serving-panic`: no `.unwrap(` / `.expect(` / `panic!` /
/// `unreachable!` outside test regions. `unwrap_or*` / `expect_err`
/// deliberately do not match (the `(` is part of the pattern).
fn no_panics(file: &ScannedFile) -> Vec<Finding> {
    const PATTERNS: &[&str] = &[".unwrap(", ".expect(", "panic!", "unreachable!"];
    let mut findings = Vec::new();
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.test_lines[i] {
            continue;
        }
        for pat in PATTERNS {
            if code.contains(pat) {
                let label = pat.trim_start_matches('.').trim_end_matches('(');
                findings.push(Finding::new(
                    RULE_SERVING_PANIC,
                    &file.rel_path,
                    i + 1,
                    format!("`{label}` on the serving path (outside tests)"),
                ));
            }
        }
    }
    findings
}

/// `guard-across-snapshot`: a `let` binding whose initializer is a bare
/// `.read()` / `.write()` / `.lock()` call (optionally chained through
/// `?`, `unwrap`, `expect` or `unwrap_or_else` — i.e. still a lock
/// guard) must not remain in scope across a `.snapshot(` or
/// `rebuild_csr(` call: the rebuild takes the store's own lock, so the
/// combination risks deadlock (and at best serializes serving threads
/// behind an `O(|V| + |E|)` CSR rebuild).
///
/// A statement that *projects* through the guard in the same expression
/// (`self.read().shard_versions.clone()`) drops the guard immediately
/// and is not a binding.
fn no_guard_across_snapshot(file: &ScannedFile) -> Vec<Finding> {
    let text = file.code_text();
    let bytes = text.as_bytes();
    let mut line_starts = vec![0usize];
    for (i, &c) in bytes.iter().enumerate() {
        if c == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |pos: usize| match line_starts.binary_search(&pos) {
        Ok(l) => l,
        Err(l) => l - 1,
    };

    let mut findings = Vec::new();
    for lock_call in [".read()", ".write()", ".lock()"] {
        let mut from = 0usize;
        while let Some(p) = text[from..].find(lock_call) {
            let at = from + p;
            from = at + lock_call.len();
            // Statement start: after the previous `;`, `{` or `}`.
            let stmt_start = text[..at].rfind([';', '{', '}']).map_or(0, |q| q + 1);
            if !text[stmt_start..at].trim_start().starts_with("let ") {
                continue; // temporary guard, dropped at end of statement
            }
            // Everything between the lock call and the `;` must be a
            // guard-preserving chain, else the statement projects
            // through the guard and binds no lock.
            let stmt_end = match text[at..].find(';') {
                Some(q) => at + q,
                None => continue,
            };
            if !is_guard_chain(&text[at + lock_call.len()..stmt_end]) {
                continue;
            }
            // The guard lives until its enclosing scope closes: walk
            // forward tracking depth.
            let mut depth = 0i64;
            let mut k = stmt_end;
            let mut scope_end = bytes.len();
            while k < bytes.len() {
                match bytes[k] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth < 0 {
                            scope_end = k;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let scope = &text[stmt_end..scope_end];
            for call in [".snapshot(", "rebuild_csr("] {
                if let Some(q) = scope.find(call) {
                    let line = line_of(stmt_end + q);
                    if !file.test_lines.get(line).copied().unwrap_or(false) {
                        findings.push(Finding::new(
                            RULE_GUARD_ACROSS_SNAPSHOT,
                            &file.rel_path,
                            line + 1,
                            format!(
                                "`{call}..)` while the lock guard bound on line {} is still live",
                                line_of(at) + 1
                            ),
                        ));
                    }
                }
            }
        }
    }
    findings.sort_by_key(|f| f.line);
    findings.dedup_by(|a, b| a.line == b.line && a.msg == b.msg);
    findings
}

/// Whether `tail` (statement text after a lock call, up to `;`) only
/// chains guard-preserving calls: `?`, `.unwrap()`, `.expect(..)`,
/// `.unwrap_or_else(..)`.
fn is_guard_chain(tail: &str) -> bool {
    let mut rest = tail.trim();
    while !rest.is_empty() {
        if let Some(r) = rest.strip_prefix('?') {
            rest = r.trim_start();
            continue;
        }
        let Some(r) = rest.strip_prefix('.') else {
            return false;
        };
        let r = r.trim_start();
        let method: String = r
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !matches!(method.as_str(), "unwrap" | "expect" | "unwrap_or_else") {
            return false;
        }
        let after = &r[method.len()..];
        let after = after.trim_start();
        if !after.starts_with('(') {
            return false;
        }
        // Skip the balanced argument list.
        let mut depth = 0usize;
        let mut consumed = None;
        for (i, c) in after.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        consumed = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        match consumed {
            Some(i) => rest = after[i..].trim_start(),
            None => return false,
        }
    }
    true
}

/// `process-exit`: `process::exit` belongs in `main.rs` files only —
/// everywhere else a typed error must propagate so library callers (and
/// the daemon's connection threads) stay alive.
fn no_process_exit(file: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.test_lines[i] {
            continue;
        }
        if code.contains("process::exit") {
            findings.push(Finding::new(
                RULE_PROCESS_EXIT,
                &file.rel_path,
                i + 1,
                "`std::process::exit` outside a main.rs".to_string(),
            ));
        }
    }
    findings
}

/// `pub-undocumented`: every `pub` item (fn, struct, enum, trait, const,
/// static, type, mod) must be preceded by a `///` doc comment, possibly
/// with `#[...]` attribute lines in between. `pub(crate)`/`pub(super)`
/// items are internal and exempt; so are `pub use` re-exports (rustdoc
/// inlines the target's docs) and out-of-line `pub mod name;`
/// declarations, which are documented by their file's `//!` inner docs
/// (outer docs there would re-scope the inner docs' intra-doc links to
/// the parent module and dangle them).
fn pub_items_documented(file: &ScannedFile) -> Vec<Finding> {
    const ITEMS: &[&str] = &[
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub const ",
        "pub static ",
        "pub type ",
        "pub mod ",
        "pub unsafe fn ",
    ];
    let mut findings = Vec::new();
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.test_lines[i] {
            continue;
        }
        let trimmed = code.trim_start();
        if !ITEMS.iter().any(|p| trimmed.starts_with(p)) {
            continue;
        }
        if trimmed.starts_with("pub mod ") && trimmed.trim_end().ends_with(';') {
            continue; // out-of-line module: documented by its `//!` docs
        }
        // Walk upward over attributes and derive lines to the nearest
        // prose; it must be a `///` doc (raw lines: comments were
        // blanked in code_lines).
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let above = file.raw_lines[j].trim_start();
            if above.starts_with("#[") || above.starts_with("#![") || above.ends_with(']') {
                // Attribute (possibly the tail of a multi-line one).
                continue;
            }
            documented = above.starts_with("///") || above.starts_with("#[doc");
            break;
        }
        if !documented {
            let name: String = trimmed
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ");
            findings.push(Finding::new(
                RULE_PUB_UNDOCUMENTED,
                &file.rel_path,
                i + 1,
                format!("undocumented public item `{name}`"),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(path: &str, src: &str) -> ScannedFile {
        ScannedFile::new(path, src)
    }

    #[test]
    fn panic_rule_fires_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.expect(\"ok\"); } }\n";
        let f = scanned("crates/engine/src/cache.rs", src);
        let found = check_file(&f, false);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_SERVING_PANIC);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 0); z.unwrap_or_default(); }\n";
        let f = scanned("crates/engine/src/cache.rs", src);
        assert!(check_file(&f, false).is_empty());
    }

    #[test]
    fn guard_across_snapshot_fires() {
        let src = "fn f(&self) {\n\
                       let g = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                       let s = store.snapshot();\n\
                       drop(g);\n\
                   }\n";
        let f = scanned("crates/engine/src/session.rs", src);
        let found: Vec<_> = check_file(&f, false)
            .into_iter()
            .filter(|x| x.rule == RULE_GUARD_ACROSS_SNAPSHOT)
            .collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn projected_temporary_is_not_a_guard() {
        let src = "fn f(&self) {\n\
                       let v = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner).version();\n\
                       let s = store.snapshot();\n\
                   }\n";
        let f = scanned("crates/engine/src/session.rs", src);
        assert!(
            check_file(&f, false)
                .iter()
                .all(|x| x.rule != RULE_GUARD_ACROSS_SNAPSHOT),
            "projection drops the guard at end of statement"
        );
    }

    #[test]
    fn guard_released_by_scope_is_fine() {
        let src = "fn f(&self) {\n\
                       {\n\
                           let g = self.inner.read();\n\
                       }\n\
                       let s = store.snapshot();\n\
                   }\n";
        let f = scanned("crates/engine/src/session.rs", src);
        assert!(check_file(&f, false)
            .iter()
            .all(|x| x.rule != RULE_GUARD_ACROSS_SNAPSHOT));
    }

    #[test]
    fn process_exit_rule_spares_main() {
        let bad = scanned(
            "crates/engine/src/server.rs",
            "fn f() { std::process::exit(1); }\n",
        );
        assert!(check_file(&bad, false)
            .iter()
            .any(|x| x.rule == RULE_PROCESS_EXIT));
        let ok = scanned("src/main.rs", "fn main() { std::process::exit(0); }\n");
        assert!(check_file(&ok, false).is_empty());
    }

    #[test]
    fn pub_doc_rule_accepts_docs_and_attributes() {
        let src = "/// Documented.\n\
                   #[derive(Debug)]\n\
                   pub struct A;\n\
                   pub fn b() {}\n\
                   pub(crate) fn c() {}\n\
                   pub use other::Thing;\n";
        let f = scanned("crates/engine/src/error.rs", src);
        let found = check_file(&f, false);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_PUB_UNDOCUMENTED);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn out_of_line_mod_is_exempt_but_inline_mod_is_not() {
        let src = "pub mod batch;\n\
                   pub mod helpers {\n}\n";
        let f = scanned("crates/engine/src/lib.rs", src);
        let found = check_file(&f, false);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_PUB_UNDOCUMENTED);
        assert_eq!(found[0].line, 2);
    }
}
