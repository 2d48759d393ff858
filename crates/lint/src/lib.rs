//! `dmcs-lint` — repo-native static analysis for the dmcs workspace.
//!
//! Two halves, one report:
//!
//! - **Source rules** ([`rules`], driven by the [`scan`] model): panic
//!   and lock discipline on the serving path, `process::exit`
//!   confinement, rustdoc coverage of the engine's public surface.
//! - **Cross-artifact consistency** ([`consistency`]): the exit-code
//!   map and the registry labels are each maintained by hand in several
//!   artifacts; the lint parses the real sources of truth and proves
//!   they agree.
//!
//! Findings stream as JSON lines (the house wire style) and are gated
//! by a checked-in ratchet ([`baseline`]): pre-existing violations are
//! frozen per `(rule, file)` and may only shrink.
//!
//! The crate is deliberately dependency-free — not even the internal
//! crates — so the lint keeps working (and keeps failing loudly) even
//! when the code it checks does not compile.

pub mod baseline;
pub mod consistency;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

/// One lint finding: a rule id, a repo-relative file, a 1-based line
/// (0 when the finding is about a whole artifact), and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (e.g. `serving-panic`), the baseline key's first
    /// half.
    pub rule: &'static str,
    /// Repo-relative path of the offending file, the key's second half.
    pub file: String,
    /// 1-based line number; 0 for whole-artifact findings.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(rule: &'static str, file: impl Into<String>, line: usize, msg: String) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            msg,
        }
    }

    /// The finding as one JSON line in the house wire style.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"finding\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"msg\":\"{}\"}}",
            json_escape(self.rule),
            json_escape(&self.file),
            self.line,
            json_escape(&self.msg)
        )
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Repo-relative paths of every first-party Rust source file: `src/`
/// and `crates/*/src/`, recursively. `vendor/` (offline shims),
/// `target/` and per-crate `tests/` are out of scope — the rules govern
/// shipping code.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    for dir in roots {
        walk(&dir, &mut |path| {
            if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        })?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, visit: &mut impl FnMut(&Path)) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, visit)?;
        } else {
            visit(&path);
        }
    }
    Ok(())
}

/// Lint the whole repo at `root`: source rules over every workspace
/// source file, plus the cross-artifact consistency checks.
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let scanned = scan::ScannedFile::new(rel, &text);
        findings.extend(rules::check_file(&scanned, false));
    }
    findings.extend(consistency::check_all(root));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}
