//! Cross-artifact consistency: the hand-maintained facts that live in
//! more than one place must agree, and the lint parses the **real
//! sources of truth** — the Rust sources and the README — not copies of
//! them.
//!
//! Two families:
//!
//! 1. **Exit codes** — the canonical map is the match in
//!    `EngineError::exit_code` (`crates/engine/src/error.rs`). The
//!    error.rs module-doc table, the CLI `--help` EXIT CODES text, the
//!    README error table and the `server.rs` wire-code doc must all
//!    agree with it (and `server.rs` must derive wire codes from
//!    `exit_code()` rather than re-hardcoding them).
//! 2. **Registry labels** — every algorithm label registered in
//!    `registry.rs` must be documented (appear as a backticked span) in
//!    the README.

use crate::Finding;
use std::path::Path;

/// Rule id for every exit-code disagreement.
pub const RULE_EXIT_CODES: &str = "exit-code-map";
/// Rule id for registry labels missing from the README.
pub const RULE_REGISTRY_README: &str = "registry-readme";

/// What each canonical error variant means, as a lowercase keyword that
/// must appear in human-facing descriptions of its code. This table is
/// the lint's own contribution: the *codes* are proven identical across
/// artifacts, the keywords pin each code to the right meaning.
const VARIANT_KEYWORDS: &[(&str, &str)] = &[
    ("BadParam", "bad flags"),
    ("UnknownAlgo", "unknown algorithm"),
    ("Io", "i/o"),
    ("UnknownNode", "unknown query node"),
    ("Search", "search"),
    ("BadUpdate", "update"),
    ("Overloaded", "overloaded"),
    ("BadRequest", "wire request"),
];

/// Phrases the `server.rs` wire-code doc uses, mapped to variants.
const WIRE_PHRASES: &[(&str, &str)] = &[
    ("unknown node", "UnknownNode"),
    ("bad update", "BadUpdate"),
    ("overloaded", "Overloaded"),
    ("bad request", "BadRequest"),
];

/// Run every cross-artifact check against the repo at `root`.
pub fn check_all(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut read = |rel: &str| -> Option<String> {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => Some(text),
            Err(e) => {
                findings.push(Finding::new(
                    RULE_EXIT_CODES,
                    rel,
                    0,
                    format!("source of truth unreadable: {e}"),
                ));
                None
            }
        }
    };
    let error_rs = read("crates/engine/src/error.rs");
    let cli_rs = read("src/cli.rs");
    let readme = read("README.md");
    let server_rs = read("crates/engine/src/server.rs");
    let registry_rs = read("crates/engine/src/registry.rs");
    let (Some(error_rs), Some(cli_rs), Some(readme), Some(server_rs), Some(registry_rs)) =
        (error_rs, cli_rs, readme, server_rs, registry_rs)
    else {
        return findings;
    };

    let canonical = canonical_exit_codes(&error_rs, &mut findings);
    if !canonical.is_empty() {
        check_error_doc_table(&error_rs, &canonical, &mut findings);
        check_readme_table(&readme, &canonical, &mut findings);
        check_cli_help(&cli_rs, &canonical, &mut findings);
        check_wire_codes(&server_rs, &canonical, &mut findings);
    }
    check_registry_labels(&registry_rs, &readme, &mut findings);
    findings
}

/// The canonical variant → exit-code map, parsed from the match arms of
/// `EngineError::exit_code`.
pub fn canonical_exit_codes(error_rs: &str, findings: &mut Vec<Finding>) -> Vec<(String, u32)> {
    let file = "crates/engine/src/error.rs";
    let Some(body) = fn_body(error_rs, "fn exit_code") else {
        findings.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            0,
            "cannot locate fn exit_code in error.rs".to_string(),
        ));
        return Vec::new();
    };
    let mut map = Vec::new();
    for line in body.lines() {
        let Some(rest) = line.trim().strip_prefix("EngineError::") else {
            continue;
        };
        let variant: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let Some(arrow) = rest.find("=>") else {
            continue;
        };
        let code: String = rest[arrow + 2..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(code) = code.parse::<u32>() {
            map.push((variant, code));
        }
    }
    if map.is_empty() {
        findings.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            0,
            "no match arms parsed from fn exit_code".to_string(),
        ));
    }
    map
}

/// The error.rs module-doc table must list exactly the canonical pairs.
fn check_error_doc_table(error_rs: &str, canonical: &[(String, u32)], out: &mut Vec<Finding>) {
    let file = "crates/engine/src/error.rs";
    let mut documented = Vec::new();
    for (i, line) in error_rs.lines().enumerate() {
        // `//! | [`BadParam`] | 2 | ... |`
        let t = line.trim();
        let Some(row) = t.strip_prefix("//! |") else {
            continue;
        };
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let name = cells[0].trim_matches(['[', ']', '`'].as_slice());
        if let Ok(code) = cells[1].parse::<u32>() {
            if !name.is_empty() && name.chars().next().is_some_and(char::is_uppercase) {
                documented.push((name.to_string(), code, i + 1));
            }
        }
    }
    compare_tables(
        file,
        "error.rs module-doc table",
        canonical,
        &documented,
        out,
    );
}

/// The README error table must list exactly the canonical pairs.
fn check_readme_table(readme: &str, canonical: &[(String, u32)], out: &mut Vec<Finding>) {
    let file = "README.md";
    let canon_names: Vec<&str> = canonical.iter().map(|(n, _)| n.as_str()).collect();
    let mut documented = Vec::new();
    for (i, line) in readme.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let name = cells[0].trim_matches('`');
        if !canon_names.contains(&name) {
            continue; // some other table (flags, crate map, ...)
        }
        if let Ok(code) = cells[1].parse::<u32>() {
            documented.push((name.to_string(), code, i + 1));
        } else {
            out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                i + 1,
                format!("README error-table row for `{name}` has no numeric exit code"),
            ));
        }
    }
    compare_tables(file, "README error table", canonical, &documented, out);
}

/// Shared table comparison: same variants, same codes, no extras.
fn compare_tables(
    file: &str,
    what: &str,
    canonical: &[(String, u32)],
    documented: &[(String, u32, usize)],
    out: &mut Vec<Finding>,
) {
    for (name, code) in canonical {
        match documented.iter().find(|(n, _, _)| n == name) {
            None => out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                0,
                format!("{what}: variant `{name}` (exit code {code}) is missing"),
            )),
            Some((_, doc_code, line)) if doc_code != code => out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                *line,
                format!("{what}: `{name}` documented as {doc_code}, exit_code() says {code}"),
            )),
            Some(_) => {}
        }
    }
    for (name, _, line) in documented {
        if !canonical.iter().any(|(n, _)| n == name) {
            out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                *line,
                format!("{what}: `{name}` is not an EngineError variant"),
            ));
        }
    }
}

/// The first EXIT CODES block of `usage()` must mention every canonical
/// code exactly once, with the right meaning (keyword match), plus the
/// `0 success` convention.
fn check_cli_help(cli_rs: &str, canonical: &[(String, u32)], out: &mut Vec<Finding>) {
    let file = "src/cli.rs";
    let Some(start) = cli_rs.find("EXIT CODES:") else {
        out.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            0,
            "usage() has no EXIT CODES block".to_string(),
        ));
        return;
    };
    let line_no = cli_rs[..start].lines().count();
    let block = &cli_rs[start + "EXIT CODES:".len()..];
    // The block ends where the usage format string does.
    let block = &block[..block.find('"').unwrap_or(block.len())];
    let entries: Vec<(u32, String)> = block
        .split(',')
        .filter_map(|entry| {
            let entry = entry.trim();
            let digits: String = entry.chars().take_while(char::is_ascii_digit).collect();
            let code = digits.parse::<u32>().ok()?;
            Some((code, entry[digits.len()..].trim().to_lowercase()))
        })
        .collect();
    for (count, (code, desc)) in
        [(1u32, (0u32, "success".to_string()))]
            .into_iter()
            .chain(canonical.iter().map(|(name, code)| {
                let keyword = VARIANT_KEYWORDS
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, k)| *k);
                (1, (*code, keyword.to_string()))
            }))
    {
        let hits: Vec<&(u32, String)> = entries.iter().filter(|(c, _)| *c == code).collect();
        if hits.len() != count as usize {
            out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                line_no,
                format!(
                    "--help EXIT CODES mentions code {code} {} time(s), expected {count}",
                    hits.len()
                ),
            ));
        } else if !desc.is_empty() && !hits[0].1.contains(&desc) {
            out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                line_no,
                format!(
                    "--help EXIT CODES describes code {code} as {:?}, expected it to mention {desc:?}",
                    hits[0].1
                ),
            ));
        }
    }
}

/// The server.rs wire-code doc (`code` is the exit-code analog ...) must
/// cite codes that agree with the canonical map, and `error_line` (the
/// writer of every wire `error` reply) must derive codes from
/// `exit_code()` instead of re-hardcoding them.
fn check_wire_codes(server_rs: &str, canonical: &[(String, u32)], out: &mut Vec<Finding>) {
    let file = "crates/engine/src/server.rs";
    let Some(anchor) = server_rs.find("exit-code analog") else {
        out.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            0,
            "module doc no longer explains the wire codes (\"exit-code analog\")".to_string(),
        ));
        return;
    };
    let line_no = server_rs[..anchor].lines().count();
    let tail = &server_rs[anchor..];
    let Some(open) = tail.find('(') else { return };
    let Some(close) = tail.find(')') else { return };
    let listing: String = tail[open + 1..close]
        .lines()
        .map(|l| l.trim().trim_start_matches("//!").trim())
        .collect::<Vec<_>>()
        .join(" ");
    let mut cited = 0usize;
    for entry in listing.split(',') {
        let entry = entry.trim().to_lowercase();
        let digits: String = entry.chars().take_while(char::is_ascii_digit).collect();
        let Ok(code) = digits.parse::<u32>() else {
            continue;
        };
        cited += 1;
        let phrase = entry[digits.len()..].trim();
        let Some((_, variant)) = WIRE_PHRASES.iter().find(|(p, _)| phrase.contains(p)) else {
            out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                line_no,
                format!("wire-code doc cites code {code} with unrecognized meaning {phrase:?}"),
            ));
            continue;
        };
        match canonical.iter().find(|(n, _)| n == variant) {
            Some((_, canon)) if *canon == code => {}
            Some((_, canon)) => out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                line_no,
                format!("wire-code doc cites {code} for {variant}, exit_code() says {canon}"),
            )),
            None => out.push(Finding::new(
                RULE_EXIT_CODES,
                file,
                line_no,
                format!("wire-code doc cites {variant}, which exit_code() does not map"),
            )),
        }
    }
    if cited == 0 {
        out.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            line_no,
            "wire-code doc lists no codes".to_string(),
        ));
    }
    match fn_body(server_rs, "fn error_line") {
        Some(body) if body.contains("exit_code()") => {}
        Some(_) => out.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            0,
            "error_line no longer derives wire codes from EngineError::exit_code()".to_string(),
        )),
        None => out.push(Finding::new(
            RULE_EXIT_CODES,
            file,
            0,
            "cannot locate fn error_line in server.rs".to_string(),
        )),
    }
}

/// Every label in the `REGISTRY` table must appear as a backticked span
/// somewhere in the README.
fn check_registry_labels(registry_rs: &str, readme: &str, out: &mut Vec<Finding>) {
    let labels = registry_labels(registry_rs);
    if labels.is_empty() {
        out.push(Finding::new(
            RULE_REGISTRY_README,
            "crates/engine/src/registry.rs",
            0,
            "no labels parsed from REGISTRY".to_string(),
        ));
        return;
    }
    for (label, line) in labels {
        if !readme.contains(&format!("`{label}`")) {
            out.push(Finding::new(
                RULE_REGISTRY_README,
                "crates/engine/src/registry.rs",
                line,
                format!("registry label `{label}` is not documented in README.md"),
            ));
        }
    }
}

/// `(label, line)` pairs parsed from the `REGISTRY` table's
/// `name: "..."` fields.
pub fn registry_labels(registry_rs: &str) -> Vec<(String, usize)> {
    let Some(start) = registry_rs.find("REGISTRY") else {
        return Vec::new();
    };
    let end = registry_rs[start..]
        .find("\n];")
        .map_or(registry_rs.len(), |p| start + p);
    let offset_line = registry_rs[..start].lines().count();
    let mut labels = Vec::new();
    for (i, line) in registry_rs[start..end].lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("name: \"") {
            if let Some(q) = rest.find('"') {
                labels.push((rest[..q].to_string(), offset_line + i));
            }
        }
    }
    labels
}

/// The body (between the outermost braces) of the first function whose
/// signature contains `needle`.
fn fn_body(text: &str, needle: &str) -> Option<String> {
    let start = text.find(needle)?;
    let open = start + text[start..].find('{')?;
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[open + 1..i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exit_code_arms() {
        let src = "impl E {\n pub fn exit_code(&self) -> i32 {\n match self {\n\
                   EngineError::BadParam { .. } => 2,\n\
                   EngineError::Io { .. } => 4,\n } } }";
        let mut f = Vec::new();
        let map = canonical_exit_codes(src, &mut f);
        assert_eq!(
            map,
            vec![("BadParam".to_string(), 2), ("Io".to_string(), 4)]
        );
        assert!(f.is_empty());
    }
}
