//! The baseline ratchet: pre-existing violations are frozen in a
//! checked-in `lint-baseline.txt`, keyed by `(rule, file)` with a
//! count, and may only shrink.
//!
//! Semantics per key:
//!
//! - current count > baseline count → **fail** (new violations);
//! - current count < baseline count → **fail** with a "stale baseline"
//!   message (run `--update-baseline` to lock in the progress — the
//!   ratchet only turns one way);
//! - equal → pass, findings reported as `baselined`.
//!
//! Keys absent from the baseline allow zero findings, so every new rule
//! and every consistency check is enforced at full strength from day
//! one.

use crate::Finding;
use std::collections::BTreeMap;
use std::path::Path;

/// Baseline counts keyed by `(rule, file)`.
pub type Baseline = BTreeMap<(String, String), usize>;

/// Parse a baseline file: one `<count>\t<rule>\t<file>` triple per
/// line, `#` comments and blank lines ignored.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut map = Baseline::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(count), Some(rule), Some(file)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {}: expected <count>\\t<rule>\\t<file>",
                i + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count {count:?}", i + 1))?;
        map.insert((rule.to_string(), file.to_string()), count);
    }
    Ok(map)
}

/// Load the baseline at `path`; a missing file is an empty baseline.
pub fn load(path: &Path) -> Result<Baseline, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::new()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Render `findings` as baseline text (sorted, commented header).
pub fn render(findings: &[Finding]) -> String {
    let mut counts = Baseline::new();
    for f in findings {
        *counts
            .entry((f.rule.to_string(), f.file.clone()))
            .or_default() += 1;
    }
    let mut out = String::from(
        "# dmcs-lint baseline: frozen pre-existing violations, one\n\
         # `<count>\\t<rule>\\t<file>` per line. The ratchet only turns one\n\
         # way: counts may shrink (then run `cargo run -p dmcs-lint --\n\
         # --update-baseline`), never grow.\n",
    );
    for ((rule, file), count) in &counts {
        out.push_str(&format!("{count}\t{rule}\t{file}\n"));
    }
    out
}

/// The verdict of applying the ratchet to a lint run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Findings not covered by the baseline (fail).
    pub new: Vec<Finding>,
    /// Findings absorbed by the baseline (pass, reported with `--all`).
    pub baselined: Vec<Finding>,
    /// `(rule, file)` keys whose count shrank or vanished (fail until
    /// the baseline is regenerated).
    pub stale: Vec<(String, String, usize, usize)>,
}

impl Verdict {
    /// Whether the run passes the gate.
    pub fn ok(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Apply the ratchet: per `(rule, file)` key, the first `baseline`
/// findings (in report order) are absorbed, the rest are new; keys
/// whose live count dropped below the baseline are stale.
pub fn apply(findings: &[Finding], baseline: &Baseline) -> Verdict {
    let mut verdict = Verdict::default();
    let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings {
        let key = (f.rule.to_string(), f.file.clone());
        let n = seen.entry(key.clone()).or_default();
        *n += 1;
        if *n <= baseline.get(&key).copied().unwrap_or(0) {
            verdict.baselined.push(f.clone());
        } else {
            verdict.new.push(f.clone());
        }
    }
    for (key, &frozen) in baseline {
        let live = seen.get(key).copied().unwrap_or(0);
        if live < frozen {
            verdict
                .stale
                .push((key.0.clone(), key.1.clone(), frozen, live));
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str) -> Finding {
        Finding::new(rule, file, 1, "x".to_string())
    }

    #[test]
    fn parse_render_roundtrip() {
        let findings = vec![
            finding("serving-panic", "a.rs"),
            finding("serving-panic", "a.rs"),
            finding("process-exit", "b.rs"),
        ];
        let text = render(&findings);
        let parsed = parse(&text).unwrap();
        assert_eq!(
            parsed.get(&("serving-panic".to_string(), "a.rs".to_string())),
            Some(&2)
        );
        assert_eq!(
            parsed.get(&("process-exit".to_string(), "b.rs".to_string())),
            Some(&1)
        );
    }

    #[test]
    fn ratchet_absorbs_exact_counts_only() {
        let baseline = parse("1\tserving-panic\ta.rs\n").unwrap();
        let v = apply(
            &[
                finding("serving-panic", "a.rs"),
                finding("serving-panic", "a.rs"),
            ],
            &baseline,
        );
        assert_eq!(v.baselined.len(), 1);
        assert_eq!(v.new.len(), 1);
        assert!(!v.ok());
    }

    #[test]
    fn shrunk_count_is_stale() {
        let baseline = parse("2\tserving-panic\ta.rs\n").unwrap();
        let v = apply(&[finding("serving-panic", "a.rs")], &baseline);
        assert!(v.new.is_empty());
        assert_eq!(v.stale.len(), 1);
        assert!(!v.ok(), "ratchet must be re-tightened explicitly");
    }

    #[test]
    fn unknown_key_allows_nothing() {
        let v = apply(&[finding("registry-readme", "README.md")], &Baseline::new());
        assert_eq!(v.new.len(), 1);
        assert!(!v.ok());
    }
}
