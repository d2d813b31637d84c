//! # nocstar-lint — the determinism check clippy cannot make
//!
//! Clippy holds most of what keeps NOCSTAR's reports seed-deterministic
//! (DESIGN.md §10). This crate adds the one check it lacks: order-sensitive
//! float reductions ([`float_accumulation`]) in the crates that
//! `nocstar-lint.toml` classifies as `sim`. The check is token-level (no
//! `syn` is vendored): [`lexer`] keeps strings and comments out of the
//! tokens, and [`source`] finds test code, which the rule skips, and
//! suppressions: `// nocstar-lint: allow(float-accumulation): <why>`. A
//! waiver without a justification, naming another rule, or silencing
//! nothing is itself a finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod float_accumulation;
pub mod lexer;
pub mod source;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The rule this crate checks.
pub const RULE: &str = "float-accumulation";
/// Rule id of findings about malformed or stale suppression comments.
pub const INVALID_SUPPRESSION: &str = "invalid-suppression";

/// One finding. Every finding fails the gate. Findings order by path,
/// line and rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path as given, relative to the workspace root when under it.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// [`RULE`] or [`INVALID_SUPPRESSION`].
    pub rule: &'static str,
    /// What was found.
    pub message: String,
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings in (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified suppression.
    pub suppressed: usize,
}

/// Lints one sim-crate file. `path` is only reported.
pub fn lint_source(path: &Path, text: &str) -> Report {
    let (toks, comments) = lexer::lex(text);
    let tests = source::test_regions(&toks);
    let in_test = |line| tests.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    let finding = |line, rule, message| Finding {
        path: path.to_path_buf(),
        line,
        rule,
        message,
    };
    let mut found = Vec::new();
    let mut waivers = Vec::new();
    for s in source::suppressions(&comments, &toks) {
        match s {
            Ok((line, covered)) => waivers.push((line, covered, false)),
            Err((line, why)) => found.push(finding(line, INVALID_SUPPRESSION, why)),
        }
    }
    for (line, message) in float_accumulation::check(&toks) {
        match waivers.iter_mut().find(|w| w.0 == line || w.1 == line) {
            _ if in_test(line) => {}
            Some(waiver) => waiver.2 = true,
            None => found.push(finding(line, RULE, message)),
        }
    }
    // A waiver that silenced nothing is stale: the code it excused was
    // fixed, or it sits in test code, where the rule does not run.
    for &(line, covered, _) in waivers.iter().filter(|w| !w.2) {
        let why = if in_test(line) || in_test(covered) {
            format!("covers test code, where `{RULE}` does not run")
        } else {
            "matched no finding on the lines it covers".to_string()
        };
        let message = format!("stale suppression: `allow({RULE})` {why}; delete the comment");
        found.push(finding(line, INVALID_SUPPRESSION, message));
    }
    found.sort();
    Report {
        findings: found,
        suppressed: waivers.iter().filter(|w| w.2).count(),
    }
}

/// Lints each of `paths` as sim code, reporting paths relative to `root`.
///
/// # Errors
///
/// A message naming the first unreadable file.
pub fn lint_files(root: &Path, paths: &[PathBuf]) -> Result<Report, String> {
    let mut report = Report::default();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let file = lint_source(path.strip_prefix(root).unwrap_or(path), &text);
        report.findings.extend(file.findings);
        report.suppressed += file.suppressed;
    }
    report.findings.sort();
    Ok(report)
}

/// Parses `nocstar-lint.toml`: a `[crates]` table mapping every
/// workspace-relative crate directory (the facade is `"."`) to `"sim"`
/// or `"tools"`, with `#` comments.
///
/// # Errors
///
/// The first line that is not part of that shape.
pub fn parse_classes(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut classes = BTreeMap::new();
    let mut header = false;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        match line.split('"').collect::<Vec<_>>()[..] {
            [""] => {}
            ["[crates]"] if !header => header = true,
            ["", dir, eq, class @ ("sim" | "tools"), ""] if header && eq.trim() == "=" => {
                classes.insert(dir.to_string(), class.to_string());
            }
            _ => {
                let want = "`[crates]`, then `\"<dir>\" = \"sim\"` or `\"tools\"`";
                return Err(format!("line {}: expected {want}, found `{line}`", n + 1));
            }
        }
    }
    Ok(classes)
}

/// The `.rs` files under `src/` of every crate classified `sim`, sorted.
///
/// # Errors
///
/// A message naming an unreadable directory, a malformed classification,
/// or a classified directory without `src/`.
pub fn sim_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let policy = root.join("nocstar-lint.toml");
    let text = std::fs::read_to_string(&policy)
        .map_err(|e| format!("cannot read {}: {e}", policy.display()))?;
    let mut files = Vec::new();
    for (dir, class) in parse_classes(&text)? {
        let src = root.join(&dir).join("src");
        if !src.is_dir() {
            return Err(format!("`{dir}` is classified but has no src/ directory"));
        }
        if class == "sim" {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let listed = std::fs::read_dir(dir).and_then(|d| d.map(|e| Ok(e?.path())).collect());
    let paths: Vec<PathBuf> = listed.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<&'static str> {
        let r = lint_source(Path::new("a.rs"), src);
        r.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn findings_in_test_modules_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n  fn f(x: &[f64]) -> f64 { x.iter().sum::<f64>() }\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn a_justified_suppression_silences_and_is_counted() {
        let src = "fn f(x: &[f64]) -> f64 {\n  \
                   x.iter().sum::<f64>() // nocstar-lint: allow(float-accumulation): fixed order\n}";
        let r = lint_source(Path::new("a.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn an_unjustified_suppression_silences_nothing() {
        let src = "fn f(x: &[f64]) -> f64 {\n  \
                   x.iter().sum::<f64>() // nocstar-lint: allow(float-accumulation)\n}";
        assert_eq!(rules(src), vec![RULE, INVALID_SUPPRESSION]);
    }

    #[test]
    fn classes_parse_and_reject_anything_else() {
        let good = "# comment\n[crates]\n\".\" = \"sim\"  # facade\n\"crates/bench\" = \"tools\"\n";
        let classes = parse_classes(good).unwrap();
        assert_eq!(classes["."], "sim");
        assert_eq!(classes["crates/bench"], "tools");
        for bad in [
            "\"crates/x\" = \"sim\"",
            "[crates]\nbroken line",
            "[rules.sim]\nfloat-accumulation = \"error\"",
            "[crates]\n\"crates/x\" = \"ghost\"",
            "[crates]\n[crates]",
        ] {
            assert!(parse_classes(bad).is_err(), "accepted: {bad}");
        }
    }
}
