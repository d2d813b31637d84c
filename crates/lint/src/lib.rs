//! # nocstar-lint — determinism & simulator-invariant static analysis
//!
//! NOCSTAR's headline results rest on byte-identical, seed-deterministic
//! cycle-level reports. The runtime guards (golden snapshots, the
//! determinism suite) catch drift *after* it happens; this crate catches
//! the three classic ways drift lands — hash-ordered iteration,
//! wall-clock reads, entropy-seeded RNG — plus order-sensitive float
//! reduction and two simulator invariants (no panicking extraction in
//! sim code, no in-place event-timestamp mutation) at analysis time.
//!
//! The environment vendors no `syn`, and the rules do not need one: a
//! small Rust lexer ([`lexer`]) turns each file into tokens and comments,
//! and every rule ([`rules`]) is a token pattern. Where a rule must see
//! through a local rename (`use … HashMap as Map`, `type Score = f64`),
//! one token helper, `rules::aliases`, collects the names a file
//! introduces for a root type. `#[cfg(test)]` regions, string/char
//! literals and comments are excluded soundly. Rules are configured per
//! crate *class* (deterministic sim crates vs. bench/tools) by a TOML
//! policy file ([`policy`], `nocstar-lint.toml` at the workspace root).
//! Findings can be suppressed inline with
//! `// nocstar-lint: allow(<rule>): <justification>` — the justification
//! is mandatory, its absence is itself a build-failing finding, and a
//! suppression whose rules ran (or cannot run, as in test code) but
//! matched nothing is *stale* and fails the build too.
//!
//! Run it as `cargo run -p nocstar-lint`; see `--help` for output
//! formats (human, JSON, SARIF) and CI wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod output;
pub mod policy;
pub mod rules;
pub mod source;

use policy::{Policy, Severity};
use rules::INVALID_SUPPRESSION;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// One reportable finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`sim-unwrap`, …, or `invalid-suppression`).
    pub rule: String,
    /// Severity under the file's class policy.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, in (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified suppression (kept for the JSON
    /// report so CI artifacts show what is being waived and why).
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of error-severity findings (what CI fails on).
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.suppressed.extend(other.suppressed);
        self.files_scanned += other.files_scanned;
    }

    /// Canonical ordering for deterministic output.
    pub fn sort(&mut self) {
        let key = |f: &Finding| (f.path.clone(), f.line, f.rule.clone());
        self.findings.sort_by_key(key);
        self.suppressed.sort_by_key(key);
    }
}

/// Lints one file's source text under the class's policy. `rel_path` is
/// the workspace-relative path used for reporting and `[exempt]` lookup.
pub fn lint_source(rel_path: &Path, class: &str, text: &str, policy: &Policy) -> Report {
    let file = SourceFile::analyze(rel_path.to_path_buf(), class, text);
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };
    let rel = rel_path.to_string_lossy();
    let registry = rules::registry();
    let mut used_suppressions = std::collections::BTreeSet::new();
    for rule in &registry {
        let severity = policy.severity(class, rule.id());
        if severity == Severity::Allow || policy.exempted(&rel, rule.id()) {
            continue;
        }
        let mut raw = Vec::new();
        rule.check(&file, &mut raw);
        for r in raw {
            if rule.exempts_test_code() && file.in_test_code(r.line) {
                continue;
            }
            let finding = Finding {
                rule: rule.id().to_string(),
                severity,
                path: rel_path.to_path_buf(),
                line: r.line,
                message: r.message,
                hint: rule.fix_hint().to_string(),
            };
            if let Some(idx) = file.suppression_index(rule.id(), r.line) {
                used_suppressions.insert(idx);
                report.suppressed.push(finding);
            } else {
                report.findings.push(finding);
            }
        }
    }
    // Malformed suppressions are always errors, in every class, and are
    // themselves unsuppressable.
    for (line, why) in &file.bad_suppressions {
        report
            .findings
            .push(invalid_suppression(rel_path, *line, why.clone()));
    }
    // Stale / nonsense suppressions. A well-formed suppression that names
    // an unknown rule (or the meta rule itself) is malformed; one whose
    // rules all ran on its covered lines yet silenced nothing is stale —
    // the code it excused was fixed, so the comment must go too. A rule
    // that skips test code counts as having run there: a suppression in
    // test code can never silence it.
    for (idx, s) in file.suppressions.iter().enumerate() {
        let mut problems: Vec<String> = Vec::new();
        for rid in &s.rules {
            if rid == INVALID_SUPPRESSION {
                problems.push(format!("`{rid}` cannot be suppressed"));
            } else if !registry.iter().any(|r| r.id() == rid) {
                problems.push(format!("unknown rule `{rid}`"));
            }
        }
        if !problems.is_empty() {
            report.findings.push(invalid_suppression(
                rel_path,
                s.line,
                format!("suppression names {}", problems.join(", ")),
            ));
            continue;
        }
        if used_suppressions.contains(&idx) {
            continue;
        }
        let all_ran = s.rules.iter().all(|rid| {
            policy.severity(class, rid) != Severity::Allow && !policy.exempted(&rel, rid)
        });
        if !all_ran {
            continue;
        }
        let covered_in_test = file.in_test_code(s.covers.0) || file.in_test_code(s.covers.1);
        let skipped: Vec<&str> = registry
            .iter()
            .filter(|r| {
                covered_in_test && r.exempts_test_code() && s.rules.iter().any(|rid| rid == r.id())
            })
            .map(|r| r.id())
            .collect();
        let why = if skipped.is_empty() {
            "matched no finding on the lines it covers".to_string()
        } else {
            format!(
                "covers test code, where `{}` does not run",
                skipped.join("`, `")
            )
        };
        report.findings.push(invalid_suppression(
            rel_path,
            s.line,
            format!(
                "stale suppression: `allow({})` {why} — delete the comment",
                s.rules.join(", ")
            ),
        ));
    }
    report
}

fn invalid_suppression(rel_path: &Path, line: u32, message: String) -> Finding {
    Finding {
        rule: INVALID_SUPPRESSION.to_string(),
        severity: Severity::Error,
        path: rel_path.to_path_buf(),
        line,
        message,
        hint: "every suppression must carry a non-empty justification and silence \
               at least one live finding"
            .to_string(),
    }
}

/// Lints every `src/` tree the policy classifies, rooted at `root`.
///
/// # Errors
///
/// An error string naming the first unreadable directory or file.
pub fn lint_workspace(root: &Path, policy: &Policy) -> Result<Report, String> {
    let mut report = Report::default();
    for (dir, class) in &policy.crates {
        let src = root.join(dir).join("src");
        if !src.is_dir() {
            return Err(format!(
                "policy classifies `{dir}` but `{}` is not a directory",
                src.display()
            ));
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path);
            report.merge(lint_source(rel, class, &text, policy));
        }
    }
    report.sort();
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
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

    fn sim_policy() -> Policy {
        Policy::parse(
            r#"
            [crates]
            "crates/x" = "sim"
            [rules.sim]
            unordered-iteration = "error"
            wall-clock = "error"
            entropy-rng = "error"
            sim-unwrap = "error"
            event-time-regression = "error"
            [exempt]
            "crates/x/src/event.rs" = "event-time-regression"
            "#,
        )
        .unwrap()
    }

    fn lint(path: &str, src: &str) -> Report {
        lint_source(Path::new(path), "sim", src, &sim_policy())
    }

    #[test]
    fn findings_in_test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn f() { x.unwrap(); }\n}";
        let r = lint("crates/x/src/a.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn exempt_file_skips_only_its_rule() {
        let src = "fn f() { e.at = now; let m = std::collections::HashMap::new(); }";
        let r = lint("crates/x/src/event.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(!rules.contains(&"event-time-regression"), "{rules:?}");
        assert!(rules.contains(&"unordered-iteration"));
    }

    #[test]
    fn suppressed_findings_move_to_the_suppressed_list() {
        let src =
            "fn f() {\n  x.unwrap() // nocstar-lint: allow(sim-unwrap): length checked on entry\n}";
        let r = lint("crates/x/src/a.rs", src);
        assert_eq!(r.findings.len(), 0, "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn unjustified_suppression_is_an_error_finding() {
        let src = "fn f() {\n  x.unwrap() // nocstar-lint: allow(sim-unwrap)\n}";
        let r = lint("crates/x/src/a.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(
            rules.contains(&"sim-unwrap"),
            "unjustified must not silence"
        );
        assert!(rules.contains(&"invalid-suppression"));
        assert_eq!(r.error_count(), 2);
    }
}
