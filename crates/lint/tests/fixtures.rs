//! Fixture-based tests of the float-accumulation rule and the
//! suppression grammar: the known-bad snippet must fire (and fail the CLI
//! with exit code 1), the known-good one must stay silent, a justified
//! `allow(...)` silences a finding, and a malformed or stale one is
//! itself a build-failing finding. The fixtures of the rules that clippy
//! now checks live in `clippy_fixtures/`, checked by `scripts/ci.sh`.

use nocstar_lint::{lint_source, Report, INVALID_SUPPRESSION, RULE};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(dir: &str, name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name)
}

fn lint_fixture(dir: &str, name: &str) -> Report {
    let path = fixture(dir, name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    lint_source(&path, &text)
}

fn finding_lines(report: &Report, rule: &str) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn the_bad_fixture_fires_on_every_detection_path() {
    let report = lint_fixture("float_accumulation", "bad.rs");
    // Chain, turbofish, fold seed, float-aliased `let`, typed loop
    // accumulator and untyped `let mut sum = 0.0` accumulator.
    assert_eq!(
        finding_lines(&report, RULE),
        vec![9, 14, 18, 22, 29, 37],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 6);
}

#[test]
fn the_good_fixture_is_clean() {
    let report = lint_fixture("float_accumulation", "good.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn justified_suppression_silences_and_is_counted() {
    let report = lint_fixture("suppression", "justified.rs");
    assert!(
        report.findings.is_empty(),
        "a justified allow(...) must silence the finding: {:?}",
        report.findings
    );
    assert_eq!(report.suppressed, 1, "the waived finding is still counted");
}

#[test]
fn suppression_without_justification_is_rejected() {
    let report = lint_fixture("suppression", "missing_justification.rs");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec![INVALID_SUPPRESSION, RULE],
        "an unjustified allow(...) must not silence the finding, and is itself an error"
    );
}

#[test]
fn stale_suppression_is_an_error() {
    let report = lint_fixture("suppression", "stale.rs");
    assert_eq!(finding_lines(&report, INVALID_SUPPRESSION), vec![6]);
    assert!(
        report.findings[0].message.contains("stale"),
        "the finding must say why: {}",
        report.findings[0].message
    );
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.suppressed, 0, "nothing was actually waived");
}

#[test]
fn suppression_in_test_code_is_stale() {
    let report = lint_fixture("suppression", "in_test_code.rs");
    assert_eq!(
        report.findings.len(),
        1,
        "only the dead suppression is a finding: {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, INVALID_SUPPRESSION);
    assert!(
        f.message.contains("stale") && f.message.contains("does not run"),
        "the finding must say the rule does not run in test code: {}",
        f.message
    );
    assert_eq!(report.suppressed, 0, "nothing was actually waived");
}

#[test]
fn suppression_naming_unknown_rule_is_an_error() {
    let report = lint_fixture("suppression", "unknown_rule.rs");
    assert_eq!(finding_lines(&report, INVALID_SUPPRESSION), vec![6]);
    assert!(
        report.findings[0]
            .message
            .contains("unknown rule `no-such-rule`"),
        "the finding must name the bad id: {:?}",
        report.findings
    );
}

/// Runs the real binary on `files` and returns its exit code and stderr.
fn cli(files: &[PathBuf]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nocstar-lint"))
        .args(files)
        .output()
        .expect("nocstar-lint binary runs");
    let code = out.status.code().expect("binary exits normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn cli_exit_codes_track_findings() {
    assert_eq!(cli(&[fixture("float_accumulation", "good.rs")]).0, 0);
    assert_eq!(cli(&[fixture("float_accumulation", "bad.rs")]).0, 1);
    assert_eq!(cli(&[fixture("suppression", "stale.rs")]).0, 1);
    let (code, err) = cli(&[PathBuf::from("--json-out")]);
    assert_eq!(code, 2, "retired options are refused: {err}");
}

#[test]
fn cli_reports_findings_in_path_and_line_order() {
    // Deliberately scrambled argument order.
    let (code, err) = cli(&[
        fixture("suppression", "stale.rs"),
        fixture("float_accumulation", "bad.rs"),
        fixture("suppression", "missing_justification.rs"),
    ]);
    assert_eq!(code, 1);
    let keys: Vec<(String, u32)> = err
        .lines()
        .filter_map(|l| l.strip_prefix("error["))
        .map(|l| {
            let at = l.split("]: ").nth(1).expect("`rule]: path:line: message`");
            let mut parts = at.splitn(3, ':');
            let path = parts.next().expect("path").to_string();
            (path, parts.next().expect("line").parse().expect("number"))
        })
        .collect();
    assert_eq!(keys.len(), 9, "{err}");
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be (path, line)-sorted:\n{err}");
}
