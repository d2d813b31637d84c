//! Fixture-based rule tests: every rule has a known-bad snippet that must
//! fire (and fail the CLI with exit code 1) and a known-good snippet that
//! must stay silent, plus suppression-grammar fixtures proving that a
//! justified `allow(...)` silences a finding while an unjustified one is
//! itself a build-failing error.

use nocstar_lint::policy::Policy;
use nocstar_lint::{lint_source, Report};
use std::path::{Path, PathBuf};
use std::process::Command;

/// (fixture directory, rule id) for every shipped rule and every
/// resolution-path variant. Every rule is error severity under the shipped
/// sim policy, so every bad fixture fails the build.
const RULES: &[(&str, &str)] = &[
    ("unordered_iteration", "unordered-iteration"),
    ("unordered_resolved", "unordered-iteration"),
    ("wall_clock", "wall-clock"),
    ("entropy_rng", "entropy-rng"),
    ("sim_unwrap", "sim-unwrap"),
    ("event_time_regression", "event-time-regression"),
    ("float_accumulation", "float-accumulation"),
    ("tainted_event_time", "tainted-event-time"),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(dir: &str, name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name)
}

fn shipped_policy() -> Policy {
    Policy::load(&workspace_root().join("nocstar-lint.toml")).expect("shipped policy parses")
}

fn lint_fixture(dir: &str, name: &str) -> Report {
    let path = fixture(dir, name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    lint_source(&path, "sim", &text, &shipped_policy())
}

#[test]
fn every_bad_fixture_fires_its_rule() {
    for (dir, rule) in RULES {
        let report = lint_fixture(dir, "bad.rs");
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == *rule).collect();
        assert!(
            !hits.is_empty(),
            "{dir}/bad.rs produced no `{rule}` finding: {:?}",
            report.findings
        );
        assert!(
            report.error_count() > 0,
            "{dir}/bad.rs findings must be error severity under the shipped sim policy"
        );
    }
}

#[test]
fn every_good_fixture_is_clean() {
    for (dir, rule) in RULES {
        let report = lint_fixture(dir, "good.rs");
        assert!(
            report.findings.is_empty(),
            "{dir}/good.rs must be clean of `{rule}` (and everything else, warnings \
             included): {:?}",
            report.findings
        );
    }
}

#[test]
fn entropy_rule_fires_inside_test_modules_too() {
    // Unlike the other rules, entropy-rng does not exempt #[cfg(test)]
    // regions: a nondeterministic test is a flaky test. The bad fixture
    // deliberately seeds entropy from inside a test module.
    let report = lint_fixture("entropy_rng", "bad.rs");
    let text = std::fs::read_to_string(fixture("entropy_rng", "bad.rs")).unwrap();
    let test_mod_line = text
        .lines()
        .position(|l| l.contains("rand::random") && text.contains("#[cfg(test)]"))
        .expect("fixture has an in-test entropy call") as u32;
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "entropy-rng" && f.line > test_mod_line),
        "expected an entropy-rng finding inside the #[cfg(test)] module: {:?}",
        report.findings
    );
}

#[test]
fn justified_suppression_silences_but_is_reported() {
    let report = lint_fixture("suppression", "justified.rs");
    assert!(
        report.findings.is_empty(),
        "a justified allow(...) must silence the finding: {:?}",
        report.findings
    );
    assert_eq!(
        report.suppressed.len(),
        1,
        "the waived finding must still appear in the suppressed list for CI artifacts"
    );
    assert_eq!(report.suppressed[0].rule, "sim-unwrap");
}

#[test]
fn suppression_without_justification_is_rejected() {
    let report = lint_fixture("suppression", "missing_justification.rs");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(
        rules.contains(&"sim-unwrap"),
        "an unjustified allow(...) must not silence the original finding: {rules:?}"
    );
    assert!(
        rules.contains(&"invalid-suppression"),
        "the malformed suppression must itself be an error: {rules:?}"
    );
    assert!(report.error_count() >= 2);
}

#[test]
fn stale_suppression_is_an_error() {
    let report = lint_fixture("suppression", "stale.rs");
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "invalid-suppression")
        .collect();
    assert_eq!(
        stale.len(),
        1,
        "a suppression whose rule ran but matched nothing must be flagged stale: {:?}",
        report.findings
    );
    assert!(
        stale[0].message.contains("stale"),
        "the finding must say why: {}",
        stale[0].message
    );
    assert!(report.suppressed.is_empty(), "nothing was actually waived");
}

#[test]
fn suppression_naming_unknown_rule_is_an_error() {
    let report = lint_fixture("suppression", "unknown_rule.rs");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(
        rules.contains(&"invalid-suppression"),
        "a typo'd rule id must fail the build, not silently no-op: {rules:?}"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("unknown rule `no-such-rule`")),
        "the finding must name the bad id: {:?}",
        report.findings
    );
}

/// Drives the real binary the way CI does, against an explicit file list
/// under the sim class, and returns its exit code.
fn cli_exit_code(file: &Path) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_nocstar-lint"))
        .arg("--root")
        .arg(workspace_root())
        .arg("--class")
        .arg("sim")
        .arg("--quiet")
        .arg(file)
        .output()
        .expect("nocstar-lint binary runs");
    out.status.code().expect("binary exits normally")
}

#[test]
fn cli_exit_codes_track_fixture_severity() {
    for (dir, rule) in RULES {
        assert_eq!(
            cli_exit_code(&fixture(dir, "bad.rs")),
            1,
            "`{rule}` bad fixture ({dir}) must exit 1 under the shipped policy"
        );
        assert_eq!(
            cli_exit_code(&fixture(dir, "good.rs")),
            0,
            "`{rule}` good fixture ({dir}) must pass the CLI gate"
        );
    }
}

#[test]
fn cli_writes_json_and_sarif_artifacts() {
    let tmp = workspace_root().join("target/lint-test-artifacts");
    let json_path = tmp.join("report.json");
    let sarif_path = tmp.join("report.sarif");
    let out = Command::new(env!("CARGO_BIN_EXE_nocstar-lint"))
        .arg("--root")
        .arg(workspace_root())
        .arg("--class")
        .arg("sim")
        .arg("--quiet")
        .arg("--json-out")
        .arg(&json_path)
        .arg("--sarif-out")
        .arg(&sarif_path)
        .arg(fixture("sim_unwrap", "bad.rs"))
        .output()
        .expect("nocstar-lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    assert!(
        json.contains("sim-unwrap"),
        "JSON artifact names the firing rule: {json}"
    );
    let sarif = std::fs::read_to_string(&sarif_path).expect("SARIF artifact written");
    assert!(
        sarif.contains("\"version\": \"2.1.0\"") || sarif.contains("\"version\":\"2.1.0\""),
        "SARIF artifact declares schema version: {sarif}"
    );
    assert!(sarif.contains("sim-unwrap"));
}
