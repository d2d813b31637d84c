//! Policy-coverage invariants: the shipped `nocstar-lint.toml` must
//! classify every workspace crate, so a newly added crate cannot
//! silently escape the deterministic-crate class, and the repo tree
//! itself must lint clean under that policy.

use nocstar_lint::policy::{Policy, Severity};
use nocstar_lint::{lint_workspace, rules};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn shipped_policy() -> Policy {
    Policy::load(&workspace_root().join("nocstar-lint.toml")).expect("shipped policy parses")
}

/// Crates whose code can affect a SimReport; these must stay in the
/// `sim` class no matter how the policy file is edited.
const SIM_CRATES: &[&str] = &[
    "crates/core",
    "crates/faults",
    "crates/mem",
    "crates/noc",
    "crates/stats",
    "crates/tlb",
    "crates/workloads",
];

#[test]
fn every_workspace_crate_is_classified() {
    let root = workspace_root();
    let policy = shipped_policy();
    let crates_dir = root.join("crates");
    let mut missing = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)
        .expect("crates/ listable")
        .map(|e| e.expect("entry readable").path())
        .collect();
    entries.sort();
    for path in entries {
        if !path.join("Cargo.toml").is_file() {
            continue;
        }
        let rel = path
            .strip_prefix(&root)
            .expect("under root")
            .to_string_lossy()
            .replace('\\', "/");
        if !policy.crates.contains_key(rel.as_str()) {
            missing.push(rel);
        }
    }
    // The facade crate at the workspace root must be classified too.
    assert!(
        policy.crates.contains_key("."),
        "the root facade crate must be classified (add `\".\"` to [crates])"
    );
    assert!(
        missing.is_empty(),
        "crates missing from nocstar-lint.toml [crates] (classify each as \
         `sim` or `tools` so it cannot escape the determinism gate): {missing:?}"
    );
}

#[test]
fn classified_dirs_all_exist() {
    // The reverse direction: a stale policy entry for a deleted crate
    // would make lint_workspace fail with a confusing I/O error.
    let root = workspace_root();
    for dir in shipped_policy().crates.keys() {
        assert!(
            root.join(dir).join("src").is_dir(),
            "policy classifies `{dir}` but it has no src/ directory"
        );
    }
}

#[test]
fn sim_crates_cannot_be_declassified() {
    let policy = shipped_policy();
    for dir in SIM_CRATES {
        assert_eq!(
            policy.crates.get(*dir).map(String::as_str),
            Some("sim"),
            "`{dir}` holds simulation state and must stay in the sim class"
        );
    }
}

/// The pinned sim-class severity floor: every rule is `error`.
const SIM_SEVERITIES: &[(&str, Severity)] = &[
    ("unordered-iteration", Severity::Error),
    ("wall-clock", Severity::Error),
    ("entropy-rng", Severity::Error),
    ("sim-unwrap", Severity::Error),
    ("event-time-regression", Severity::Error),
    ("float-accumulation", Severity::Error),
    ("tainted-event-time", Severity::Error),
];

#[test]
fn sim_class_severities_are_pinned() {
    let policy = shipped_policy();
    for (rule, want) in SIM_SEVERITIES {
        assert_eq!(
            policy.severity("sim", rule),
            *want,
            "rule `{rule}` must be {} severity for sim crates",
            want.name()
        );
    }
    // The table above must cover the registry exactly, so a new rule
    // cannot ship without a pinned sim severity.
    let pinned: Vec<&str> = SIM_SEVERITIES.iter().map(|(r, _)| *r).collect();
    for rule in rules::registry() {
        assert!(
            pinned.contains(&rule.id()),
            "rule `{}` has no pinned sim severity — add it to SIM_SEVERITIES",
            rule.id()
        );
    }
    assert_eq!(
        pinned.len(),
        rules::registry().len(),
        "stale SIM_SEVERITIES entry"
    );
}

#[test]
fn every_rule_is_configured_in_every_class() {
    // No rule may ship unclassified: both [rules.sim] and [rules.tools]
    // must take an explicit position (even if that position is `allow`)
    // on every registry rule, so adding a rule forces a policy decision.
    let policy = shipped_policy();
    for class in ["sim", "tools"] {
        let table = policy
            .rules
            .get(class)
            .unwrap_or_else(|| panic!("policy has no [rules.{class}] table"));
        for rule in rules::registry() {
            assert!(
                table.contains_key(rule.id()),
                "[rules.{class}] takes no position on `{}` — add an explicit entry",
                rule.id()
            );
        }
    }
}

#[test]
fn every_class_in_use_has_a_rules_table() {
    let policy = shipped_policy();
    for (dir, class) in &policy.crates {
        assert!(
            policy.rules.contains_key(class),
            "crate `{dir}` uses class `{class}` but the policy has no [rules.{class}] table"
        );
    }
}

#[test]
fn repo_tree_lints_clean() {
    let report = lint_workspace(&workspace_root(), &shipped_policy()).expect("workspace lints");
    let errors: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| format!("{}:{} {} — {}", f.path.display(), f.line, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "the repo must lint clean (fix or justify each):\n{}",
        errors.join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — policy coverage broke?",
        report.files_scanned
    );
}
