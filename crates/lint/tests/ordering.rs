//! Finding-order stability: however files reach the linter (and in
//! whatever argument order), every emitter — human, JSON, SARIF — must
//! present findings sorted by (path, line, rule id), so diffs between CI
//! runs are semantic, never positional.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(dir: &str, name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name)
}

/// One (path, line, rule) key per finding, in emitted order.
type Key = (String, u64, String);

#[test]
fn finding_order_is_pinned_across_all_emitters() {
    // Deliberately scrambled argument order: reverse-alphabetical, with
    // a multi-finding fixture in the middle.
    let args = [
        fixture("wall_clock", "bad.rs"),
        fixture("unordered_resolved", "bad.rs"),
        fixture("sim_unwrap", "bad.rs"),
        fixture("float_accumulation", "bad.rs"),
    ];
    let tmp = workspace_root().join("target/lint-test-ordering");
    let json_path = tmp.join("report.json");
    let sarif_path = tmp.join("report.sarif");
    let out = Command::new(env!("CARGO_BIN_EXE_nocstar-lint"))
        .arg("--root")
        .arg(workspace_root())
        .arg("--class")
        .arg("sim")
        .arg("--json-out")
        .arg(&json_path)
        .arg("--sarif-out")
        .arg(&sarif_path)
        .args(&args)
        .output()
        .expect("nocstar-lint binary runs");
    assert_eq!(out.status.code(), Some(1), "bad fixtures fail the gate");

    let json_keys = json_keys(&std::fs::read_to_string(&json_path).expect("json artifact"));
    assert!(
        json_keys.len() >= 6,
        "expected many findings: {json_keys:?}"
    );
    let mut sorted = json_keys.clone();
    sorted.sort();
    assert_eq!(
        json_keys, sorted,
        "JSON findings must be (path, line, rule)-sorted"
    );

    let human_keys = human_keys(&String::from_utf8_lossy(&out.stderr));
    assert_eq!(human_keys, json_keys, "human output must match JSON order");

    let sarif_keys = sarif_keys(&std::fs::read_to_string(&sarif_path).expect("sarif artifact"));
    assert_eq!(sarif_keys, json_keys, "SARIF results must match JSON order");
}

fn json_keys(text: &str) -> Vec<Key> {
    let doc = nocstar_json::Json::parse(text).expect("valid json");
    doc.get("findings")
        .and_then(|f| f.as_array())
        .expect("findings array")
        .iter()
        .map(|f| {
            (
                f.get("path").unwrap().as_str().unwrap().to_string(),
                f.get("line").unwrap().as_u64().unwrap(),
                f.get("rule").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn human_keys(text: &str) -> Vec<Key> {
    // Lines look like `error[rule]: path:line: message`.
    text.lines()
        .filter_map(|l| {
            let (sev_rule, rest) = l.split_once("]: ")?;
            let rule = sev_rule.split_once('[')?.1.to_string();
            if rule == "hint" {
                return None;
            }
            let mut parts = rest.splitn(3, ':');
            let path = parts.next()?.to_string();
            let line: u64 = parts.next()?.parse().ok()?;
            Some((path, line, rule))
        })
        .collect()
}

fn sarif_keys(text: &str) -> Vec<Key> {
    let doc = nocstar_json::Json::parse(text).expect("valid sarif");
    let runs = doc.get("runs").unwrap().as_array().unwrap();
    runs[0]
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| {
            let loc = &r.get("locations").unwrap().as_array().unwrap()[0];
            let phys = loc.get("physicalLocation").unwrap();
            let path = phys
                .get("artifactLocation")
                .unwrap()
                .get("uri")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            let line = phys
                .get("region")
                .unwrap()
                .get("startLine")
                .unwrap()
                .as_u64()
                .unwrap();
            let rule = r.get("ruleId").unwrap().as_str().unwrap().to_string();
            (path, line, rule)
        })
        .collect()
}
