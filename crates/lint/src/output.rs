//! Report rendering: human-readable, JSON, and SARIF 2.1.0.
//!
//! JSON and SARIF both serialize through `nocstar-json`, so equal reports
//! always produce byte-identical artifacts (the same property the
//! simulator's golden harness relies on).

use crate::policy::Severity;
use crate::{Finding, Report};
use nocstar_json::Json;
use std::fmt::Write as _;

/// Human-readable rendering, one line per finding plus a summary.
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}[{}]: {}:{}: {}\n    hint: {}",
            f.severity,
            f.rule,
            f.path.display(),
            f.line,
            f.message,
            f.hint
        );
    }
    let errors = report.error_count();
    let warns = report.findings.len() - errors;
    let _ = writeln!(
        out,
        "nocstar-lint: {} file(s) scanned, \
         {errors} error(s), {warns} warning(s), {} justified suppression(s)",
        report.files_scanned,
        report.suppressed.len()
    );
    out
}

fn finding_json(f: &Finding) -> Json {
    Json::obj(vec![
        ("rule", Json::str(&f.rule)),
        ("severity", Json::str(f.severity.name())),
        ("path", Json::str(f.path.to_string_lossy())),
        ("line", Json::U64(u64::from(f.line))),
        ("message", Json::str(&f.message)),
        ("hint", Json::str(&f.hint)),
    ])
}

/// JSON report: full findings, suppressions, and counts.
pub fn json(report: &Report) -> String {
    Json::obj(vec![
        ("tool", Json::str("nocstar-lint")),
        ("files_scanned", Json::U64(report.files_scanned as u64)),
        ("errors", Json::U64(report.error_count() as u64)),
        (
            "findings",
            Json::Arr(report.findings.iter().map(finding_json).collect()),
        ),
        (
            "suppressed",
            Json::Arr(report.suppressed.iter().map(finding_json).collect()),
        ),
    ])
    .to_string_pretty()
}

/// SARIF 2.1.0 report (the interchange format CI systems and code-scanning
/// UIs ingest). Suppressed findings are omitted; rule metadata rides in
/// `tool.driver.rules`.
pub fn sarif(report: &Report) -> String {
    let rules: Vec<Json> = crate::rules::registry()
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("id", Json::str(r.id())),
                (
                    "shortDescription",
                    Json::obj(vec![("text", Json::str(r.description()))]),
                ),
                ("help", Json::obj(vec![("text", Json::str(r.fix_hint()))])),
            ])
        })
        .collect();
    let results: Vec<Json> = report
        .findings
        .iter()
        .map(|f| {
            let level = match f.severity {
                Severity::Error => "error",
                Severity::Warn => "warning",
                Severity::Allow => "note",
            };
            Json::obj(vec![
                ("ruleId", Json::str(&f.rule)),
                ("level", Json::str(level)),
                ("message", Json::obj(vec![("text", Json::str(&f.message))])),
                (
                    "locations",
                    Json::Arr(vec![Json::obj(vec![(
                        "physicalLocation",
                        Json::obj(vec![
                            (
                                "artifactLocation",
                                Json::obj(vec![
                                    (
                                        "uri",
                                        Json::str(f.path.to_string_lossy().replace('\\', "/")),
                                    ),
                                    ("uriBaseId", Json::str("SRCROOT")),
                                ]),
                            ),
                            (
                                "region",
                                Json::obj(vec![("startLine", Json::U64(u64::from(f.line)))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("version", Json::str("2.1.0")),
        (
            "$schema",
            Json::str("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        (
            "runs",
            Json::Arr(vec![Json::obj(vec![
                (
                    "tool",
                    Json::obj(vec![(
                        "driver",
                        Json::obj(vec![
                            ("name", Json::str("nocstar-lint")),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "sim-unwrap".into(),
                severity: Severity::Error,
                path: PathBuf::from("crates/x/src/a.rs"),
                line: 7,
                message: "`.unwrap()` panics on the failure path".into(),
                hint: "propagate a SimError".into(),
            }],
            suppressed: vec![],
            files_scanned: 3,
        }
    }

    #[test]
    fn human_output_names_rule_path_and_line() {
        let text = human(&sample());
        assert!(text.contains("error[sim-unwrap]: crates/x/src/a.rs:7:"));
        assert!(text.contains("1 error(s)"));
        assert!(text.contains("3 file(s) scanned, 1 error(s)"), "{text}");
    }

    #[test]
    fn json_and_sarif_are_valid_and_deterministic() {
        let r = sample();
        let j1 = json(&r);
        let s1 = sarif(&r);
        assert_eq!(j1, json(&r));
        assert_eq!(s1, sarif(&r));
        let parsed = nocstar_json::Json::parse(&j1).unwrap();
        assert_eq!(parsed.get("errors").unwrap().as_u64(), Some(1));
        let parsed = nocstar_json::Json::parse(&s1).unwrap();
        assert_eq!(
            parsed.get("version").unwrap().as_str(),
            Some("2.1.0"),
            "SARIF version"
        );
        let runs = parsed.get("runs").unwrap().as_array().unwrap();
        let results = runs[0].get("results").unwrap().as_array().unwrap();
        assert_eq!(
            results[0].get("ruleId").unwrap().as_str(),
            Some("sim-unwrap")
        );
    }
}
