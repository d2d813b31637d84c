//! Single-run driver for trace replay: runs one workload under one
//! organization and persists the full `SimReport` as JSON, so a replayed
//! `.nct` file (via `--trace-file`, see `TRACE_FORMAT.md`) can be diffed
//! byte-for-byte against the live-generator run it captured. The nightly
//! CI gate does exactly that; see `scripts/ci.sh`.
//!
//! Flags (besides the harness-wide `--quick`, `--trace-file`, `--faults`):
//!
//! * `--cores <n>` — core count (default 16).
//! * `--org <name>` — `private`, `monolithic`, `distributed`, `nocstar`
//!   or `ideal` (default `nocstar`).
//! * `--preset <name>` — workload by paper label (default `redis`); with
//!   `--trace-file` the address streams come from the file and this only
//!   names the fallback/labels.
//! * `--warmup <n>` / `--measure <n>` — override the effort's per-thread
//!   access counts.

use crate::{bail, emit, out_dir, settings, Effort, Flag};
use nocstar::prelude::*;

/// The flags `replay` accepts besides the harness's own; its
/// [`Step`](super::Step) declares them, so a missing value or an
/// undeclared flag exits 2 before the run.
pub const FLAGS: &[Flag] = &[
    Flag::Value("--cores"),
    Flag::Value("--org"),
    Flag::Value("--preset"),
    Flag::Value("--warmup"),
    Flag::Value("--measure"),
];

fn parse_count(flag: &str) -> Option<u64> {
    settings().value(flag).map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|e| bail(format_args!("bad {flag} value {v:?}: {e}")))
    })
}

fn parse_org(name: &str, cores: usize) -> TlbOrg {
    match name {
        "private" => TlbOrg::paper_private(),
        "monolithic" => TlbOrg::paper_monolithic(cores),
        "distributed" => TlbOrg::paper_distributed(),
        "nocstar" => TlbOrg::paper_nocstar(),
        "ideal" => TlbOrg::paper_ideal(),
        other => bail(format_args!(
            "unknown --org {other:?} (expected private|monolithic|distributed|nocstar|ideal)"
        )),
    }
}

/// Runs the single configured simulation and persists its report.
pub fn run(effort: Effort) {
    let cores = parse_count("--cores").unwrap_or(16) as usize;
    let org = parse_org(settings().value("--org").unwrap_or("nocstar"), cores);
    let preset_name = settings().value("--preset").unwrap_or("redis");
    let preset = Preset::from_name(preset_name)
        .unwrap_or_else(|| bail(format_args!("unknown --preset {preset_name:?}")));
    let effort = Effort {
        warmup: parse_count("--warmup").unwrap_or(effort.warmup),
        accesses: parse_count("--measure").unwrap_or(effort.accesses),
        ..effort
    };

    let report = effort.run(cores, org, preset);

    let mut table = Table::new(["metric", "value"]);
    table.row(["workload".to_string(), report.label.clone()]);
    table.row(["organization".to_string(), report.org_label.clone()]);
    table.row(["cores".to_string(), report.cores.to_string()]);
    table.row(["cycles".to_string(), report.cycles.to_string()]);
    table.row(["accesses".to_string(), report.accesses.to_string()]);
    table.row([
        "l1 hit rate".to_string(),
        format!("{:.4}", report.l1.hit_rate()),
    ]);
    table.row([
        "l2 hit rate".to_string(),
        format!("{:.4}", report.l2.hit_rate()),
    ]);
    table.row(["page walks".to_string(), report.walks.to_string()]);
    emit("replay", "Trace replay: single-run report", &table);

    let path = out_dir().join("replay.report.json");
    let mut text = report.to_json().to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write replay report");
    println!("(saved {})\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Settings;

    fn parse(args: &[&str]) -> Result<Settings, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Settings::parse(&args, FLAGS)
    }

    #[test]
    fn a_value_flag_without_its_value_is_an_error_naming_it() {
        for &flag in FLAGS {
            let Flag::Value(name) = flag else {
                unreachable!("replay's flags all take values")
            };
            assert_eq!(parse(&[name]).unwrap_err(), format!("{name} needs a value"));
            let err = parse(&[name, "--quick"]).unwrap_err();
            assert_eq!(err, format!("{name} needs a value"));
        }
        assert!(parse(&["--cores", "4", "--org", "ideal", "--quick"]).is_ok());
        assert!(parse(&["--no-thp"]).unwrap_err().contains("--no-thp"));
    }
}
