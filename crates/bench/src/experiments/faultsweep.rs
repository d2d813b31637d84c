//! Graceful-degradation sweep: the NOCSTAR organization under a ladder of
//! injected fault plans, against its own fault-free run. Not a paper
//! figure — a robustness study of the reproduction itself: every degraded
//! run must complete the same work (no translation is ever lost), paying
//! only cycles.
//!
//! The sweep sets each run's fault plan itself, so
//! `nocstar-bench faultsweep` exits with code 2 when given `--faults`,
//! `--recovery` or `--sample`.

use crate::{emit, parallel_map, settings, Effort, Settings};
use nocstar::prelude::*;

/// The fault ladder: one spec per row, windows sized in cycles so even
/// `--quick` runs (tens of thousands of cycles) spend real time inside
/// each fault window.
const PLANS: [(&str, &str); 5] = [
    ("fault-free", ""),
    ("setup-denial burst", "deny@2000-12000"),
    ("degraded links", "link:*@0-50000=+2"),
    ("link outage", "link:*@4000-9000=off"),
    ("walk spike x8", "walk@2000-30000=x8"),
];

fn run_one(effort: Effort, cores: usize, spec: &str) -> SimReport {
    let config = SystemConfig::new(cores, TlbOrg::paper_nocstar());
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let settings = Settings {
        faults: spec.parse().expect("fault ladder spec"),
        ..settings().clone()
    };
    // Fault windows act on absolute cycles, so warmup would eat them:
    // measure from cycle zero instead.
    settings.simulate(config, workload, 0, effort.accesses / 2)
}

/// Regenerates the fault-degradation sweep.
pub fn run(effort: Effort) {
    let mut table = Table::new(["fault plan", "spec", "cycles", "slowdown", "walks"]);
    for cores in [16usize] {
        let baseline = run_one(effort, cores, "");
        let rows = parallel_map(PLANS.to_vec(), |&(name, spec)| {
            let r = run_one(effort, cores, spec);
            (name, spec, r.cycles, r.walks)
        });
        for (name, spec, cycles, walks) in rows {
            table.row([
                name.to_string(),
                if spec.is_empty() { "-" } else { spec }.to_string(),
                cycles.to_string(),
                format!("{:.3}", cycles as f64 / baseline.cycles.max(1) as f64),
                walks.to_string(),
            ]);
        }
    }
    emit(
        "faultsweep",
        "Graceful degradation under injected faults (NOCSTAR, 16 cores, redis)",
        &table,
    );
}
