//! Fig 19: the TLB-storm microbenchmark — workloads run alone versus
//! concurrently with a co-runner that forces aggressive context switches
//! (flushing all TLB state) and continuously promotes/demotes superpages
//! (each promotion invalidating 512 L2 TLB entries) — for monolithic,
//! distributed and NOCSTAR at 16/32/64 cores.

use crate::{emit, parallel_map, simulate, Effort};
use nocstar::prelude::*;

/// Context-switch interval in trace events (aggressive, as in the paper's
/// 0.5 ms stress setting scaled to simulated run lengths).
const CTX_INTERVAL: u64 = 4_000;
/// Superpage promote/demote churn interval in trace events.
const CHURN_INTERVAL: u64 = 3_000;

const WORKLOADS: [Preset; 4] = [
    Preset::Canneal,
    Preset::Graph500,
    Preset::Gups,
    Preset::Xsbench,
];

fn run_one(effort: Effort, cores: usize, org: TlbOrg, preset: Preset, storm: bool) -> SimReport {
    let config = SystemConfig::new(cores, org);
    let workload = if storm {
        WorkloadAssignment::storm(&config, preset, CTX_INTERVAL, CHURN_INTERVAL)
    } else {
        WorkloadAssignment::preset(&config, preset)
    };
    simulate(config, workload, effort.warmup / 2, effort.accesses / 2)
}

/// Regenerates Fig 19.
pub fn run(effort: Effort) {
    let orgs = |cores: usize| {
        [
            ("Mono", TlbOrg::paper_monolithic(cores)),
            ("Dist", TlbOrg::paper_distributed()),
            ("NSTAR", TlbOrg::paper_nocstar()),
        ]
    };
    let mut table = Table::new(["cores", "organization", "alone", "w/ub"]);
    for cores in [16usize, 32, 64] {
        let jobs: Vec<(usize, TlbOrg)> = orgs(cores)
            .iter()
            .enumerate()
            .map(|(i, &(_, org))| (i, org))
            .collect();
        let rows = parallel_map(jobs, |&(_, org)| {
            let mut alone = Vec::new();
            let mut with_ub = Vec::new();
            for preset in WORKLOADS {
                let base_alone = run_one(effort, cores, TlbOrg::paper_private(), preset, false);
                let base_storm = run_one(effort, cores, TlbOrg::paper_private(), preset, true);
                alone.push(run_one(effort, cores, org, preset, false).speedup_vs(&base_alone));
                with_ub.push(run_one(effort, cores, org, preset, true).speedup_vs(&base_storm));
            }
            (Summary::of(alone).mean(), Summary::of(with_ub).mean())
        });
        for ((name, _), (alone, with_ub)) in orgs(cores).iter().zip(rows) {
            table.row([
                cores.to_string(),
                name.to_string(),
                format!("{alone:.3}"),
                format!("{with_ub:.3}"),
            ]);
        }
    }
    emit(
        "fig19",
        "Fig 19: TLB-storm microbenchmark — average speedup vs private (alone / with storm)",
        &table,
    );
}
