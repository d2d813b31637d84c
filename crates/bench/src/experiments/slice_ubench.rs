//! §V's second pathological microbenchmark: N−1 threads continuously
//! hammer the L2 TLB slice of the Nth core while the victim core runs a
//! real workload. The paper finds NOCSTAR still beats private L2 TLBs by
//! 3–5 % and every other shared organization by ≥7 % even here.

use crate::{emit, parallel_map, simulate, Effort};
use nocstar::prelude::*;

/// Pages the hammer threads cycle through (all homed on the victim slice).
const HAMMER_PAGES: u64 = 4_096;

fn run_one(effort: Effort, cores: usize, org: TlbOrg) -> SimReport {
    let config = SystemConfig::new(cores, org);
    let workload = WorkloadAssignment::slice_hammer(&config, Preset::Canneal, HAMMER_PAGES);
    simulate(config, workload, effort.warmup / 2, effort.accesses / 2)
}

/// Regenerates the slice-congestion study.
pub fn run(effort: Effort) {
    let mut table = Table::new([
        "cores",
        "organization",
        "victim speedup vs private",
        "overall speedup vs private",
    ]);
    for cores in [16usize, 32] {
        let orgs = vec![
            ("Monolithic", TlbOrg::paper_monolithic(cores)),
            ("Distributed", TlbOrg::paper_distributed()),
            ("NOCSTAR", TlbOrg::paper_nocstar()),
        ];
        let base = run_one(effort, cores, TlbOrg::paper_private());
        let base_victim = *base.per_thread_finish.last().expect("victim thread") as f64;
        let rows = parallel_map(orgs, |&(name, org)| {
            let r = run_one(effort, cores, org);
            let victim = *r.per_thread_finish.last().expect("victim thread") as f64;
            (name, base_victim / victim.max(1.0), r.speedup_vs(&base))
        });
        for (name, victim, overall) in rows {
            table.row([
                cores.to_string(),
                name.to_string(),
                format!("{victim:.3}"),
                format!("{overall:.3}"),
            ]);
        }
    }
    emit(
        "slice_ubench",
        "TLB-slice congestion microbenchmark (N-1 threads hammering one slice)",
        &table,
    );
}
