//! Table III: sensitivity of the monolithic / distributed / NOCSTAR
//! speedups (min/avg/max over all workloads, 32 cores) to TLB prefetching
//! depth, SMT degree, and page-table-walk latency (variable vs fixed
//! 10/20/40/80 cycles).

use crate::{emit, parallel_map, Effort};
use nocstar::prelude::*;

#[derive(Clone, Copy)]
struct Scenario {
    label: &'static str,
    prefetch: u8,
    smt: usize,
    walk: WalkLatency,
}

const SCENARIOS: [Scenario; 10] = [
    Scenario {
        label: "no pref, SMT1, variable",
        prefetch: 0,
        smt: 1,
        walk: WalkLatency::Variable,
    },
    Scenario {
        label: "pref +/-1",
        prefetch: 1,
        smt: 1,
        walk: WalkLatency::Variable,
    },
    Scenario {
        label: "pref +/-1,2",
        prefetch: 2,
        smt: 1,
        walk: WalkLatency::Variable,
    },
    Scenario {
        label: "pref +/-1-3",
        prefetch: 3,
        smt: 1,
        walk: WalkLatency::Variable,
    },
    Scenario {
        label: "SMT2",
        prefetch: 0,
        smt: 2,
        walk: WalkLatency::Variable,
    },
    Scenario {
        label: "SMT4",
        prefetch: 0,
        smt: 4,
        walk: WalkLatency::Variable,
    },
    Scenario {
        label: "fixed-10 PTW",
        prefetch: 0,
        smt: 1,
        walk: WalkLatency::Fixed(Cycles::new(10)),
    },
    Scenario {
        label: "fixed-20 PTW",
        prefetch: 0,
        smt: 1,
        walk: WalkLatency::Fixed(Cycles::new(20)),
    },
    Scenario {
        label: "fixed-40 PTW",
        prefetch: 0,
        smt: 1,
        walk: WalkLatency::Fixed(Cycles::new(40)),
    },
    Scenario {
        label: "fixed-80 PTW",
        prefetch: 0,
        smt: 1,
        walk: WalkLatency::Fixed(Cycles::new(80)),
    },
];

/// Regenerates Table III.
pub fn run(effort: Effort) {
    let cores = 32;
    let mut table = Table::new(["scenario", "organization", "min", "avg", "max"]);
    for scenario in SCENARIOS {
        if effort.quick && scenario.smt > 2 {
            continue;
        }
        let orgs = [
            ("Monolithic", TlbOrg::paper_monolithic(cores)),
            ("Distributed", TlbOrg::paper_distributed()),
            ("NOCSTAR", TlbOrg::paper_nocstar()),
        ];
        let jobs: Vec<Preset> = Preset::ALL.to_vec();
        // SMT multiplies the thread count; shrink per-thread quotas to
        // keep scenario cost flat.
        let scaled = Effort {
            warmup: effort.warmup / scenario.smt as u64,
            accesses: (effort.accesses / scenario.smt as u64).max(1_000),
            ..effort
        };
        let tweak = |c: &mut SystemConfig| {
            c.smt = scenario.smt;
            c.prefetch = PrefetchDepth::new(scenario.prefetch).expect("depth <= 3");
            c.walk_latency = scenario.walk;
        };
        let per_workload = parallel_map(jobs, |&preset| {
            let baseline = scaled.run_with(cores, TlbOrg::paper_private(), preset, tweak);
            orgs.map(|(_, org)| {
                scaled
                    .run_with(cores, org, preset, tweak)
                    .speedup_vs(&baseline)
            })
        });
        for (i, (name, _)) in orgs.iter().enumerate() {
            let s = Summary::of(per_workload.iter().map(|w| w[i]));
            table.row([
                scenario.label.to_string(),
                name.to_string(),
                format!("{:.2}", s.min()),
                format!("{:.2}", s.mean()),
                format!("{:.2}", s.max()),
            ]);
        }
    }
    emit(
        "table3",
        "Table III: sensitivity to prefetching, SMT, and walk latency (32 cores)",
        &table,
    );
}
