//! Fig 16: (left) NOCSTAR link-reservation modes — one round-trip acquire
//! versus two one-way acquires — at 16/32/64 cores; (right) TLB
//! invalidation (shootdown) leader granularity: every core relaying its
//! own invalidations versus one leader per 4 / per 8 cores versus a
//! single chip-wide leader.
//!
//! Shootdown-heavy behaviour is what differentiates the leader policies,
//! so the right panel raises each workload's remap rate (the paper's
//! workloads run on an OS doing real page migration).

use crate::{emit, parallel_map, simulate, Effort};
use nocstar::prelude::*;

const WORKLOADS: [Preset; 4] = [
    Preset::Canneal,
    Preset::Graph500,
    Preset::Gups,
    Preset::Xsbench,
];

fn run_nocstar(
    effort: Effort,
    cores: usize,
    preset: Preset,
    acquire: AcquireMode,
    leader: LeaderPolicy,
    remap_boost: f64,
) -> SimReport {
    let org = TlbOrg::Nocstar {
        slice_entries: 920,
        hpc_max: 16,
        acquire,
        ideal_fabric: false,
    };
    let mut config = SystemConfig::new(cores, org);
    config.leader_policy = leader;
    let mut spec = preset.spec();
    spec.remaps_per_million *= remap_boost;
    let workload = WorkloadAssignment::homogeneous(&config, spec);
    simulate(config, workload, effort.warmup, effort.accesses)
}

fn baseline(effort: Effort, cores: usize, preset: Preset, remap_boost: f64) -> SimReport {
    let config = SystemConfig::new(cores, TlbOrg::paper_private());
    let mut spec = preset.spec();
    spec.remaps_per_million *= remap_boost;
    let workload = WorkloadAssignment::homogeneous(&config, spec);
    simulate(config, workload, effort.warmup, effort.accesses)
}

/// Regenerates Fig 16 (both panels).
pub fn run(effort: Effort) {
    // Left: acquire-mode speedups vs private.
    let mut left = Table::new(["cores", "workload", "1x two-way", "2x one-way"]);
    for cores in [16usize, 32, 64] {
        let rows = parallel_map(WORKLOADS.to_vec(), |&preset| {
            let base = baseline(effort, cores, preset, 1.0);
            let round = run_nocstar(
                effort,
                cores,
                preset,
                AcquireMode::RoundTrip,
                LeaderPolicy::EveryCore,
                1.0,
            );
            let one_way = run_nocstar(
                effort,
                cores,
                preset,
                AcquireMode::OneWay,
                LeaderPolicy::EveryCore,
                1.0,
            );
            (preset, round.speedup_vs(&base), one_way.speedup_vs(&base))
        });
        let mut two_way = Vec::new();
        let mut one_way_all = Vec::new();
        for (preset, rt, ow) in rows {
            left.row([
                cores.to_string(),
                preset.name().to_string(),
                format!("{rt:.3}"),
                format!("{ow:.3}"),
            ]);
            two_way.push(rt);
            one_way_all.push(ow);
        }
        left.row([
            cores.to_string(),
            "average".to_string(),
            format!("{:.3}", Summary::of(two_way).mean()),
            format!("{:.3}", Summary::of(one_way_all).mean()),
        ]);
    }
    emit(
        "fig16_left",
        "Fig 16 (left): round-trip vs one-way link acquisition (speedup vs private)",
        &left,
    );

    // Right: invalidation leader granularity under heavy shootdowns.
    const REMAP_BOOST: f64 = 200.0;
    let mut right = Table::new([
        "cores",
        "workload",
        "every-core",
        "per-4-core",
        "per-8-core",
        "single-leader",
    ]);
    for cores in [16usize, 32, 64] {
        let policies = [
            LeaderPolicy::EveryCore,
            LeaderPolicy::PerGroup(4),
            LeaderPolicy::PerGroup(8),
            LeaderPolicy::Single,
        ];
        let rows = parallel_map(WORKLOADS.to_vec(), |&preset| {
            let base = baseline(effort, cores, preset, REMAP_BOOST);
            let speeds: Vec<f64> = policies
                .iter()
                .map(|&leader| {
                    run_nocstar(
                        effort,
                        cores,
                        preset,
                        AcquireMode::OneWay,
                        leader,
                        REMAP_BOOST,
                    )
                    .speedup_vs(&base)
                })
                .collect();
            (preset, speeds)
        });
        for (preset, speeds) in rows {
            let mut cells = vec![cores.to_string(), preset.name().to_string()];
            cells.extend(speeds.iter().map(|s| format!("{s:.3}")));
            right.row(cells);
        }
    }
    emit(
        "fig16_right",
        "Fig 16 (right): shootdown leader granularity (speedup vs private, heavy remaps)",
        &right,
    );
}
