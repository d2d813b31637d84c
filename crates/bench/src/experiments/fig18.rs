//! Fig 18: all C(11,4) = 330 multiprogrammed 4-application mixes on 32
//! cores (8 threads per application, each in its own address space):
//! (top) overall throughput speedup over private L2 TLBs, sorted;
//! (bottom) the speedup of the worst-performing application in each mix.
//!
//! This is the largest sweep — 4 organizations x 330 mixes. The full CSV
//! contains every mix; the printed table summarizes the sorted curves at
//! percentiles plus degradation counts.

use crate::{emit, out_dir, parallel_map, simulate, Effort};
use nocstar::prelude::*;

struct MixResult {
    mix: String,
    throughput_speedup: [f64; 3],
    min_app_speedup: [f64; 3],
}

/// Regenerates Fig 18.
pub fn run(effort: Effort) {
    let cores = 32;
    let orgs = [
        TlbOrg::paper_monolithic(cores),
        TlbOrg::paper_distributed(),
        TlbOrg::paper_nocstar(),
    ];
    let mixes = all_mixes();
    let mixes = if effort.quick {
        mixes.into_iter().step_by(10).collect::<Vec<_>>()
    } else {
        mixes
    };
    // Mixes are heavy; use a reduced per-thread quota to keep the sweep
    // tractable (speedup ratios converge quickly).
    let warmup = effort.warmup / 4;
    let quota = effort.accesses / 4;

    let results: Vec<MixResult> = parallel_map(mixes, |&mix| {
        let run_one = |org: TlbOrg| {
            let config = SystemConfig::new(cores, org);
            let workload = WorkloadAssignment::mix(&config, mix);
            simulate(config, workload, warmup, quota)
        };
        let base = run_one(TlbOrg::paper_private());
        let base_apps = base.app_finish_times(Mix::THREADS_PER_APP);
        let mut throughput_speedup = [0.0; 3];
        let mut min_app_speedup = [0.0; 3];
        for (i, &org) in orgs.iter().enumerate() {
            let r = run_one(org);
            throughput_speedup[i] = r.throughput() / base.throughput();
            let apps = r.app_finish_times(Mix::THREADS_PER_APP);
            min_app_speedup[i] = base_apps
                .iter()
                .zip(&apps)
                .map(|(&b, &a)| b as f64 / a.max(1) as f64)
                .fold(f64::INFINITY, f64::min);
        }
        MixResult {
            mix: mix.to_string(),
            throughput_speedup,
            min_app_speedup,
        }
    });

    // Full CSV with one row per mix.
    let mut full = Table::new([
        "mix",
        "mono tput",
        "dist tput",
        "nocstar tput",
        "mono minapp",
        "dist minapp",
        "nocstar minapp",
    ]);
    for r in &results {
        full.row([
            r.mix.clone(),
            format!("{:.3}", r.throughput_speedup[0]),
            format!("{:.3}", r.throughput_speedup[1]),
            format!("{:.3}", r.throughput_speedup[2]),
            format!("{:.3}", r.min_app_speedup[0]),
            format!("{:.3}", r.min_app_speedup[1]),
            format!("{:.3}", r.min_app_speedup[2]),
        ]);
    }
    std::fs::write(out_dir().join("fig18_full.csv"), full.to_csv()).expect("write csv");

    // Printed summary: sorted-curve percentiles + degradation counts.
    let names = ["Monolithic", "Distributed", "NOCSTAR"];
    let mut summary = Table::new([
        "organization",
        "tput p10",
        "tput p50",
        "tput p90",
        "% mixes tput degraded",
        "minapp p10",
        "minapp p50",
        "% mixes minapp degraded",
        "worst minapp",
    ]);
    let pct = |sorted: &[f64], p: f64| sorted[(p * (sorted.len() - 1) as f64) as usize];
    for (i, name) in names.iter().enumerate() {
        let mut tput: Vec<f64> = results.iter().map(|r| r.throughput_speedup[i]).collect();
        let mut minapp: Vec<f64> = results.iter().map(|r| r.min_app_speedup[i]).collect();
        tput.sort_by(f64::total_cmp);
        minapp.sort_by(f64::total_cmp);
        let degraded_tput = tput.iter().filter(|&&s| s < 1.0).count();
        let degraded_min = minapp.iter().filter(|&&s| s < 0.99).count();
        summary.row([
            name.to_string(),
            format!("{:.3}", pct(&tput, 0.1)),
            format!("{:.3}", pct(&tput, 0.5)),
            format!("{:.3}", pct(&tput, 0.9)),
            format!("{:.0}", degraded_tput as f64 / tput.len() as f64 * 100.0),
            format!("{:.3}", pct(&minapp, 0.1)),
            format!("{:.3}", pct(&minapp, 0.5)),
            format!("{:.0}", degraded_min as f64 / minapp.len() as f64 * 100.0),
            format!("{:.3}", minapp[0]),
        ]);
    }
    emit(
        "fig18",
        &format!(
            "Fig 18: {} multiprogrammed 4-app mixes on 32 cores (full curves in fig18_full.csv)",
            results.len()
        ),
        &summary,
    );
}
