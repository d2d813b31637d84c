//! Fig 6: shared-L2-TLB access concurrency averaged over workloads —
//! (left) versus L1 TLB sizing (0.5x / baseline / 1.5x) and core count
//! (64–512); (right) per-slice concurrency when the shared TLB is
//! distributed into one slice per core (32–512 slices).
//!
//! Core counts of 256+ are large simulations; the access quota is reduced
//! there (concurrency distributions converge quickly).

use crate::{emit, parallel_map, simulate, Effort};
use nocstar::prelude::*;
use nocstar::stats::concurrency::ConcurrencyBins;

/// The workload subset averaged in each bar (a representative mix of
/// memory intensities, keeping 512-core runs tractable).
const WORKLOADS: [Preset; 4] = [
    Preset::Canneal,
    Preset::Graph500,
    Preset::Gups,
    Preset::Redis,
];

fn quota(effort: Effort, cores: usize) -> u64 {
    if cores >= 256 {
        effort.accesses / 4
    } else if cores >= 128 {
        effort.accesses / 2
    } else {
        effort.accesses
    }
}

fn averaged_bins<F>(effort: Effort, cores: usize, chip: bool, tweak: F) -> ConcurrencyBins
where
    F: Fn(&mut SystemConfig) + Sync,
{
    let bins_list = parallel_map(WORKLOADS.to_vec(), |&preset| {
        let org = if chip {
            TlbOrg::paper_monolithic(cores)
        } else {
            TlbOrg::paper_distributed()
        };
        let mut config = SystemConfig::new(cores, org);
        tweak(&mut config);
        // Measure under the paper's access intensity (see fig05).
        let mut spec = preset.spec();
        spec.mem_op_gap *= super::fig05::GAP_SCALE;
        let workload = WorkloadAssignment::homogeneous(&config, spec);
        let report = simulate(config, workload, effort.warmup / 2, quota(effort, cores));
        if chip {
            report.chip_concurrency
        } else {
            report.slice_concurrency
        }
    });
    let mut merged = ConcurrencyBins::new();
    for b in &bins_list {
        merged.merge(b);
    }
    merged
}

/// Regenerates Fig 6 (both panels).
pub fn run(effort: Effort) {
    let mut headers = vec!["configuration".to_string()];
    headers.extend(ConcurrencyBins::LABELS.iter().map(|l| l.to_string()));

    // Left panel: chip-wide concurrency vs L1 size and core count.
    let mut left = Table::new(headers.clone());
    let baseline = averaged_bins(effort, 32, true, |_| {});
    left.row_values("baseline (32c)", &baseline.fractions());
    let half = averaged_bins(effort, 32, true, |c| c.l1_scale = 0.5);
    left.row_values("0.5x L1", &half.fractions());
    let bigger = averaged_bins(effort, 32, true, |c| c.l1_scale = 1.5);
    left.row_values("1.5x L1", &bigger.fractions());
    let counts: &[usize] = if effort.quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    for &cores in counts {
        let bins = averaged_bins(effort, cores, true, |_| {});
        left.row_values(format!("{cores} cores"), &bins.fractions());
    }
    emit(
        "fig06_left",
        "Fig 6 (left): shared L2 TLB concurrency vs L1 size and core count",
        &left,
    );

    // Right panel: per-slice concurrency with slices == cores.
    let mut right = Table::new(headers);
    let slice_counts: &[usize] = if effort.quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256, 512]
    };
    for &cores in slice_counts {
        let bins = averaged_bins(effort, cores, false, |_| {});
        right.row_values(format!("{cores} slices"), &bins.fractions());
    }
    emit(
        "fig06_right",
        "Fig 6 (right): per-slice access concurrency, one slice per core",
        &right,
    );
}
