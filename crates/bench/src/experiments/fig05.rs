//! Fig 5: for every shared L2 TLB access on a 32-core system, how many
//! accesses were in flight concurrently (1, 2–4, …, 29–32).
//!
//! Profiled on the banked monolithic shared TLB, as in the paper's
//! original shared-TLB setup.
//!
//! Concurrency depends on how often cores reach the L2 TLB per cycle. Our
//! presets are calibrated to translation-*cost* bands (DESIGN.md §6) and
//! are several times more memory-op-dense than the paper's full
//! applications, so this figure measures under the paper's intensity by
//! widening the non-memory gaps (`GAP_SCALE`); the distribution shape is
//! what the paper's argument rests on.

use crate::{emit, parallel_map, simulate, Effort};
use nocstar::prelude::*;
use nocstar::stats::histogram::ConcurrencyBins;

/// Non-memory-work multiplier restoring the paper's access intensity.
pub(crate) const GAP_SCALE: u64 = 32;

/// Regenerates Fig 5.
pub fn run(effort: Effort) {
    let cores = 32;
    let jobs: Vec<Preset> = Preset::ALL.to_vec();
    let rows = parallel_map(jobs, |&preset| {
        let config = SystemConfig::new(cores, TlbOrg::paper_monolithic(cores));
        let mut spec = preset.spec();
        spec.mem_op_gap *= GAP_SCALE;
        let workload = WorkloadAssignment::homogeneous(&config, spec);
        let report = simulate(config, workload, effort.warmup, effort.accesses);
        (preset, report.chip_concurrency.clone())
    });

    let mut headers = vec!["workload".to_string()];
    headers.extend(ConcurrencyBins::LABELS.iter().map(|l| l.to_string()));
    let mut table = Table::new(headers);
    let mut average = ConcurrencyBins::new();
    for (preset, bins) in rows {
        let fracs: Vec<f64> = bins.fractions();
        table.row_values(preset.name(), &fracs);
        average.merge(&bins);
    }
    table.row_values("average", &average.fractions());
    emit(
        "fig05",
        "Fig 5: concurrency of shared L2 TLB accesses (fraction per bin, 32 cores)",
        &table,
    );
    println!(
        "isolated accesses on average: {:.0}% (paper: >40%)\n",
        average.isolated_fraction() * 100.0
    );
}
