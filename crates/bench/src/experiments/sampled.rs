//! Validation of sampled fast-forward replay (`SAMPLING.md §7`): replays
//! the same trace span exactly and sampled, prints each estimated metric's
//! 95 % confidence interval next to the exact value (with a `covered`
//! verdict), and reports how many accesses entered the cycle-accurate core
//! under each mode — the ≥10× reduction that makes production-length
//! traces tractable.
//!
//! The exact run measures the span's tail after a conventional warmup; the
//! sampled run covers the same span with periodic windows, so the two
//! estimate the same steady-state rates (window-edge bias caveats:
//! `SAMPLING.md §7`).
//!
//! The fixture is the redis spec with OS page remaps disabled: shootdowns
//! are rare discrete events (a handful per million accesses) that a
//! periodic sample has essentially no power against — the documented
//! rare-event caveat of `SAMPLING.md §7` — so the validation isolates the
//! steady-state rates sampling is actually for.
//!
//! The study sets each run's sampling itself, so `nocstar-bench sampled`
//! exits with code 2 when given `--sample`, `--faults` or `--recovery`.

use crate::{emit, settings, Effort, Settings};
use nocstar::prelude::*;

/// Exact-vs-sampled validation on a remap-free redis spec under NOCSTAR.
pub fn run(effort: Effort) {
    let cores = 4;
    let (span, exact_warmup, spec) = if effort.quick {
        (4_000u64, 400u64, "800:40:20@7")
    } else {
        (10_000u64, 500u64, "1000:60:30@7")
    };
    let mut workload_spec = Preset::Redis.spec();
    workload_spec.remaps_per_million = 0.0;
    let run = |settings: &Settings| {
        let config = SystemConfig::new(cores, TlbOrg::paper_nocstar());
        let workload = WorkloadAssignment::homogeneous(&config, workload_spec);
        settings.simulate(config, workload, exact_warmup, span - exact_warmup)
    };
    let exact = run(settings());
    // Sampled replay covers the whole span, warmup included.
    let sampled = run(&Settings {
        sample: Some(spec.parse().expect("valid sample spec")),
        ..settings().clone()
    });
    let s = sampled.sampling.as_ref().expect("sampled report");

    let measured = ((span - exact_warmup) * cores as u64) as f64;
    let exact_values = [
        (
            "cycles_per_access",
            exact.cycles as f64 / (span - exact_warmup) as f64,
        ),
        ("l1_miss_rate", exact.l1.miss_rate()),
        ("l2_miss_rate", exact.l2.miss_rate()),
        ("walks_per_access", exact.walks as f64 / measured),
        (
            "walks_llc_or_mem_per_access",
            exact.walks_llc_or_mem as f64 / measured,
        ),
        ("shootdowns_per_access", exact.shootdowns as f64 / measured),
        ("flushes_per_access", exact.flushes as f64 / measured),
        ("translation_latency_mean", exact.translation_latency.mean()),
        ("energy_pj_per_access", exact.energy.total_pj() / measured),
    ];
    let mut table = Table::new([
        "metric", "exact", "sampled", "ci95_lo", "ci95_hi", "covered",
    ]);
    for (name, exact_v) in exact_values {
        let est = s.estimate(name).expect("estimate for every table metric");
        let covered = if est.interval.covers(exact_v) {
            "yes"
        } else {
            "no"
        };
        table.row([
            name.to_string(),
            format!("{exact_v:.6}"),
            format!("{:.6}", est.interval.mean()),
            format!("{:.6}", est.interval.lo()),
            format!("{:.6}", est.interval.hi()),
            covered.to_string(),
        ]);
    }
    let exact_detailed = span * cores as u64;
    let reduction = exact_detailed as f64 / s.accesses_detailed as f64;
    for (name, value) in [
        ("windows", s.windows.to_string()),
        ("detailed_accesses_exact", exact_detailed.to_string()),
        ("detailed_accesses_sampled", s.accesses_detailed.to_string()),
        ("detailed_reduction", format!("{reduction:.1}x")),
    ] {
        table.row([
            name.to_string(),
            value,
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    emit(
        "sampled",
        "Sampled replay validation: exact vs sampled (SAMPLING.md)",
        &table,
    );
}
