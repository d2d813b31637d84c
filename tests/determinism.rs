//! Determinism regression suite for the observability layer.
//!
//! The simulator's claim is strong: repeated runs of the same
//! configuration produce *byte-identical* serialized reports, regardless
//! of how many worker threads the bench harness fans out over, and
//! enabling metrics or tracing never changes simulated time. These tests
//! pin all three properties for every L2 organization.

use nocstar::prelude::*;

const CORES: usize = 8;
const WARMUP: u64 = 300;
const MEASURE: u64 = 700;

fn all_orgs() -> [TlbOrg; 5] {
    [
        TlbOrg::paper_private(),
        TlbOrg::paper_monolithic(CORES),
        TlbOrg::paper_distributed(),
        TlbOrg::paper_nocstar(),
        TlbOrg::paper_ideal(),
    ]
}

fn run_report(org: TlbOrg, metrics: bool, trace_capacity: usize) -> SimReport {
    let mut config = SystemConfig::new(CORES, org);
    config.metrics = metrics;
    config.trace_capacity = trace_capacity;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    Simulation::new(config, workload).run_measured(WARMUP, MEASURE)
}

fn report_json(org: TlbOrg, metrics: bool, trace_capacity: usize) -> String {
    run_report(org, metrics, trace_capacity)
        .to_json()
        .to_string()
}

#[test]
fn serialized_reports_are_byte_identical_across_runs() {
    // `fabric_orgs` adds the SMART and hierarchical fabrics; the three
    // organizations both lists share simply run twice.
    for org in all_orgs().into_iter().chain(fabric_orgs()) {
        let first = report_json(org, true, 256);
        let second = report_json(org, true, 256);
        assert_eq!(first, second, "nondeterministic report for {}", org.label());
    }
}

#[test]
fn worker_count_does_not_change_serialized_reports() {
    // The bench harness fans independent simulations over a worker pool
    // whose width NOCSTAR_WORKERS pins; results must not depend on it.
    // (No other test in this file reads that variable.)
    let run_all = || -> Vec<String> {
        nocstar_bench::parallel_map(all_orgs().to_vec(), |&org| report_json(org, true, 0))
    };
    std::env::set_var("NOCSTAR_WORKERS", "1");
    let serial = run_all();
    std::env::set_var("NOCSTAR_WORKERS", "4");
    let pooled = run_all();
    std::env::remove_var("NOCSTAR_WORKERS");
    assert_eq!(serial, pooled);
}

/// One organization per interconnect model the simulation can drive:
/// zero-latency (ideal), packet mesh, SMART bypass mesh, the paper's
/// circuit-switched fabric, and the hierarchical cluster fabric. Each
/// fabric has its own arbitration and recovery paths, so the repeat
/// checks cover every one of them.
fn fabric_orgs() -> [TlbOrg; 5] {
    [
        TlbOrg::paper_ideal(),
        TlbOrg::paper_distributed(),
        TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: CORES,
            net: MonolithicNet::Smart(8),
            latency_override: None,
        },
        TlbOrg::paper_nocstar(),
        TlbOrg::paper_hier(4),
    ]
}

/// A chaos plan exercising every recovery mechanism at once: a link
/// outage (re-routing / escalation), a slice-offline window (re-homing,
/// and gateway failover on the hierarchical fabric), and a walk spike.
const RECOVERY_PLAN: &str = "link:*@2000-5000=off; slice:3@1000-20000; walk@2000-4000=x4";

fn recovery_report_json(org: TlbOrg) -> String {
    let mut config = SystemConfig::new(CORES, org);
    config.metrics = true;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    Simulation::new(config, workload)
        .with_faults(FaultPlan::parse(RECOVERY_PLAN).expect("valid plan"))
        .with_recovery(RecoveryPolicy::all())
        .run_measured(WARMUP, MEASURE)
        .to_json()
        .to_string()
}

#[test]
fn recovery_enabled_runs_are_byte_identical_across_repeats() {
    for org in fabric_orgs() {
        assert_eq!(
            recovery_report_json(org),
            recovery_report_json(org),
            "nondeterministic recovery report for {}",
            org.label()
        );
    }
}

#[test]
fn metrics_and_tracing_do_not_change_simulated_time() {
    for org in all_orgs() {
        let plain = run_report(org, false, 0);
        let observed = run_report(org, true, 512);
        let label = org.label();
        assert_eq!(plain.cycles, observed.cycles, "cycles changed for {label}");
        assert_eq!(
            plain.per_thread_finish, observed.per_thread_finish,
            "finish times changed for {label}"
        );
        assert_eq!(
            plain.l2.misses(),
            observed.l2.misses(),
            "L2 misses changed for {label}"
        );
        assert_eq!(plain.walks, observed.walks, "walks changed for {label}");
        assert!(
            plain.metrics.is_empty(),
            "metrics leaked when off ({label})"
        );
        assert!(
            !observed.metrics.is_empty(),
            "metrics missing when on ({label})"
        );
    }
}
