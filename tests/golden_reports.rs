//! Golden-report regression harness.
//!
//! One small, fixed simulation per L2 organization is serialized to JSON
//! and compared byte-for-byte against a checked-in snapshot under
//! `tests/golden/`. Any change to simulated timing, statistics, metric
//! names, or the serialization format shows up as a readable diff here.
//!
//! To bless intentional changes, regenerate the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the resulting `tests/golden/*.json` diff like any other
//! code change.

use nocstar::prelude::*;
use std::path::PathBuf;

const CORES: usize = 4;
const WARMUP: u64 = 200;
const MEASURE: u64 = 500;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The configuration every golden shares: metrics on and a tiny trace
/// ring, which keeps the snapshot readable while still pinning the trace
/// serialization format and the drop accounting.
fn golden_config(org: TlbOrg) -> SystemConfig {
    golden_config_at(CORES, org)
}

/// [`golden_config`] at `cores` cores, for goldens that need more
/// traffic than four cores make.
fn golden_config_at(cores: usize, org: TlbOrg) -> SystemConfig {
    let mut config = SystemConfig::new(cores, org);
    config.metrics = true;
    config.trace_capacity = 32;
    config
}

fn build(config: SystemConfig) -> Simulation {
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    Simulation::new(config, workload)
}

/// Compares `report`'s pretty JSON against `tests/golden/<name>.json`, or
/// rewrites the snapshot under `UPDATE_GOLDEN`.
fn check_report(name: &str, report: &SimReport) {
    let mut actual = report.to_json().to_string_pretty();
    actual.push('\n');
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 \
             cargo test --test golden_reports to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "report for `{name}` drifted from {}; if intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test golden_reports",
        path.display()
    );
}

fn check_golden(name: &str, org: TlbOrg) {
    let report = build(golden_config(org)).run_measured(WARMUP, MEASURE);
    check_report(name, &report);
}

#[test]
fn golden_private() {
    check_golden("private", TlbOrg::paper_private());
}

#[test]
fn golden_monolithic() {
    check_golden("monolithic", TlbOrg::paper_monolithic(CORES));
}

#[test]
fn golden_distributed() {
    check_golden("distributed", TlbOrg::paper_distributed());
}

#[test]
fn golden_nocstar() {
    check_golden("nocstar", TlbOrg::paper_nocstar());
}

/// Cores for the circuit-fabric goldens below: enough contention that
/// each one shows setup retries.
const CIRCUIT_CORES: usize = 16;

fn assert_retries(report: &SimReport) {
    let retries = report.network.as_ref().map_or(0, |n| n.retries);
    assert!(retries > 0, "no setup retries to pin");
}

#[test]
fn golden_nocstar_roundtrip() {
    // Round-trip acquisition under contention: pins reservation hold
    // times and the retries they cause.
    let org = TlbOrg::Nocstar {
        slice_entries: 920,
        hpc_max: 16,
        acquire: AcquireMode::RoundTrip,
        ideal_fabric: false,
    };
    let report = build(golden_config_at(CIRCUIT_CORES, org)).run_measured(WARMUP, MEASURE);
    assert_retries(&report);
    check_report("nocstar_roundtrip", &report);
}

/// Asserts at least one setup retry per delivered message, so a golden
/// pins a fabric under contention rather than an idle one.
fn assert_contended(report: &SimReport) {
    let net = report.network.as_ref().expect("a circuit fabric");
    assert!(
        net.retries >= net.delivered,
        "{} retries for {} deliveries: not contended",
        net.retries,
        net.delivered
    );
}

#[test]
fn golden_nocstar_contended() {
    // The one-way circuit at 256 cores under Redis: every delivery waits
    // out several lost setups, so the report pins arbitration order,
    // priority rotation and retry counts.
    let report =
        build(golden_config_at(256, TlbOrg::paper_nocstar())).run_measured(WARMUP, MEASURE);
    assert_contended(&report);
    check_report("nocstar_contended", &report);
}

#[test]
fn golden_nocstar_roundtrip_contended() {
    // Round-trip acquisition at 64 cores under GUPS: held reservations
    // deny forward and reverse links to every other requester.
    let org = TlbOrg::Nocstar {
        slice_entries: 920,
        hpc_max: 16,
        acquire: AcquireMode::RoundTrip,
        ideal_fabric: false,
    };
    let config = golden_config_at(64, org);
    let workload = WorkloadAssignment::preset(&config, Preset::Gups);
    let report = Simulation::new(config, workload).run_measured(WARMUP, MEASURE);
    assert_contended(&report);
    check_report("nocstar_roundtrip_contended", &report);
}

#[test]
fn golden_nocstar_faulted() {
    // A one-way circuit under setup denial, a link outage and a link
    // degradation, with the full recovery policy: pins the fault
    // counters, the backoff ladder and the escalated fallback escapes.
    let plan =
        FaultPlan::parse("deny@20000-20300; link:14@22000-30000=off; link:29@18000-40000=+2")
            .expect("valid plan");
    let report = build(golden_config_at(CIRCUIT_CORES, TlbOrg::paper_nocstar()))
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::all())
        .run_measured(WARMUP, MEASURE);
    assert_retries(&report);
    check_report("nocstar_faulted", &report);
}

#[test]
fn golden_smart() {
    // Monolithic banks behind a SMART(4) bypass mesh: six-hop paths need
    // two bypass runs, so contention latches flits mid-path.
    let org = TlbOrg::Monolithic {
        entries_per_core: 1024,
        banks: 4,
        net: MonolithicNet::Smart(4),
        latency_override: None,
    };
    let report = build(golden_config_at(CIRCUIT_CORES, org)).run_measured(WARMUP, MEASURE);
    assert_retries(&report);
    check_report("smart", &report);
}

#[test]
fn golden_nocstar_ideal() {
    // The contention-free circuit (Fig 15's `NOCSTAR (ideal)`): every
    // setup is granted, so only setup and traversal cycles remain.
    let org = TlbOrg::Nocstar {
        slice_entries: 920,
        hpc_max: 16,
        acquire: AcquireMode::OneWay,
        ideal_fabric: true,
    };
    let report = build(golden_config_at(CIRCUIT_CORES, org)).run_measured(WARMUP, MEASURE);
    check_report("nocstar_ideal", &report);
}

#[test]
fn golden_hier_xbar() {
    // Four clusters of four tiles behind crossbars: pins per-output-port
    // arbitration and the crossbar's local lane.
    let org = TlbOrg::Hier {
        slice_entries: 1024,
        cluster_size: 4,
        intra: IntraKind::Xbar,
        inter: InterKind::Mesh,
    };
    let report = build(golden_config_at(CIRCUIT_CORES, org)).run_measured(WARMUP, MEASURE);
    check_report("hier_xbar", &report);
}

/// Cores of the crossbar storm golden: eight clusters of four, so the
/// overlay is a 3x3 mesh and shootdown relays cross it in every
/// direction.
const HIER_XBAR_STORM_CORES: usize = 32;

#[test]
fn golden_hier_xbar_storm() {
    // The crossbar under cross-cluster shootdown traffic, with cluster
    // 1's gateway tile offline for the whole run: every leg into or out
    // of that cluster runs through the elected gateway.
    let org = TlbOrg::Hier {
        slice_entries: 1024,
        cluster_size: 4,
        intra: IntraKind::Xbar,
        inter: InterKind::Mesh,
    };
    let config = golden_config_at(HIER_XBAR_STORM_CORES, org);
    let workload = WorkloadAssignment::storm(&config, Preset::Canneal, 100, 150);
    let plan = FaultPlan::parse("slice:4@0-1000000").expect("valid plan");
    let report = Simulation::new(config, workload)
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::all())
        .run_measured(WARMUP, MEASURE);
    assert!(report.shootdowns > 512, "no promote shootdowns to pin");
    let failovers = report
        .metrics
        .counter("recovery.gateway_failovers")
        .unwrap_or(0);
    assert!(failovers > 0, "no gateway failovers to pin");
    check_report("hier_xbar_storm", &report);
}

/// A 16-core hier storm over `inter` with one overlay link dead for the
/// whole run, another degraded, and a brief whole-overlay outage, under
/// the full recovery policy: the shootdown relays that cross clusters
/// detour, back off, escalate and escape.
fn check_hier_faulted(name: &str, inter: InterKind) {
    let org = TlbOrg::Hier {
        slice_entries: 1024,
        cluster_size: 2,
        intra: IntraKind::Bus,
        inter,
    };
    let config = golden_config_at(CIRCUIT_CORES, org);
    let workload = WorkloadAssignment::storm(&config, Preset::Canneal, 100, 150);
    let plan =
        FaultPlan::parse("link:4@0-1000000=off; link:9@0-1000000=+2; link:*@49000-50000=off")
            .expect("valid plan");
    let report = Simulation::new(config, workload)
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::all())
        .run_measured(WARMUP, MEASURE);
    for counter in [
        "faults.link_blocked",
        "faults.degraded_traversals",
        "faults.fallbacks",
        "recovery.reroutes",
        "recovery.escalations",
    ] {
        let n = report.metrics.counter(counter).unwrap_or(0);
        assert!(n > 0, "no {counter} to pin");
    }
    check_report(name, &report);
}

#[test]
fn golden_hier_mesh_faulted() {
    check_hier_faulted("hier_mesh_faulted", InterKind::Mesh);
}

#[test]
fn golden_hier_smart_faulted() {
    check_hier_faulted("hier_smart_faulted", InterKind::Smart(2));
}

#[test]
fn golden_ideal() {
    check_golden("ideal", TlbOrg::paper_ideal());
}

#[test]
fn golden_hier() {
    // Two clusters of two tiles: small enough to read, yet it exercises
    // all three hierarchical legs (intra-source, overlay, intra-dest).
    check_golden("hier", TlbOrg::paper_hier(2));
}

#[test]
fn golden_storm() {
    // Context-switch flushes and superpage promote/demote shootdowns on
    // the hier fabric: the only golden whose page tables change under
    // the running workload. More than 512 shootdowns means at least one
    // promote's stale 4 KiB pages were shot down.
    let config = golden_config_at(CIRCUIT_CORES, TlbOrg::paper_hier(4));
    let workload = WorkloadAssignment::storm(&config, Preset::Canneal, 100, 150);
    let report = Simulation::new(config, workload).run_measured(WARMUP, MEASURE);
    assert!(report.flushes > 0, "no context-switch flushes to pin");
    assert!(report.shootdowns > 512, "no promote shootdowns to pin");
    check_report("storm", &report);
}

#[test]
fn golden_recovery() {
    // A faulted distributed run under the full recovery policy: pins the
    // recovery.* metric names, the detect→recovered percentiles, and the
    // exact closed-loop timing. The plan keeps one slice offline across
    // the measurement window and kills every link briefly, so re-homing,
    // re-routing/escalation, and the handoff path all leave fingerprints.
    let plan = FaultPlan::parse("link:*@26000-27500=off; slice:1@24000-40000").expect("valid plan");
    let report = build(golden_config(TlbOrg::paper_distributed()))
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::all())
        .run_measured(WARMUP, MEASURE);
    check_report("recovery", &report);
}

/// A sampled run small enough for the test profile: two measurement
/// windows, each preceded by a functional fast-forward and a detailed
/// warmup ramp.
const SAMPLE_SPEC: &str = "500:40:20@7";
const SAMPLE_SPAN: u64 = 1_200;

fn sample_spec() -> SampleSpec {
    SAMPLE_SPEC.parse().expect("valid sample spec")
}

#[test]
fn golden_sampled() {
    // Pins the window reduction: summed totals, merged distributions,
    // the last window's metrics and the `sampling` section.
    let spec = sample_spec();
    assert_eq!(spec.windows(SAMPLE_SPAN), 2);
    let report = build(golden_config(TlbOrg::paper_nocstar())).run_sampled(spec, SAMPLE_SPAN);
    check_report("sampled", &report);
}

/// Cores of the sampled storm golden: enough threads that its second
/// fast-forward leg warms the caches with over 150,000 accesses.
const SAMPLED_STORM_CORES: usize = 32;
/// Long fast-forward legs (`period - warmup - window` accesses per
/// thread) between two short detailed legs.
const SAMPLED_STORM_SPEC: &str = "5000:120:30@7";
const SAMPLED_STORM_SPAN: u64 = 6_000;

#[test]
fn golden_sampled_storm() {
    // Sampled fast-forward through every kind of cache warming: data
    // accesses, variable-latency walks (PWC plus PTE lines), and the PWC
    // flushes of context switches, with promote/demote shootdowns
    // changing the page tables under the legs. The detailed windows
    // start from the caches the legs leave, so the report pins that
    // state.
    let spec: SampleSpec = SAMPLED_STORM_SPEC.parse().expect("valid sample spec");
    assert_eq!(spec.windows(SAMPLED_STORM_SPAN), 2);
    let config = golden_config_at(SAMPLED_STORM_CORES, TlbOrg::paper_hier(4));
    assert_eq!(config.walk_latency, WalkLatency::Variable);
    let workload = WorkloadAssignment::storm(&config, Preset::Canneal, 100, 150);
    let report = Simulation::new(config, workload).run_sampled(spec, SAMPLED_STORM_SPAN);
    let sampling = report.sampling.as_ref().expect("sampled report section");
    assert!(
        sampling.accesses_fast_forwarded >= 150_000,
        "fast-forward legs too short to pin: {} accesses",
        sampling.accesses_fast_forwarded
    );
    assert!(report.flushes > 0, "no context-switch flushes to pin");
    assert!(report.walks > 0, "no walks to pin");
    check_report("sampled_storm", &report);
}

#[test]
fn golden_aborted() {
    // An exact run stopped by its cycle budget inside the measured
    // quota: pins the partial report an abort harvests.
    let mut config = golden_config(TlbOrg::paper_nocstar());
    config.max_cycles = Some(35_000);
    let abort = build(config)
        .try_run_measured(WARMUP, MEASURE)
        .expect_err("the budget ends the run early");
    assert!(matches!(abort.error, SimError::CycleBudgetExceeded { .. }));
    check_report("aborted", &abort.partial);
}

#[test]
fn golden_aborted_sampled() {
    // The budget falls inside the second window, so the partial report
    // holds exactly the first. It is read from the unbounded run: the
    // warmup boundary clears the trace ring, so the oldest record that
    // run keeps lies after the first window's end, inside the second.
    let spec = sample_spec();
    let unbounded = build(golden_config(TlbOrg::paper_nocstar())).run_sampled(spec, SAMPLE_SPAN);
    let budget = unbounded.trace.first().expect("traced window").cycle;
    let mut config = golden_config(TlbOrg::paper_nocstar());
    config.max_cycles = Some(budget);
    let abort = build(config)
        .try_run_sampled(spec, SAMPLE_SPAN)
        .expect_err("the budget ends the run inside the second window");
    assert!(matches!(abort.error, SimError::CycleBudgetExceeded { .. }));
    let windows = abort.partial.sampling.as_ref().map(|s| s.windows);
    assert_eq!(
        windows,
        Some(1),
        "the partial report holds the first window only"
    );
    check_report("aborted_sampled", &abort.partial);
}
