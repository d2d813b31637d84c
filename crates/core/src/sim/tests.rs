//! Unit tests for the simulation: every organization, exact and sampled
//! runs, recovery, observability and OS events.
#![cfg(test)]

use super::*;
use crate::config::{MonolithicNet, WalkPolicy};
use nocstar_workloads::preset::Preset;

fn run(cores: usize, org: TlbOrg, accesses: u64) -> SimReport {
    let config = SystemConfig::new(cores, org);
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    Simulation::new(config, workload).run(accesses)
}

fn run_sampled(cores: usize, org: TlbOrg, spec: &str, total: u64) -> SimReport {
    let config = SystemConfig::new(cores, org);
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let spec: SampleSpec = spec.parse().expect("valid sample spec");
    Simulation::new(config, workload).run_sampled(spec, total)
}

#[test]
fn sampled_run_reports_windows_and_estimates() {
    let spec: SampleSpec = "500:40:20@7".parse().expect("valid spec");
    let report = run_sampled(4, TlbOrg::paper_nocstar(), "500:40:20@7", 2_000);
    let s = report.sampling.as_ref().expect("sampling section");
    assert_eq!(s.windows, spec.windows(2_000));
    assert!(s.windows >= 2);
    // Report totals cover exactly the measured windows.
    assert_eq!(report.accesses, s.windows * 40 * 4);
    // The consumed span stops at the last window's end — the trailing
    // slack is never replayed.
    assert_eq!(
        s.accesses_fast_forwarded + s.accesses_detailed,
        (spec.offset() + (s.windows - 1) * 500 + 60) * 4
    );
    assert_eq!(s.estimates.len(), 9);
    let cpa = s.estimate("cycles_per_access").expect("cycles estimate");
    assert_eq!(cpa.per_window.len(), s.windows as usize);
    assert!(cpa.interval.mean() > 0.0);
    // Whole-run cycles are the sum of the window runtimes.
    let total: f64 = cpa.per_window.iter().map(|v| v * 40.0).sum();
    assert!((total - report.cycles as f64).abs() < 1e-6);
    // Merged counters are window sums as well: each per-access rate times
    // the window's measured accesses recovers that window's count.
    for (name, merged) in [
        ("walks_per_access", report.walks),
        ("walks_llc_or_mem_per_access", report.walks_llc_or_mem),
        ("flushes_per_access", report.flushes),
    ] {
        let rate = s.estimate(name).expect("counter estimate");
        let total: f64 = rate.per_window.iter().map(|v| v * 40.0 * 4.0).sum();
        assert!(
            (total - merged as f64).abs() < 1e-6,
            "{name}: windows sum to {total}, report has {merged}"
        );
    }
}

#[test]
fn sampled_runs_are_deterministic_across_repeats() {
    let run = || {
        run_sampled(8, TlbOrg::paper_nocstar(), "400:30:15@3", 1_700)
            .to_json()
            .to_string()
    };
    assert_eq!(run(), run(), "a repeated sampled run diverged");
}

#[test]
fn a_panic_on_the_warming_helper_ends_the_run() {
    // Caches built for one core: the helper's first warming operation
    // for core 1 indexes past them and panics. The leg's thread must
    // re-raise that panic instead of hanging or running on.
    let spec: SampleSpec = "500:40:20@7".parse().expect("valid spec");
    assert!(spec.offset() > 0, "the first leg must warm");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let config = SystemConfig::new(4, TlbOrg::paper_nocstar());
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        let mut sim = Simulation::new(config, workload);
        drop(sim.mem.detach_caches());
        let one_core = MemorySystem::new(MemoryConfig::haswell(1)).detach_caches();
        sim.mem.attach_caches(one_core);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_sampled(spec, 2_000)
        }));
        let message = outcome
            .err()
            .and_then(|panic| panic.downcast_ref::<String>().cloned());
        let _ = done_tx.send(message);
    });
    let message = done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the run neither returned nor panicked within 120 s");
    let message = message.expect("the run panicked with the helper's message");
    assert!(message.contains("index out of bounds"), "{message}");
    runner.join().expect("the runner caught the panic");
}

#[test]
fn exact_reports_carry_no_sampling_section() {
    let report = run(4, TlbOrg::paper_nocstar(), 300);
    assert!(report.sampling.is_none());
    assert!(!report.to_json().to_string().contains("\"sampling\""));
}

#[test]
#[should_panic(expected = "no measurement window")]
fn sampled_run_rejects_a_span_without_a_window() {
    run_sampled(4, TlbOrg::paper_nocstar(), "1000:60:30@0", 80);
}

#[test]
#[should_panic(expected = "incompatible with fault plans")]
fn sampled_run_rejects_fault_plans() {
    let config = SystemConfig::new(4, TlbOrg::paper_nocstar());
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let spec: SampleSpec = "500:40:20@0".parse().expect("valid spec");
    let mut plan = FaultPlan::default();
    plan.walk_spikes.push(nocstar_faults::WalkSpike {
        window: nocstar_faults::CycleWindow {
            start: 0,
            end: u64::MAX,
        },
        multiplier: 4,
    });
    Simulation::new(config, workload)
        .with_faults(plan)
        .run_sampled(spec, 2_000);
}

#[test]
fn private_baseline_runs_to_completion() {
    let report = run(4, TlbOrg::paper_private(), 500);
    assert_eq!(report.accesses, 4 * 500);
    assert!(report.cycles > 0);
    assert!(report.l1.accesses() >= 2000);
    assert!(report.walks > 0);
}

#[test]
fn every_organization_completes_the_same_work() {
    for org in [
        TlbOrg::paper_private(),
        TlbOrg::paper_monolithic(4),
        TlbOrg::paper_distributed(),
        TlbOrg::paper_nocstar(),
        TlbOrg::paper_ideal(),
    ] {
        let report = run(4, org, 300);
        assert_eq!(report.accesses, 1200, "{}", report.org_label);
        assert!(report.cycles > 0);
    }
}

#[test]
fn shared_orgs_hit_where_private_misses() {
    // Shared L2 capacity dedups the shared hot set, so the shared
    // organizations must eliminate a large fraction of L2 misses.
    let private = run(8, TlbOrg::paper_private(), 1500);
    let ideal = run(8, TlbOrg::paper_ideal(), 1500);
    assert!(private.l2.misses() > 0);
    assert!(
        ideal.l2.miss_rate() < private.l2.miss_rate(),
        "shared {} vs private {}",
        ideal.l2.miss_rate(),
        private.l2.miss_rate()
    );
}

#[test]
fn nocstar_beats_distributed_on_runtime() {
    let distributed = run(16, TlbOrg::paper_distributed(), 800);
    let nocstar = run(16, TlbOrg::paper_nocstar(), 800);
    assert!(
        nocstar.cycles < distributed.cycles,
        "nocstar {} vs distributed {}",
        nocstar.cycles,
        distributed.cycles
    );
}

#[test]
fn ideal_bounds_nocstar() {
    let nocstar = run(16, TlbOrg::paper_nocstar(), 800);
    let ideal = run(16, TlbOrg::paper_ideal(), 800);
    assert!(ideal.cycles <= nocstar.cycles);
}

#[test]
fn network_stats_exist_only_for_networked_orgs() {
    assert!(run(4, TlbOrg::paper_private(), 100).network.is_none());
    assert!(run(4, TlbOrg::paper_nocstar(), 100).network.is_some());
}

#[test]
fn concurrency_trackers_quiesce() {
    let report = run(4, TlbOrg::paper_nocstar(), 500);
    // Every begun L2 access ended; totals match between views.
    assert_eq!(
        report.chip_concurrency.total(),
        report.slice_concurrency.total()
    );
    assert!(report.chip_concurrency.total() > 0);
}

#[test]
fn runs_are_deterministic() {
    let a = run(4, TlbOrg::paper_nocstar(), 400);
    let b = run(4, TlbOrg::paper_nocstar(), 400);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l2.misses(), b.l2.misses());
    assert_eq!(a.walks, b.walks);
}

fn run_with_recovery(
    cores: usize,
    org: TlbOrg,
    accesses: u64,
    plan: &str,
    policy: Option<RecoveryPolicy>,
) -> SimReport {
    let mut config = SystemConfig::new(cores, org);
    config.metrics = true;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let mut sim =
        Simulation::new(config, workload).with_faults(FaultPlan::parse(plan).expect("valid plan"));
    if let Some(p) = policy {
        sim = sim.with_recovery(p);
    }
    sim.run(accesses)
}

#[test]
fn recovery_beats_open_loop_on_a_mesh_link_outage() {
    // The standard faultsweep outage: every link dead for cycles
    // 4000-9000. Open loop waits the window out; the closed loop
    // detours (no healthy detour exists here) and then escalates out
    // of the bounded retry far before the window clears.
    let plan = "link:*@4000-9000=off";
    let open = run_with_recovery(16, TlbOrg::paper_distributed(), 800, plan, None);
    let closed = run_with_recovery(
        16,
        TlbOrg::paper_distributed(),
        800,
        plan,
        Some(RecoveryPolicy::all()),
    );
    assert_eq!(open.accesses, closed.accesses);
    assert!(
        closed.translation_latency.mean() < open.translation_latency.mean(),
        "closed loop {} vs open loop {}",
        closed.translation_latency.mean(),
        open.translation_latency.mean()
    );
    assert!(closed.cycles < open.cycles);
    assert!(closed.metrics.counter("recovery.escalations").unwrap_or(0) > 0);
}

#[test]
fn rehoming_beats_open_loop_on_a_hier_cluster_outage() {
    // One whole cluster offline for most of the run: open loop walks
    // every access homed there; re-homing redirects the set range to
    // the same residue slice in a surviving cluster, which warms up
    // and then hits.
    let plan = "cluster:1/4@1000-400000";
    let open = run_with_recovery(16, TlbOrg::paper_hier(4), 800, plan, None);
    let closed = run_with_recovery(
        16,
        TlbOrg::paper_hier(4),
        800,
        plan,
        Some(RecoveryPolicy::all()),
    );
    assert_eq!(open.accesses, closed.accesses);
    assert!(
        closed.translation_latency.mean() < open.translation_latency.mean(),
        "closed loop {} vs open loop {}",
        closed.translation_latency.mean(),
        open.translation_latency.mean()
    );
    assert!(closed.walks < open.walks, "re-homing must eliminate walks");
    let recovered = closed
        .metrics
        .counter("recovery.translations_recovered")
        .unwrap_or(0);
    assert!(recovered > 0, "no translation was served by a backup");
    assert!(
        closed
            .metrics
            .histogram("recovery.detect_to_recovered_cycles")
            .is_some_and(|h| h.count() > 0),
        "detect-to-recovered latency must be measured"
    );
}

#[test]
fn rehomed_windows_close_with_a_coherent_handoff() {
    // A short offline window inside the run: entries the backup
    // absorbed are invalidated when traffic homes back, and both
    // directions are counted.
    let plan = "slice:3@500-4000";
    let r = run_with_recovery(
        8,
        TlbOrg::paper_distributed(),
        600,
        plan,
        Some(RecoveryPolicy::all()),
    );
    let activations = r
        .metrics
        .counter("recovery.rehome_activations")
        .unwrap_or(0);
    let homebacks = r.metrics.counter("recovery.rehome_homebacks").unwrap_or(0);
    assert!(activations > 0, "window never opened");
    assert!(homebacks > 0, "window never closed");
    assert!(homebacks <= activations);
}

#[test]
fn recovery_off_reports_carry_no_recovery_metrics() {
    let plan = "slice:3@500-4000";
    let r = run_with_recovery(8, TlbOrg::paper_distributed(), 300, plan, None);
    assert!(r
        .metrics
        .samples()
        .iter()
        .all(|s| !s.name.starts_with("recovery.")));
}

#[test]
fn recovery_runs_are_deterministic() {
    let mk = || {
        run_with_recovery(
            16,
            TlbOrg::paper_hier(4),
            400,
            "cluster:1/4@1000-100000; link:5@2000-3000=off",
            Some(RecoveryPolicy::all()),
        )
    };
    let a = mk().to_json().to_string();
    let b = mk().to_json().to_string();
    assert_eq!(a, b);
}

#[test]
fn walk_policies_both_complete() {
    for policy in [WalkPolicy::AtRequester, WalkPolicy::AtRemote] {
        let mut config = SystemConfig::new(8, TlbOrg::paper_nocstar());
        config.walk_policy = policy;
        let workload = WorkloadAssignment::preset(&config, Preset::Gups);
        let report = Simulation::new(config, workload).run(300);
        assert_eq!(report.accesses, 2400);
        assert!(report.walks > 0);
    }
}

#[test]
fn monolithic_smart_and_ideal_variants_run() {
    for net in [
        MonolithicNet::Mesh,
        MonolithicNet::Smart(8),
        MonolithicNet::Ideal,
    ] {
        let org = TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: 4,
            net,
            latency_override: None,
        };
        let report = run(8, org, 300);
        assert_eq!(report.accesses, 2400, "{net:?}");
    }
}

#[test]
fn fixed_walk_latency_shrinks_translation_tail() {
    let mut slow = SystemConfig::new(4, TlbOrg::paper_private());
    slow.walk_latency = nocstar_mem::walker::WalkLatency::Fixed(Cycles::new(80));
    let mut fast = slow;
    fast.walk_latency = nocstar_mem::walker::WalkLatency::Fixed(Cycles::new(10));
    let run_cfg = |config: SystemConfig| {
        let w = WorkloadAssignment::preset(&config, Preset::Gups);
        Simulation::new(config, w).run(800)
    };
    let slow_r = run_cfg(slow);
    let fast_r = run_cfg(fast);
    assert!(slow_r.cycles > fast_r.cycles);
    assert!(slow_r.translation_latency.max() > fast_r.translation_latency.max());
}

#[test]
fn prefetch_reduces_misses_on_strided_traffic() {
    // Sequential-ish cold accesses benefit from +/-2 prefetch.
    let base_cfg = SystemConfig::new(4, TlbOrg::paper_nocstar());
    let mut pf_cfg = base_cfg;
    pf_cfg.prefetch = nocstar_tlb::prefetch::PrefetchDepth::new(2).unwrap();
    let run_cfg = |config: SystemConfig| {
        let w = WorkloadAssignment::preset(&config, Preset::Xsbench);
        Simulation::new(config, w).run_measured(2_000, 3_000)
    };
    let without = run_cfg(base_cfg);
    let with = run_cfg(pf_cfg);
    assert!(
        with.walks <= without.walks,
        "prefetch should not add walks: {} vs {}",
        with.walks,
        without.walks
    );
}

#[test]
fn smaller_l1_raises_l2_traffic() {
    let mut small = SystemConfig::new(4, TlbOrg::paper_private());
    small.l1_scale = 0.5;
    let big_cfg = {
        let mut c = small;
        c.l1_scale = 1.5;
        c
    };
    let run_cfg = |config: SystemConfig| {
        let w = WorkloadAssignment::preset(&config, Preset::Redis);
        Simulation::new(config, w).run(1_500)
    };
    let small_r = run_cfg(small);
    let big_r = run_cfg(big_cfg);
    assert!(
        small_r.l2.accesses() > big_r.l2.accesses(),
        "halved L1 must push more traffic to L2: {} vs {}",
        small_r.l2.accesses(),
        big_r.l2.accesses()
    );
}

#[test]
fn round_trip_acquire_completes_with_shootdowns() {
    // Regression: invalidation/insert traffic in round-trip mode must
    // not deadlock the fabric.
    let org = TlbOrg::Nocstar {
        slice_entries: 920,
        hpc_max: 16,
        acquire: nocstar_noc::circuit::AcquireMode::RoundTrip,
        ideal_fabric: false,
    };
    let config = SystemConfig::new(8, org);
    let mut spec = Preset::Redis.spec();
    spec.remaps_per_million = 5_000.0;
    let workload = WorkloadAssignment::homogeneous(&config, spec);
    let r = Simulation::new(config, workload).run(1_200);
    assert_eq!(r.accesses, 8 * 1_200);
    assert!(r.shootdowns > 0);
}

#[test]
fn metrics_do_not_change_simulated_time() {
    let plain_cfg = SystemConfig::new(4, TlbOrg::paper_nocstar());
    let mut observed_cfg = plain_cfg;
    observed_cfg.metrics = true;
    observed_cfg.trace_capacity = 1024;
    let run_cfg = |config: SystemConfig| {
        let w = WorkloadAssignment::preset(&config, Preset::Redis);
        Simulation::new(config, w).run(400)
    };
    let plain = run_cfg(plain_cfg);
    let observed = run_cfg(observed_cfg);
    assert_eq!(plain.cycles, observed.cycles);
    assert_eq!(plain.l2.misses(), observed.l2.misses());
    assert_eq!(plain.walks, observed.walks);
    // Off by default; populated when enabled.
    assert!(plain.metrics.is_empty());
    assert!(plain.trace.is_empty());
    assert!(!observed.metrics.is_empty());
    assert!(!observed.trace.is_empty());
}

#[test]
fn enabled_metrics_cover_every_layer() {
    let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
    config.metrics = true;
    let w = WorkloadAssignment::preset(&config, Preset::Redis);
    let r = Simulation::new(config, w).run(500);
    let m = &r.metrics;
    // TLB layer: per-slice occupancy and port-wait distribution.
    assert!(m.gauge("l2.0.occupancy").is_some_and(|o| o > 0));
    assert!(m.histogram("l2.0.queue_wait_cycles").is_some());
    // Memory layer: walk latency and PWC hits.
    assert!(m
        .histogram("mem.walk_latency_cycles")
        .is_some_and(|h| h.count() == r.walks));
    assert!(m.histogram("mem.pwc_hits_per_walk").is_some());
    // Interconnect layer: arbitration and per-link totals.
    assert!(m.counter("noc.delivered").is_some_and(|d| d > 0));
    assert!(m.counter("noc.grants").is_some_and(|g| g > 0));
    assert!(m.counter("noc.retries").is_some());
    assert!(m.counter("noc.link.0.busy_cycles").is_some());
    // Core layer: stall breakdown attributed to cores.
    let stalled: u64 = (0..4)
        .map(|c| m.counter(&format!("core.{c}.stall.slice_cycles")).unwrap())
        .sum();
    assert!(stalled > 0);
}

#[test]
fn trace_records_the_translation_lifecycle() {
    let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
    config.trace_capacity = 1 << 16;
    let w = WorkloadAssignment::preset(&config, Preset::Redis);
    let r = Simulation::new(config, w).run(300);
    assert!(!r.trace.is_empty());
    // Records come back oldest-first in simulated-time order.
    assert!(r.trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    let kinds: std::collections::BTreeSet<u16> = r.trace.iter().map(|t| t.kind).collect();
    for kind in [
        trace_kind::ISSUE,
        trace_kind::SLICE_DONE,
        trace_kind::WALK_DONE,
        trace_kind::TRANSLATION_DONE,
    ] {
        assert!(kinds.contains(&kind), "missing trace kind {kind}");
    }
}

#[test]
fn tiny_trace_ring_stays_bounded_and_counts_drops() {
    let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
    config.trace_capacity = 16;
    let w = WorkloadAssignment::preset(&config, Preset::Redis);
    let r = Simulation::new(config, w).run(500);
    assert_eq!(r.trace.len(), 16);
    assert!(r.trace_dropped > 0);
}

#[test]
fn shootdowns_happen_for_remapping_workloads() {
    let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
    config.seed = 7;
    let mut spec = Preset::Redis.spec();
    spec.remaps_per_million = 20_000.0;
    let workload = WorkloadAssignment::homogeneous(&config, spec);
    let report = Simulation::new(config, workload).run(2000);
    assert!(report.shootdowns > 0);
}

#[test]
fn fault_plans_are_checked_against_the_fabric_and_the_structures() {
    let sim = |org| {
        let config = SystemConfig::new(16, org);
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        Simulation::new(config, workload)
    };
    let check = |sim: &Simulation, spec: &str| {
        sim.validate_faults(&FaultPlan::parse(spec).expect("valid plan"))
    };
    // 16 tiles: a 4x4 mesh with 48 directed links, 16 slices.
    let nocstar = sim(TlbOrg::paper_nocstar());
    assert_eq!(check(&nocstar, "link:47@0-9=off; slice:15@0-9"), Ok(()));
    let err = check(&nocstar, "link:99999@0-100000=off").unwrap_err();
    assert!(err.contains("`link:99999@0-100000=off`"), "{err}");
    let err = check(&nocstar, "slice:99999@0-100000").unwrap_err();
    assert!(err.contains("`slice:99999@0-100000`"), "{err}");
    // Link faults act on the overlay of the hierarchical fabric: four
    // clusters of four tiles on a 2x2 mesh with 8 directed links.
    let hier = sim(TlbOrg::paper_hier(4));
    assert_eq!(check(&hier, "link:7@0-9=off; cluster:3/4@0-9"), Ok(()));
    assert!(check(&hier, "link:8@0-9=off").is_err());
    assert!(check(&hier, "cluster:4/4@0-9").is_err());
    // Four monolithic banks are its structures; private L2s have no
    // network, so link clauses do not apply to them.
    assert!(check(&sim(TlbOrg::paper_monolithic(16)), "slice:4@0-9").is_err());
    assert_eq!(
        check(&sim(TlbOrg::paper_private()), "link:5@0-9=off"),
        Ok(())
    );
}
