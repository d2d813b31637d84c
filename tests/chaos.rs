//! Chaos suite for the deterministic fault-injection subsystem.
//!
//! The contract under test:
//!
//! 1. **Nothing is lost.** Under any fault schedule, every hardware thread
//!    still completes its full access quota — faults cost cycles, never
//!    translations.
//! 2. **Faults are deterministic.** The same configuration plus the same
//!    plan serializes to byte-identical reports, run after run.
//! 3. **An empty plan is free.** Installing an empty [`FaultPlan`] is
//!    byte-identical to never calling `with_faults` at all.
//! 4. **Degradation is graceful.** Whole-run fault windows complete with
//!    at least the fault-free cycle count.
//! 5. **Wedged runs fail loudly.** A deliberately unrecoverable fabric
//!    produces a typed [`SimError`] with a populated diagnostic snapshot
//!    and a partial report — never a panic or an infinite loop.

use nocstar::prelude::*;

const CORES: usize = 8;
const ACCESSES: u64 = 600;

fn sim(org: TlbOrg, metrics: bool) -> Simulation {
    let mut config = SystemConfig::new(CORES, org);
    config.metrics = metrics;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    Simulation::new(config, workload)
}

fn faulted_json(org: TlbOrg, spec: &str) -> String {
    sim(org, true)
        .with_faults(spec.parse().expect("spec"))
        .run(ACCESSES)
        .to_json()
        .to_string()
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    for org in [
        TlbOrg::paper_nocstar(),
        TlbOrg::paper_distributed(),
        TlbOrg::paper_monolithic(CORES),
    ] {
        let plain = sim(org, true).run(ACCESSES).to_json().to_string();
        let empty = sim(org, true)
            .with_faults(FaultPlan::default())
            .run(ACCESSES)
            .to_json()
            .to_string();
        assert_eq!(plain, empty, "empty plan altered a {} run", org.label());
    }
}

#[test]
fn faulted_runs_are_byte_identical_across_repeats() {
    let spec = "seed=7; deny@500-4000; link:*@0-60000=+1; walk@1000-20000=x4; \
                slice:2@0-30000; storm@0-60000";
    let first = faulted_json(TlbOrg::paper_nocstar(), spec);
    let second = faulted_json(TlbOrg::paper_nocstar(), spec);
    assert_eq!(first, second);
}

#[test]
fn no_translation_is_lost_under_any_fault_class() {
    // One directed run per fault class, windows covering the entire run.
    // `run` only returns once every thread finished its quota, so a
    // completed run with the right access count *is* the no-loss proof.
    let specs = [
        "deny@0-10000000",
        "link:*@0-10000000=+3",
        "link:*@0-10000000=off; retry=6",
        "walk@0-10000000=x8",
        "slice:0@0-10000000; slice:3@0-10000000",
        "storm@0-10000000",
        // Everything at once.
        "deny@0-10000000; link:*@0-10000000=+2; walk@0-10000000=x4; \
         slice:1@0-10000000; storm@0-10000000; retry=8",
    ];
    let baseline = sim(TlbOrg::paper_nocstar(), false).run(ACCESSES);
    assert_eq!(baseline.accesses, CORES as u64 * ACCESSES);
    for spec in specs {
        let r = sim(TlbOrg::paper_nocstar(), false)
            .with_faults(spec.parse().expect("spec"))
            .run(ACCESSES);
        assert_eq!(
            r.accesses,
            CORES as u64 * ACCESSES,
            "lost translations under {spec}"
        );
        assert!(
            r.cycles >= baseline.cycles,
            "fault plan {spec} sped the run up: {} < {}",
            r.cycles,
            baseline.cycles
        );
    }
}

#[test]
#[ignore = "nightly: 1024-core hierarchical-fabric chaos"]
fn whole_cluster_outage_at_scale_is_deterministic_and_lossless() {
    // Takes an entire 16-tile cluster offline for the first 50k cycles of
    // a 1024-core hierarchical run. Displaced lookups fall back to page
    // walks (faults cost cycles, never translations), and a repeat run
    // must replay the same schedule byte-for-byte.
    const BIG: usize = 1024;
    const QUOTA: u64 = 150;
    let spec = "cluster:3/16@0-50000; retry=6";
    let run = || {
        let mut config = SystemConfig::new(BIG, TlbOrg::paper_hier(16));
        config.metrics = true;
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        Simulation::new(config, workload)
            .with_faults(spec.parse().expect("spec"))
            .run(QUOTA)
    };
    let first = run();
    assert_eq!(
        first.accesses,
        BIG as u64 * QUOTA,
        "lost translations during the cluster outage"
    );
    assert_eq!(
        first.to_json().to_string(),
        run().to_json().to_string(),
        "nondeterministic cluster-outage run"
    );
}

#[test]
fn cascading_slice_outages_with_recovery_are_lossless_and_deterministic() {
    // A correlated schedule: slice 1 dies and its traffic re-homes to the
    // next surviving slice; while that window is still open the backup's
    // own slice dies too (forcing a handoff plus a fresh election), a
    // shootdown storm rages through the first outage, and a brief chip-
    // wide link blackout lands in the middle. The closed loop must absorb
    // all of it: full quota, non-trivial recovery counters, and two runs
    // serialize byte-for-byte.
    let spec = "slice:1@1000-40000; slice:2@10000-35000; storm@1000-30000; \
                link:*@5000-8000=off; retry=6";
    let run = || {
        sim(TlbOrg::paper_distributed(), true)
            .with_faults(spec.parse().expect("spec"))
            .with_recovery(RecoveryPolicy::all())
            .try_run(ACCESSES)
            .expect("cascading outage with recovery must terminate")
    };
    let first = run();
    assert_eq!(
        first.accesses,
        CORES as u64 * ACCESSES,
        "lost translations during the cascading outage"
    );
    assert!(
        first
            .metrics
            .counter("recovery.rehome_activations")
            .is_some_and(|v| v >= 2),
        "the cascade must open at least two re-homing windows"
    );
    assert!(
        first
            .metrics
            .counter("recovery.translations_recovered")
            .is_some_and(|v| v > 0),
        "no translation was served from a backup slice"
    );
    assert_eq!(
        first.to_json().to_string(),
        run().to_json().to_string(),
        "nondeterministic cascading-recovery run"
    );
}

#[test]
fn rolling_cluster_failures_at_scale_recover_without_livelock() {
    // Three 16-tile clusters of a 512-core hierarchical chip fail in an
    // overlapping rolling wave. Displaced traffic re-homes across cluster
    // boundaries (same set residue, next surviving cluster) and homes
    // back as each wave passes; the run must finish the full quota with
    // translations actually served from backups along the way.
    const BIG: usize = 512;
    const QUOTA: u64 = 100;
    let spec = "cluster:1/16@0-3000; cluster:2/16@2000-6000; \
                cluster:3/16@5000-9000; retry=6";
    let mut config = SystemConfig::new(BIG, TlbOrg::paper_hier(16));
    config.metrics = true;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let report = Simulation::new(config, workload)
        .with_faults(spec.parse().expect("spec"))
        .with_recovery(RecoveryPolicy::all())
        .try_run(QUOTA)
        .expect("rolling cluster failures with recovery must terminate");
    assert_eq!(
        report.accesses,
        BIG as u64 * QUOTA,
        "lost translations during the rolling cluster wave"
    );
    assert!(
        report
            .metrics
            .counter("recovery.translations_recovered")
            .is_some_and(|v| v > 0),
        "no translation was recovered across the wave"
    );
    assert!(
        report
            .metrics
            .counter("recovery.rehome_homebacks")
            .is_some_and(|v| v > 0),
        "no re-homing window ever closed"
    );
}

#[test]
#[ignore = "nightly: 1024-core cascading-recovery chaos (ci.sh --nightly)"]
fn nightly_cascading_recovery_storm_at_1024_cores() {
    // The full stack at scale: a rolling two-cluster failure wave with an
    // outage-triggered shootdown storm on a 1024-core hierarchical chip,
    // closed-loop recovery on. Must finish losslessly with a non-empty
    // recovered count and serialize byte-identically across two runs.
    const BIG: usize = 1024;
    const QUOTA: u64 = 120;
    let spec = "cluster:3/16@0-4000; cluster:7/16@3000-8000; \
                storm@0-4000; retry=6";
    let run = || {
        let mut config = SystemConfig::new(BIG, TlbOrg::paper_hier(16));
        config.metrics = true;
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        Simulation::new(config, workload)
            .with_faults(spec.parse().expect("spec"))
            .with_recovery(RecoveryPolicy::all())
            .try_run(QUOTA)
            .expect("cascading chaos at 1024 cores must terminate")
    };
    let first = run();
    assert_eq!(
        first.accesses,
        BIG as u64 * QUOTA,
        "lost translations during the 1024-core cascade"
    );
    assert!(
        first
            .metrics
            .counter("recovery.translations_recovered")
            .is_some_and(|v| v > 0),
        "the closed loop never recovered a translation at scale"
    );
    assert_eq!(
        first.to_json().to_string(),
        run().to_json().to_string(),
        "nondeterministic 1024-core cascading-recovery run"
    );
}

#[test]
fn hier_overlay_outage_terminates_via_escape_paths() {
    // A chip-wide overlay outage under the hierarchical fabric: intra-
    // cluster traffic is untouched, and cross-cluster messages (shootdown
    // invalidations) burn their retry budget then take the maintenance
    // escape path — the run must finish, not trip the livelock watchdog.
    const WIDE: usize = 256;
    const QUOTA: u64 = 120;
    let config = SystemConfig::new(WIDE, TlbOrg::paper_hier(16));
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let report = Simulation::new(config, workload)
        .with_faults("link:*@0-40000=off; retry=4".parse().expect("spec"))
        .try_run(QUOTA)
        .expect("overlay outage with a finite retry budget must terminate");
    assert_eq!(report.accesses, WIDE as u64 * QUOTA);
}

#[test]
fn fault_metrics_surface_only_under_a_nonempty_plan() {
    let clean = sim(TlbOrg::paper_nocstar(), true).run(ACCESSES);
    assert!(clean.metrics.counter("faults.fallbacks").is_none());
    let spec = "deny@0-10000000; link:*@2000-6000=off; walk@0-10000000=x8; retry=4";
    let faulted = sim(TlbOrg::paper_nocstar(), true)
        .with_faults(spec.parse().expect("spec"))
        .run(ACCESSES);
    assert!(faulted
        .metrics
        .counter("faults.denied_setups")
        .is_some_and(|v| v > 0));
    assert!(faulted
        .metrics
        .counter("faults.walk_spikes")
        .is_some_and(|v| v > 0));
    assert!(faulted.metrics.counter("faults.backoff_cycles").is_some());
}

#[test]
fn wedged_fabric_reports_livelock_with_diagnostics() {
    // Permanent chip-wide outage and an unbounded retry budget: the
    // fabric can never deliver, and the escape fallback is disabled. The
    // watchdog must convert the wedge into a typed error.
    let mut config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
    config.livelock_window = 50_000;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let abort = Simulation::new(config, workload)
        .with_faults("link:*@0-10000000000=off; retry=inf".parse().expect("spec"))
        .try_run(ACCESSES)
        .expect_err("a wedged fabric must not complete");
    assert_eq!(abort.error.kind(), "livelock");
    let snap = abort.error.snapshot();
    assert!(
        !snap.pending_messages.is_empty(),
        "snapshot must show the stuck messages"
    );
    assert!(
        !snap.active_faults.is_empty(),
        "snapshot must name the active faults"
    );
    assert!(snap.unfinished_threads > 0);
    // The partial report still carries whatever completed pre-wedge.
    assert!(abort.partial.accesses > 0);
}

#[test]
fn cycle_budget_produces_a_structured_timeout_with_partial_report() {
    let mut config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
    config.max_cycles = Some(2_000);
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let abort = Simulation::new(config, workload)
        .try_run(50_000)
        .expect_err("a 2k-cycle budget cannot cover 50k accesses/thread");
    assert_eq!(abort.error.kind(), "cycle-budget-exceeded");
    assert!(abort.error.snapshot().cycle <= 2_000);
    // Partial per-thread progress exists and stops near the budget: thread
    // finish times are completion stamps (event cycle + data latency), so
    // the makespan may overshoot by one in-flight access, never by the
    // millions of cycles the full 50k-access run would take.
    assert_eq!(abort.partial.per_thread_finish.len(), CORES);
    assert!(abort.partial.cycles < 10_000);
}

#[test]
fn budget_larger_than_the_run_changes_nothing() {
    let plain = sim(TlbOrg::paper_nocstar(), true).run(ACCESSES);
    let mut config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
    config.metrics = true;
    config.max_cycles = Some(u64::MAX);
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let budgeted = Simulation::new(config, workload).run(ACCESSES);
    assert_eq!(plain.to_json().to_string(), budgeted.to_json().to_string());
}

mod property {
    use super::*;
    use proptest::prelude::*;

    /// Assembles a random-but-valid fault spec: `mask` decides which of
    /// the five fault classes is present; windows sit inside the first
    /// ~60k cycles of the run.
    #[allow(clippy::too_many_arguments)]
    fn build_spec(
        seed: u64,
        mask: u8,
        deny: (u64, u64),
        degrade: (u64, u64, u64),
        walk: (u64, u64, u64),
        slice: (usize, u64, u64),
        storm: (u64, u64),
    ) -> String {
        let mut clauses = vec![format!("seed={seed}"), "retry=8".to_string()];
        if mask & 1 != 0 {
            clauses.push(format!("deny@{}-{}", deny.0, deny.0 + deny.1));
        }
        if mask & 2 != 0 {
            clauses.push(format!(
                "link:*@{}-{}=+{}",
                degrade.0,
                degrade.0 + degrade.1,
                degrade.2
            ));
        }
        if mask & 4 != 0 {
            clauses.push(format!("walk@{}-{}=x{}", walk.0, walk.0 + walk.1, walk.2));
        }
        if mask & 8 != 0 {
            clauses.push(format!(
                "slice:{}@{}-{}",
                slice.0,
                slice.1,
                slice.1 + slice.2
            ));
        }
        if mask & 16 != 0 {
            clauses.push(format!("storm@{}-{}", storm.0, storm.0 + storm.1));
        }
        clauses.join("; ")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any generated schedule completes the full quota, and the same
        /// schedule serializes identically twice.
        #[test]
        fn random_fault_schedules_lose_nothing_and_stay_deterministic(
            seed in 0u64..16,
            mask in 0u8..32,
            deny in (0u64..30_000, 1u64..30_000),
            degrade in (0u64..30_000, 1u64..30_000, 1u64..4),
            walk in (0u64..30_000, 1u64..30_000, 2u64..9),
            slice in (0usize..4, 0u64..30_000, 1u64..30_000),
            storm in (0u64..30_000, 1u64..30_000),
        ) {
            let spec = build_spec(seed, mask, deny, degrade, walk, slice, storm);
            let quota = 300u64;
            let run = |spec: &str| {
                let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
                config.metrics = true;
                let workload = WorkloadAssignment::preset(&config, Preset::Gups);
                Simulation::new(config, workload)
                    .with_faults(spec.parse().expect("generated spec"))
                    .run(quota)
            };
            let first = run(&spec);
            prop_assert_eq!(first.accesses, 4 * quota, "lost translations under {}", spec);
            let second = run(&spec);
            prop_assert_eq!(
                first.to_json().to_string(),
                second.to_json().to_string(),
                "nondeterministic under {}", spec
            );
        }
    }
}

#[test]
fn extreme_fault_plans_end_in_a_report_or_a_structured_abort() {
    // Parse-valid plans whose link penalty, outage end or walk-spike
    // multiplier is u64::MAX: every fabric and the walker must saturate
    // their cycle arithmetic instead of overflowing, so each run
    // completes or aborts with a typed error, never a panic.
    const WIDE: usize = 16;
    const QUOTA: u64 = 150;
    let orgs = [
        TlbOrg::paper_distributed(),
        TlbOrg::paper_monolithic(WIDE),
        TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: 4,
            net: MonolithicNet::Smart(8),
            latency_override: None,
        },
        TlbOrg::paper_nocstar(),
        TlbOrg::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
            acquire: AcquireMode::RoundTrip,
            ideal_fabric: false,
        },
        TlbOrg::paper_hier(4),
        TlbOrg::Hier {
            slice_entries: 1024,
            cluster_size: 4,
            intra: IntraKind::Xbar,
            inter: InterKind::Smart(8),
        },
    ];
    let plans = [
        "link:0@0-100=+18446744073709551615",
        "link:*@0-18446744073709551615=off",
        "walk@0-1000=x18446744073709551615",
    ];
    for org in orgs {
        for plan in plans {
            for policy in [RecoveryPolicy::default(), RecoveryPolicy::all()] {
                let config = SystemConfig::new(WIDE, org);
                let workload = WorkloadAssignment::preset(&config, Preset::Redis);
                let result = Simulation::new(config, workload)
                    .with_faults(plan.parse().expect("spec"))
                    .with_recovery(policy)
                    .try_run(QUOTA);
                if let Err(abort) = result {
                    assert!(
                        !abort.error.kind().is_empty(),
                        "{} under `{plan}`: untyped abort",
                        org.label()
                    );
                }
            }
        }
    }
}
