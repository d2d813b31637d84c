//! Closed-loop recovery study: the reactive [`RecoveryPolicy`] against
//! the static open-loop baseline, under the standard outage plans, across
//! fabrics and core counts. Not a paper figure — a robustness study of
//! the reproduction itself: the closed loop must buy back latency (mesh
//! escalation escapes a link blackout, hierarchical re-homing serves a
//! dead cluster's sets from a backup), and the detect→recovered
//! percentiles quantify how quickly it reacts.
//!
//! The study sets each run's outage plan and recovery policy itself, so
//! `nocstar-bench recovery` exits with code 2 when given `--faults`,
//! `--recovery` or `--sample`.

use crate::{emit, parallel_map, settings, Effort, Settings};
use nocstar::prelude::*;

/// One scenario per fabric × scale: a label, the organization, the core
/// count, and the outage plan whose windows sit in absolute cycles (so
/// runs measure from cycle zero, like the faultsweep).
fn scenarios() -> Vec<(&'static str, TlbOrg, usize, &'static str)> {
    vec![
        (
            "mesh link blackout",
            TlbOrg::paper_distributed(),
            16,
            "link:*@4000-9000=off",
        ),
        (
            "mesh link blackout",
            TlbOrg::paper_distributed(),
            64,
            "link:*@4000-9000=off",
        ),
        (
            "mesh single-link outage",
            TlbOrg::paper_distributed(),
            16,
            "link:5@4000-60000=off",
        ),
        (
            "circuit link blackout",
            TlbOrg::paper_nocstar(),
            16,
            "link:*@4000-9000=off",
        ),
        (
            "hier cluster outage",
            TlbOrg::paper_hier(4),
            16,
            "cluster:1/4@1000-400000",
        ),
        (
            "hier cluster outage",
            TlbOrg::paper_hier(8),
            64,
            "cluster:1/8@1000-400000",
        ),
    ]
}

fn run_one(effort: Effort, cores: usize, org: TlbOrg, spec: &str, closed: bool) -> SimReport {
    let mut config = SystemConfig::new(cores, org);
    // The recovery counters live in the metrics registry, so this study
    // collects metrics regardless of the global observability switches.
    config.metrics = true;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    let settings = Settings {
        faults: spec.parse().expect("outage plan"),
        recovery: if closed {
            RecoveryPolicy::all()
        } else {
            RecoveryPolicy::default()
        },
        ..settings().clone()
    };
    // Fault windows act on absolute cycles, so warmup would eat them:
    // measure from cycle zero instead (same convention as the faultsweep).
    settings.simulate(config, workload, 0, effort.accesses / 2)
}

fn counter(r: &SimReport, name: &str) -> u64 {
    r.metrics.counter(name).unwrap_or(0)
}

/// Regenerates the closed-loop recovery-latency study.
pub fn run(effort: Effort) {
    let mut table = Table::new([
        "scenario",
        "cores",
        "plan",
        "open mean",
        "closed mean",
        "latency saved",
        "recovered",
        "reroutes",
        "escalations",
        "detect p50",
        "detect p99",
    ]);
    let rows = parallel_map(scenarios(), |&(name, org, cores, spec)| {
        let open = run_one(effort, cores, org, spec, false);
        let closed = run_one(effort, cores, org, spec, true);
        (name, cores, spec, open, closed)
    });
    for (name, cores, spec, open, closed) in rows {
        let open_mean = open.translation_latency.mean();
        let closed_mean = closed.translation_latency.mean();
        // Mesh rows react through re-routing (detect→reroute percentiles);
        // hierarchical rows through re-homing (detect→recovered). Report
        // whichever loop actually closed.
        let pick = |suffix: &str| {
            let rehome = counter(&closed, &format!("recovery.detect_to_recovered_{suffix}"));
            if rehome > 0 {
                rehome
            } else {
                counter(&closed, &format!("recovery.detect_to_reroute_{suffix}"))
            }
        };
        table.row([
            name.to_string(),
            cores.to_string(),
            spec.to_string(),
            format!("{open_mean:.2}"),
            format!("{closed_mean:.2}"),
            format!(
                "{:.1}%",
                100.0 * (1.0 - closed_mean / open_mean.max(f64::MIN_POSITIVE))
            ),
            counter(&closed, "recovery.translations_recovered").to_string(),
            counter(&closed, "recovery.reroutes").to_string(),
            counter(&closed, "recovery.escalations").to_string(),
            pick("p50").to_string(),
            pick("p99").to_string(),
        ]);
    }
    emit(
        "recovery",
        "Closed-loop recovery vs static open loop under standard outages (redis)",
        &table,
    );
}
