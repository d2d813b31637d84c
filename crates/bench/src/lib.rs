//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see `DESIGN.md` for the per-experiment index,
//! and `src/bin/` for one binary per figure).
//!
//! The harness provides run-length presets (`--quick` / `NOCSTAR_QUICK=1`
//! for CI-sized runs), parallel fan-out over independent simulations, the
//! standard organization line-ups, and result persistence under
//! `bench_results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use nocstar::prelude::*;
use nocstar_json::Json;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// Ring-buffer capacity used for `--trace` runs: enough for the tail of a
/// quick run without bloating the emitted JSON.
const TRACE_CAPACITY: usize = 4096;

/// Observability settings shared by every experiment binary, resolved once
/// from the process arguments and environment:
///
/// * `--metrics-json <path>` (or `NOCSTAR_METRICS_JSON=<path>`) — enable
///   the simulator's metrics registry and write the collected per-run
///   reports to `<path>` as JSON, in addition to the per-experiment
///   `<name>.metrics.json` files next to the CSVs.
/// * `NOCSTAR_METRICS=1` — enable collection with per-experiment files
///   only (what `run_all` users typically want).
/// * `--trace` (or `NOCSTAR_TRACE=1`) — additionally record a bounded
///   cycle-level event trace per run into the same JSON.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    /// Explicit output path from `--metrics-json`, if any.
    pub metrics_json: Option<PathBuf>,
    /// Whether metrics collection is on at all.
    pub metrics: bool,
    /// Whether cycle-level tracing is on.
    pub trace: bool,
}

impl Observability {
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut metrics_json = args
            .iter()
            .position(|a| a == "--metrics-json")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        if metrics_json.is_none() {
            metrics_json = std::env::var("NOCSTAR_METRICS_JSON")
                .ok()
                .map(PathBuf::from);
        }
        let trace = args.iter().any(|a| a == "--trace")
            || std::env::var("NOCSTAR_TRACE").is_ok_and(|v| v != "0");
        let metrics = metrics_json.is_some()
            || trace
            || std::env::var("NOCSTAR_METRICS").is_ok_and(|v| v != "0");
        Self {
            metrics_json,
            metrics,
            trace,
        }
    }
}

/// The process-wide observability settings (first use resolves them).
pub fn observability() -> &'static Observability {
    static OBS: OnceLock<Observability> = OnceLock::new();
    OBS.get_or_init(Observability::from_env)
}

/// Fault-injection and run-budget settings shared by every experiment
/// binary, resolved once from the process arguments and environment:
///
/// * `--faults <spec>` (or `NOCSTAR_FAULTS=<spec>`) — install a
///   deterministic [`FaultPlan`] (see its docs for the spec grammar, e.g.
///   `"link:*@1000-5000=off; deny@0-2000; retry=8"`) into every run.
/// * `--max-cycles <n>` (or `NOCSTAR_MAX_CYCLES=<n>`) — abort any single
///   run that would advance past simulated cycle `n`, keeping whatever it
///   measured (the partial report is used, with a warning on stderr).
///
/// A malformed spec or budget terminates the process with exit code 2 —
/// a sweep must not silently run fault-free when faults were requested.
#[derive(Debug, Clone, Default)]
pub struct FaultSettings {
    /// The plan injected into every simulation (empty = fault-free).
    pub plan: FaultPlan,
    /// Hard per-run simulated-cycle budget, if any.
    pub max_cycles: Option<u64>,
}

impl FaultSettings {
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let spec = args
            .iter()
            .position(|a| a == "--faults")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| std::env::var("NOCSTAR_FAULTS").ok());
        let plan = match spec.as_deref().map(str::parse::<FaultPlan>) {
            None => FaultPlan::default(),
            Some(Ok(plan)) => plan,
            Some(Err(e)) => {
                eprintln!("error: bad fault spec: {e}");
                std::process::exit(2);
            }
        };
        let budget = args
            .iter()
            .position(|a| a == "--max-cycles")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| std::env::var("NOCSTAR_MAX_CYCLES").ok());
        let max_cycles = match budget.as_deref().map(str::parse::<u64>) {
            None => None,
            Some(Ok(n)) => Some(n),
            Some(Err(e)) => {
                eprintln!("error: bad --max-cycles value: {e}");
                std::process::exit(2);
            }
        };
        Self { plan, max_cycles }
    }
}

/// The process-wide fault settings (first use resolves them).
pub fn fault_settings() -> &'static FaultSettings {
    static FAULTS: OnceLock<FaultSettings> = OnceLock::new();
    FAULTS.get_or_init(FaultSettings::from_env)
}

/// Reactive-recovery settings shared by every experiment binary, resolved
/// once from the process arguments and environment:
///
/// * `--recovery <spec>` (or `NOCSTAR_RECOVERY=<spec>`) — install a
///   [`RecoveryPolicy`] (spec grammar: `"reroute; rehome; failover;
///   escalate=N"`, or `"all"` for every mechanism) into every run, closing
///   the loop on whatever `--faults` injects.
///
/// A malformed spec terminates the process with exit code 2 — a sweep must
/// not silently run open-loop when recovery was requested.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverySettings {
    /// The policy installed into every simulation (default = open loop).
    pub policy: RecoveryPolicy,
}

impl RecoverySettings {
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let spec = args
            .iter()
            .position(|a| a == "--recovery")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| std::env::var("NOCSTAR_RECOVERY").ok());
        let policy = match spec.as_deref().map(str::parse::<RecoveryPolicy>) {
            None => RecoveryPolicy::default(),
            Some(Ok(policy)) => policy,
            Some(Err(e)) => {
                eprintln!("error: bad recovery spec: {e}");
                std::process::exit(2);
            }
        };
        Self { policy }
    }
}

/// The process-wide recovery settings (first use resolves them).
pub fn recovery_settings() -> &'static RecoverySettings {
    static RECOVERY: OnceLock<RecoverySettings> = OnceLock::new();
    RECOVERY.get_or_init(RecoverySettings::from_env)
}

/// Trace-replay settings shared by every experiment binary, resolved once
/// from the process arguments and environment:
///
/// * `--trace-file <path>` (or `NOCSTAR_TRACE_FILE=<path>`) — drive every
///   run from a captured `.nct` trace file (see `TRACE_FORMAT.md` and the
///   `nocstar-trace` CLI) instead of the live synthetic generators. The
///   preset argument still selects labels/tables, but the address streams
///   come from the file; an unreadable or corrupt file terminates the
///   process with exit code 2 at the first run.
#[derive(Debug, Clone, Default)]
pub struct ReplaySettings {
    /// The trace file every run replays, if any.
    pub trace_file: Option<PathBuf>,
}

impl ReplaySettings {
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let trace_file = args
            .iter()
            .position(|a| a == "--trace-file")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
            .or_else(|| std::env::var("NOCSTAR_TRACE_FILE").ok().map(PathBuf::from));
        Self { trace_file }
    }
}

/// The process-wide replay settings (first use resolves them).
pub fn replay_settings() -> &'static ReplaySettings {
    static REPLAY: OnceLock<ReplaySettings> = OnceLock::new();
    REPLAY.get_or_init(ReplaySettings::from_env)
}

/// Sampled-replay settings shared by every experiment binary, resolved
/// once from the process arguments and environment:
///
/// * `--sample <spec>` (or `NOCSTAR_SAMPLE=<spec>`) — replace every run's
///   exact replay with sampled fast-forward replay per `SAMPLING.md`. The
///   spec is `<period>:<window>:<warmup>[@<seed>]` in accesses per thread,
///   e.g. `1000:60:30@7`; the whole effort span (warmup + measured
///   accesses per thread) becomes the sampled trace span, and each
///   report gains a `sampling` section with per-metric confidence
///   intervals.
///
/// A malformed spec terminates the process with exit code 2, as does
/// combining `--sample` with `--faults` or `--recovery` (fault windows
/// are cycle-based; fast-forward does not advance cycles).
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleSettings {
    /// The sampling spec applied to every run (`None` = exact replay).
    pub spec: Option<SampleSpec>,
}

impl SampleSettings {
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let raw = args
            .iter()
            .position(|a| a == "--sample")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| std::env::var("NOCSTAR_SAMPLE").ok());
        let spec = match raw.as_deref().map(str::parse::<SampleSpec>) {
            None => None,
            Some(Ok(spec)) => Some(spec),
            Some(Err(e)) => {
                eprintln!("error: bad sample spec: {e}");
                std::process::exit(2);
            }
        };
        Self { spec }
    }
}

/// The process-wide sampled-replay settings (first use resolves them).
pub fn sample_settings() -> &'static SampleSettings {
    static SAMPLE: OnceLock<SampleSettings> = OnceLock::new();
    SAMPLE.get_or_init(SampleSettings::from_env)
}

/// Reports collected since the last [`emit`], serialized eagerly so the
/// collector owns no simulator state.
static COLLECTED: Mutex<Vec<Json>> = Mutex::new(Vec::new());

/// Records one finished run's full JSON report for the next [`emit`].
/// No-op unless metrics collection is enabled.
pub fn collect_report(report: &SimReport) {
    if observability().metrics {
        COLLECTED.lock().expect("poisoned").push(report.to_json());
    }
}

/// Drains the collected reports, sorted by serialized form so the output
/// is independent of worker-thread completion order.
fn drain_collected() -> Vec<(String, Json)> {
    let mut drained: Vec<(String, Json)> = COLLECTED
        .lock()
        .expect("poisoned")
        .drain(..)
        .map(|j| (j.to_string(), j))
        .collect();
    drained.sort_by(|a, b| a.0.cmp(&b.0));
    drained
}

/// Run-length and sweep-size settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Warmup memory accesses per hardware thread (excluded from stats).
    pub warmup: u64,
    /// Measured memory accesses per hardware thread per run.
    pub accesses: u64,
    /// Whether this is the abbreviated (--quick) mode.
    pub quick: bool,
}

impl Effort {
    /// Resolves effort from the process arguments and environment:
    /// `--quick` or `NOCSTAR_QUICK=1` selects the abbreviated mode.
    pub fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("NOCSTAR_QUICK").is_ok_and(|v| v != "0");
        Self {
            warmup: if quick { 2_000 } else { 8_000 },
            accesses: if quick { 4_000 } else { 16_000 },
            quick,
        }
    }

    /// Runs one preset under one organization at this effort (with warmup),
    /// applying config tweaks first.
    pub fn run_with(
        &self,
        cores: usize,
        org: TlbOrg,
        preset: Preset,
        tweak: impl FnOnce(&mut SystemConfig),
    ) -> SimReport {
        let mut config = SystemConfig::new(cores, org);
        tweak(&mut config);
        let obs = observability();
        if obs.metrics {
            config.metrics = true;
        }
        if obs.trace {
            config.trace_capacity = TRACE_CAPACITY;
        }
        let faults = fault_settings();
        if let Some(budget) = faults.max_cycles {
            config.max_cycles = Some(budget);
        }
        let workload = match &replay_settings().trace_file {
            Some(path) => match WorkloadAssignment::from_trace_file(&config, path) {
                Ok(workload) => workload,
                Err(e) => {
                    eprintln!("error: cannot replay {}: {e}", path.display());
                    std::process::exit(2);
                }
            },
            None => WorkloadAssignment::preset(&config, preset),
        };
        let mut sim = Simulation::new(config, workload);
        if !faults.plan.is_empty() {
            sim = sim.with_faults(faults.plan.clone());
        }
        let recovery = recovery_settings();
        if recovery.policy.is_enabled() {
            sim = sim.with_recovery(recovery.policy);
        }
        if let Some(spec) = sample_settings().spec {
            if !faults.plan.is_empty() || recovery.policy.is_enabled() {
                eprintln!(
                    "error: --sample cannot be combined with --faults or --recovery \
                     (fault windows are cycle-based; fast-forward does not advance cycles)"
                );
                std::process::exit(2);
            }
            let span = self.warmup + self.accesses;
            if spec.windows(span) == 0 {
                eprintln!(
                    "error: sample spec {spec} places no measurement window \
                     in a span of {span} accesses per thread"
                );
                std::process::exit(2);
            }
            let report = match sim.try_run_sampled(spec, span) {
                Ok(report) => report,
                Err(abort) => {
                    eprintln!(
                        "warning: sampled {} run of {} aborted ({}); using the partial report",
                        org.label(),
                        preset.name(),
                        abort.error
                    );
                    abort.partial
                }
            };
            collect_report(&report);
            return report;
        }
        let report = match sim.try_run_measured(self.warmup, self.accesses) {
            Ok(report) => report,
            Err(abort) => {
                eprintln!(
                    "warning: {} run of {} aborted ({}); using the partial report",
                    org.label(),
                    preset.name(),
                    abort.error
                );
                abort.partial
            }
        };
        collect_report(&report);
        report
    }

    /// [`run_with`](Self::run_with) without tweaks.
    pub fn run(&self, cores: usize, org: TlbOrg, preset: Preset) -> SimReport {
        self.run_with(cores, org, preset, |_| {})
    }
}

/// The worker-pool width for [`parallel_map`]: `NOCSTAR_WORKERS` when set
/// (the determinism suite pins it to prove results are schedule-independent),
/// otherwise the available parallelism, always clamped to the item count.
pub fn worker_threads(n_items: usize) -> usize {
    std::env::var("NOCSTAR_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .min(n_items.max(1))
}

/// Maps `f` over `items` on a pool of worker threads (simulations are
/// independent and deterministic, so parallel order does not matter);
/// results come back in input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = worker_threads(items.len());
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *results[i].lock().expect("poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned").expect("worker filled"))
        .collect()
}

/// The output directory for experiment results (`bench_results/` at the
/// workspace root), created on first use.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("NOCSTAR_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results"));
    std::fs::create_dir_all(&dir).expect("create bench_results");
    dir
}

/// Prints a table under a heading and saves it as CSV in
/// [`out_dir`]`/<name>.csv`. When metrics collection is on, the per-run
/// reports gathered since the previous `emit` are additionally written as
/// `<name>.metrics.json` next to the CSV (and to the `--metrics-json`
/// path, when one was given).
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("== {title} ==\n");
    println!("{table}");
    let path = out_dir().join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write csv");
    println!("(saved {})\n", path.display());
    let obs = observability();
    if obs.metrics {
        let drained = drain_collected();
        if !drained.is_empty() {
            let doc = Json::Arr(drained.into_iter().map(|(_, j)| j).collect());
            let text = doc.to_string_pretty();
            let mpath = out_dir().join(format!("{name}.metrics.json"));
            std::fs::write(&mpath, &text).expect("write metrics json");
            println!("(saved {})\n", mpath.display());
            if let Some(explicit) = &obs.metrics_json {
                std::fs::write(explicit, &text).expect("write metrics json");
                println!("(saved {})\n", explicit.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect(), |x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn effort_defaults_to_full() {
        // No --quick in the test binary args.
        let e = Effort::from_env();
        assert!(e.accesses >= 4_000);
    }
}
