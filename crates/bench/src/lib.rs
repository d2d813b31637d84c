//! Shared harness for the `nocstar-bench` binary, which regenerates every
//! table and figure of the paper (see `DESIGN.md` for the per-experiment
//! index, and [`experiments::STEPS`] for the steps the binary runs).
//!
//! Every simulation an experiment runs goes through one entry point,
//! [`simulate`]: it applies the process-wide [`Settings`] (run length,
//! observability, faults, recovery, trace replay, sampling), turns an
//! aborted run into a warning plus its partial report, and queues the
//! report for [`emit`]. The harness also provides parallel fan-out over
//! independent simulations and result persistence under `bench_results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use nocstar::prelude::*;
use nocstar_json::Json;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

/// Ring-buffer capacity used for `--trace` runs: enough for the tail of a
/// quick run without bloating the emitted JSON.
const TRACE_CAPACITY: usize = 4096;

/// The harness settings every experiment honours, one flag each:
///
/// * `--quick` — CI-sized runs (see [`Effort`]).
/// * `--metrics` — collect each run's metrics and write them as
///   `<name>.metrics.json` next to each CSV.
/// * `--metrics-json <path>` — `--metrics`, and also write every report
///   the process emits to `<path>` as one JSON array.
/// * `--trace` — `--metrics`, and also record a bounded cycle-level
///   event trace per run into the same JSON.
/// * `--faults <spec>` — install a deterministic [`FaultPlan`] (grammar
///   in its docs, e.g. `"link:*@1000-5000=off; deny@0-2000; retry=8"`)
///   into every run.
/// * `--recovery <spec>` — install a [`RecoveryPolicy`]
///   (`"reroute; rehome; failover; escalate=N"`, or `"all"`) into every
///   run.
/// * `--max-cycles <n>` — abort any run that would pass simulated cycle
///   `n`, keeping its partial report.
/// * `--trace-file <path>` — drive every run's address streams from a
///   captured `.nct` file (`TRACE_FORMAT.md`) instead of the experiment's
///   generators.
/// * `--sample <spec>` — replace every run's exact replay with sampled
///   fast-forward replay (`SAMPLING.md`); the spec is
///   `<period>:<window>:<warmup>[@<seed>]` in accesses per thread, and a
///   run's warmup plus measured accesses become its sampled span.
///
/// A malformed or missing value is an error naming its flag, and so is
/// `--sample` with `--faults` or `--recovery`: fault windows are
/// cycle-based and fast-forward does not advance cycles. So is any other
/// `--` argument, unless the step declared it (see [`Flag`]).
#[derive(Debug, Clone, Default)]
pub struct Settings {
    /// Abbreviated (CI-sized) runs.
    pub quick: bool,
    /// Whether each run's metrics are collected for [`emit`].
    pub metrics: bool,
    /// Extra output path for the collected reports, if any.
    pub metrics_json: Option<PathBuf>,
    /// Whether each run records a bounded cycle-level trace.
    pub trace: bool,
    /// The plan installed into every run (empty = fault-free).
    pub faults: FaultPlan,
    /// The policy installed into every run (default = open loop).
    pub recovery: RecoveryPolicy,
    /// Hard per-run simulated-cycle budget, if any.
    pub max_cycles: Option<u64>,
    /// The trace file every run replays, if any.
    pub trace_file: Option<PathBuf>,
    /// The sampling spec every run uses (`None` = exact replay).
    pub sample: Option<SampleSpec>,
    /// The parsed arguments, where a step finds its own flags.
    args: Vec<String>,
}

/// A flag a step accepts besides the harness's own, declared in its
/// [`experiments::Step`] so that [`Settings::parse`] does not reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// A switch without a value, e.g. `--no-thp`.
    Bare(&'static str),
    /// A flag followed by its value, e.g. `--cores 16`.
    Value(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Bare(name) | Flag::Value(name) => name,
        }
    }
}

/// The flags of [`Settings`], which every step accepts.
const HARNESS_FLAGS: [Flag; 9] = [
    Flag::Bare("--quick"),
    Flag::Bare("--metrics"),
    Flag::Bare("--trace"),
    Flag::Value("--metrics-json"),
    Flag::Value("--faults"),
    Flag::Value("--recovery"),
    Flag::Value("--max-cycles"),
    Flag::Value("--trace-file"),
    Flag::Value("--sample"),
];

/// The value following `flag` in `args`, if the flag is there (after
/// [`Settings::parse`] has checked that every value flag has one).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

/// Checks that every `--` argument in `args` is a harness flag or one of
/// `own`, and that every value flag has its value.
fn check_flags(args: &[String], own: &[Flag]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match HARNESS_FLAGS.iter().chain(own).find(|f| f.name() == arg) {
            Some(Flag::Bare(_)) => {}
            Some(Flag::Value(flag)) => {
                if rest.next().is_none_or(|v| v.starts_with("--")) {
                    return Err(format!("{flag} needs a value"));
                }
            }
            None => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(())
}

/// Parses the value given for `flag` in `args`, if any, into a `T`.
fn parse_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|e| format!("bad {flag} value {v:?}: {e}"))
        })
        .transpose()
}

/// Prints `error: <msg>` and exits with code 2: a bad harness input must
/// stop the run, not be ignored.
pub(crate) fn bail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

impl Settings {
    /// Parses the settings from a step's command-line `args` (after the
    /// step name), accepting the step's `own` flags besides the harness's.
    ///
    /// # Errors
    ///
    /// A message naming the flag whose value is malformed or missing, or
    /// the unknown `--` argument, or rejecting `--sample` together with
    /// `--faults` or `--recovery`.
    pub fn parse(args: &[String], own: &[Flag]) -> Result<Self, String> {
        check_flags(args, own)?;
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let metrics_json = flag_value(args, "--metrics-json").map(PathBuf::from);
        let trace = has("--trace");
        let settings = Self {
            quick: has("--quick"),
            metrics: metrics_json.is_some() || trace || has("--metrics"),
            metrics_json,
            trace,
            faults: parse_value(args, "--faults")?.unwrap_or_default(),
            recovery: parse_value(args, "--recovery")?.unwrap_or_default(),
            max_cycles: parse_value(args, "--max-cycles")?,
            trace_file: flag_value(args, "--trace-file").map(PathBuf::from),
            sample: parse_value(args, "--sample")?,
            args: args.to_vec(),
        };
        if settings.sample.is_some()
            && (!settings.faults.is_empty() || settings.recovery.is_enabled())
        {
            return Err("--sample cannot be combined with --faults or --recovery \
                 (fault windows are cycle-based; fast-forward does not advance cycles)"
                .into());
        }
        Ok(settings)
    }

    /// The value given for the step's own value `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        flag_value(&self.args, flag)
    }

    /// Whether the step's own bare `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The first of `--faults`, `--recovery` and `--sample` that is set.
    /// The robustness studies (faultsweep, recovery, sampled) choose all
    /// three per run themselves, so none of them runs under any of these.
    pub fn study_flag(&self) -> Option<&'static str> {
        [
            ("--faults", !self.faults.is_empty()),
            ("--recovery", self.recovery.is_enabled()),
            ("--sample", self.sample.is_some()),
        ]
        .into_iter()
        .find_map(|(flag, set)| set.then_some(flag))
    }

    /// Runs `workload` on `config` under these settings: `warmup` then
    /// `measure` accesses per thread, or under `--sample` the sampled
    /// replay of that whole span. An aborted run (`--max-cycles`,
    /// deadlock, livelock) warns on stderr and returns its partial report.
    /// With metrics on, the report is queued for the next [`emit`]. An
    /// unreadable `--trace-file`, a sample spec that places no window in
    /// the span, or a fault plan naming a link, structure or cluster the
    /// run's system lacks ([`Simulation::validate_faults`]) exits with
    /// code 2.
    ///
    /// Every experiment runs its simulations through here (mostly via
    /// [`simulate`] and [`Effort::run_with`]), so every harness flag
    /// reaches every figure.
    pub fn simulate(
        &self,
        mut config: SystemConfig,
        workload: WorkloadAssignment,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        config.metrics |= self.metrics;
        if self.trace {
            config.trace_capacity = TRACE_CAPACITY;
        }
        if self.max_cycles.is_some() {
            config.max_cycles = self.max_cycles;
        }
        let workload = match &self.trace_file {
            Some(path) => WorkloadAssignment::from_trace_file(&config, path)
                .unwrap_or_else(|e| bail(format_args!("cannot replay {}: {e}", path.display()))),
            None => workload,
        };
        let run = format!("{} run of {}", config.org.label(), workload.label());
        let mut sim = Simulation::new(config, workload);
        if !self.faults.is_empty() {
            if let Err(e) = sim.validate_faults(&self.faults) {
                bail(format_args!("--faults does not fit the {run}: {e}"));
            }
            sim = sim.with_faults(self.faults.clone());
        }
        if self.recovery.is_enabled() {
            sim = sim.with_recovery(self.recovery);
        }
        let result = match self.sample {
            Some(spec) => {
                let span = warmup + measure;
                if spec.windows(span) == 0 {
                    bail(format_args!(
                        "sample spec {spec} places no measurement window \
                         in a span of {span} accesses per thread"
                    ));
                }
                sim.try_run_sampled(spec, span)
            }
            None => sim.try_run_measured(warmup, measure),
        };
        let report = result.unwrap_or_else(|abort| {
            eprintln!(
                "warning: {run} aborted ({}); using the partial report",
                abort.error
            );
            abort.partial
        });
        if self.metrics {
            COLLECTED.lock().expect("poisoned").push(report.to_json());
        }
        report
    }

    /// Prints a table under a heading and saves it as CSV in
    /// [`out_dir`]`/<name>.csv`. With metrics on, the reports collected
    /// since the previous `emit` are also written as `<name>.metrics.json`
    /// next to the CSV, and the `--metrics-json` path, when given, is
    /// rewritten with every report emitted so far in the process.
    pub fn emit(&self, name: &str, title: &str, table: &Table) {
        println!("== {title} ==\n");
        println!("{table}");
        let path = out_dir().join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv()).expect("write csv");
        println!("(saved {})\n", path.display());
        if !self.metrics {
            return;
        }
        let batch: Vec<Json> = drain_collected().into_iter().map(|(_, j)| j).collect();
        if batch.is_empty() {
            return;
        }
        let mpath = out_dir().join(format!("{name}.metrics.json"));
        let text = Json::Arr(batch).to_string_pretty();
        std::fs::write(&mpath, &text).expect("write metrics json");
        println!("(saved {})\n", mpath.display());
        if let Some(explicit) = &self.metrics_json {
            // A pretty array is `[\n`, its items joined by `,\n`, then
            // `\n]\n`, so the items of several arrays join into one.
            let items = text
                .strip_prefix("[\n")
                .and_then(|t| t.strip_suffix("\n]\n"))
                .expect("a non-empty pretty array");
            let mut emitted = EMITTED.lock().expect("poisoned");
            if !emitted.is_empty() {
                emitted.push_str(",\n");
            }
            emitted.push_str(items);
            std::fs::write(explicit, format!("[\n{emitted}\n]\n")).expect("write metrics json");
            println!("(saved {})\n", explicit.display());
        }
    }
}

/// The process-wide settings: those the `nocstar-bench` command line
/// gave (see [`experiments::run_command_line`]), or the defaults when
/// the library runs without it.
pub fn settings() -> &'static Settings {
    SETTINGS.get_or_init(Settings::default)
}

/// Set once, by [`experiments::run_command_line`], before any step runs.
static SETTINGS: OnceLock<Settings> = OnceLock::new();

/// [`Settings::simulate`] under the process-wide [`settings`].
pub fn simulate(
    config: SystemConfig,
    workload: WorkloadAssignment,
    warmup: u64,
    measure: u64,
) -> SimReport {
    settings().simulate(config, workload, warmup, measure)
}

/// Reports collected since the last [`emit`], serialized eagerly so the
/// collector owns no simulator state.
static COLLECTED: Mutex<Vec<Json>> = Mutex::new(Vec::new());

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

/// Every report emitted so far, in emit order, as the pretty-printed
/// items of the array the `--metrics-json` file holds.
static EMITTED: Mutex<String> = Mutex::new(String::new());

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
    /// The run length `settings` select: `--quick` selects the
    /// abbreviated mode.
    fn for_settings(settings: &Settings) -> Self {
        let quick = settings.quick;
        Self {
            warmup: if quick { 2_000 } else { 8_000 },
            accesses: if quick { 4_000 } else { 16_000 },
            quick,
        }
    }

    /// Runs one preset under one organization at this effort (with warmup)
    /// through [`simulate`], applying config tweaks first.
    pub fn run_with(
        &self,
        cores: usize,
        org: TlbOrg,
        preset: Preset,
        tweak: impl FnOnce(&mut SystemConfig),
    ) -> SimReport {
        let mut config = SystemConfig::new(cores, org);
        tweak(&mut config);
        let workload = WorkloadAssignment::preset(&config, preset);
        simulate(config, workload, self.warmup, self.accesses)
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

/// [`Settings::emit`] under the process-wide [`settings`].
pub fn emit(name: &str, title: &str, table: &Table) {
    settings().emit(name, title, table);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that drain the process-wide report collector.
    static COLLECTOR: Mutex<()> = Mutex::new(());

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect(), |x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn effort_defaults_to_full() {
        let e = Effort::for_settings(&parse(&[]).unwrap());
        assert!(!e.quick && e.accesses >= 4_000);
        assert!(Effort::for_settings(&parse(&["--quick"]).unwrap()).quick);
    }

    fn parse(args: &[&str]) -> Result<Settings, String> {
        parse_accepting(args, &[])
    }

    fn parse_accepting(args: &[&str], own: &[Flag]) -> Result<Settings, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Settings::parse(&args, own)
    }

    #[test]
    fn each_flag_sets_its_setting() {
        let s = parse(&[]).unwrap();
        assert!(!s.quick && !s.metrics && !s.trace && s.max_cycles.is_none());
        let s = parse(&["--max-cycles", "7", "--trace-file", "flag.nct"]).unwrap();
        assert_eq!(s.max_cycles, Some(7));
        assert_eq!(s.trace_file, Some(PathBuf::from("flag.nct")));
        let s = parse(&["--quick", "--trace"]).unwrap();
        assert!(s.quick && s.trace && s.metrics);
        let s = parse(&["--metrics"]).unwrap();
        assert!(s.metrics && !s.trace && s.metrics_json.is_none());
        let s = parse(&["--metrics-json", "out.json"]).unwrap();
        assert!(s.metrics && s.metrics_json == Some(PathBuf::from("out.json")));
    }

    #[test]
    fn malformed_values_name_their_flag() {
        for flag in ["--faults", "--sample", "--max-cycles", "--recovery"] {
            let err = parse(&[flag, "bogus@@"]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn a_value_flag_without_its_value_is_an_error_naming_it() {
        for flag in [
            "--faults",
            "--recovery",
            "--max-cycles",
            "--sample",
            "--trace-file",
            "--metrics-json",
        ] {
            let err = parse(&["--quick", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
            let err = parse(&[flag, "--quick"]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn unknown_arguments_are_rejected_unless_declared() {
        let err = parse(&["--quick", "--fualts", "deny@0-100000000"]).unwrap_err();
        assert!(err.contains("--fualts"), "{err}");
        let err = parse(&["--no-thp"]).unwrap_err();
        assert!(err.contains("--no-thp"), "{err}");
        let own = [Flag::Bare("--no-thp"), Flag::Value("--org")];
        let s = parse_accepting(&["--no-thp", "--quick", "--org", "ideal"], &own).unwrap();
        assert!(s.quick && s.has("--no-thp") && s.value("--org") == Some("ideal"));
        // Values and bare words are not flags, even when they look odd.
        assert!(parse(&["--faults", "deny@0-10", "stray"]).is_ok());
    }

    #[test]
    fn sample_with_faults_or_recovery_is_rejected_when_parsed() {
        let err = parse(&["--sample", "1000:60:30", "--faults", "deny@0-10"]).unwrap_err();
        assert!(
            err.contains("--sample") && err.contains("--faults"),
            "{err}"
        );
        assert!(parse(&["--sample", "1000:60:30", "--recovery", "all"]).is_err());
        let s = parse(&["--sample", "1000:60:30"]).unwrap();
        assert_eq!(s.study_flag(), Some("--sample"));
    }

    #[test]
    fn simulate_applies_the_settings_to_any_workload_and_queues_the_report() {
        let _serial = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        let settings = parse(&["--faults", "deny@0-100000000", "--metrics"]).unwrap();
        assert_eq!(settings.study_flag(), Some("--faults"));
        let config = SystemConfig::new(16, TlbOrg::paper_nocstar());
        let workload = WorkloadAssignment::slice_hammer(&config, Preset::Canneal, 256);
        let report = settings.simulate(config, workload, 100, 300);
        assert!(report.metrics.counter("faults.denied_setups").unwrap_or(0) > 0);
        let queued = report.to_json().to_string();
        assert!(drain_collected().iter().any(|(text, _)| *text == queued));
    }

    #[test]
    fn metrics_json_holds_every_report_the_process_emits() {
        let _serial = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("nocstar-bench-emit-{}", std::process::id()));
        std::env::set_var("NOCSTAR_OUT", &dir);
        let explicit = dir.join("all.json");
        let settings = parse(&["--metrics-json", explicit.to_str().unwrap()]).unwrap();
        let table = Table::new(["value"]);
        for (name, reports) in [("first", ["a", "b"]), ("second", ["c", "d"])] {
            COLLECTED.lock().unwrap().extend(reports.map(Json::str));
            settings.emit(name, name, &table);
        }
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap();
        let pretty = |items: &[&str]| {
            Json::Arr(items.iter().map(|i| Json::str(*i)).collect()).to_string_pretty()
        };
        assert_eq!(read("all.json"), pretty(&["a", "b", "c", "d"]));
        assert_eq!(read("second.metrics.json"), pretty(&["c", "d"]));
        std::env::remove_var("NOCSTAR_OUT");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
