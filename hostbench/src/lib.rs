//! Host-throughput benchmark of the NOCSTAR simulator.
//!
//! Four named workloads ([`Workload::all`]) each run closed batches of
//! simulated memory accesses on one host thread. [`Workload::prepare`]
//! does the untimed work (encoding the NCT capture the replay workload
//! reads); [`measure`] then repeats set-up and run until its time budget
//! is spent, gating every run for correctness ([`check_run`]). The traced
//! run and its per-layer replays live in [`layers`]. `README.md` in this
//! directory has the workload rationale and the metric → layer →
//! end-to-end map.

pub mod layers;

use nocstar::prelude::*;
use nocstar::workloads::microbench::StormTrace;
use nocstar::workloads::nct::fnv1a64;
use nocstar::workloads::trace::TraceSource;
use nocstar_json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workload seed used when `--seed` is not given. The stored report
/// digests ([`Workload::default_digests`]) are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Events captured per thread beyond the replay span, so the NCT replay
/// never wraps around on the non-access events (remaps) it also holds.
const CAPTURE_SLACK: u64 = 64;

/// The `k`-th simulation seed a run derives from the benchmark's `seed`.
pub(crate) fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

/// Where a workload's per-thread trace events come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feed {
    /// The preset's synthetic generator, one stream per hardware thread.
    Generator(Preset),
    /// The generator under context-switch flushes and superpage
    /// promote/demote churn (`WorkloadAssignment::storm`).
    Storm {
        /// The workload under the storm.
        preset: Preset,
        /// Trace events between context switches, per thread.
        ctx_switch_interval: u64,
        /// Trace events between promote/demote rounds, per thread.
        churn_interval: u64,
    },
    /// A capture of the preset's generator, one stream per hardware
    /// thread, encoded to an NCT file by [`Workload::prepare`] and
    /// replayed through `WorkloadAssignment::from_trace_file`.
    NctReplay(Preset),
}

/// How a workload's batch runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `try_run_measured(0, quota)`: every access is cycle-accurate.
    Exact {
        /// Accesses per thread.
        quota: u64,
    },
    /// `try_run_sampled(spec, span)`: functional fast-forward between
    /// detailed windows.
    Sampled {
        /// Window placement.
        spec: SampleSpec,
        /// Accesses per thread.
        span: u64,
    },
}

impl Mode {
    /// A sampled mode whose span ends exactly with its `windows`-th
    /// window, so the run consumes every access of the span.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero.
    pub fn sampled(spec: SampleSpec, windows: u64) -> Self {
        assert!(windows > 0, "a sampled batch needs a window");
        let span = spec.offset()
            + windows * (spec.warmup() + spec.window())
            + (windows - 1) * spec.slack();
        Mode::Sampled { spec, span }
    }

    /// Accesses each thread consumes.
    pub fn per_thread(&self) -> u64 {
        match *self {
            Mode::Exact { quota } => quota,
            Mode::Sampled { span, .. } => span,
        }
    }

    /// Whether a thread's `index`-th access (from 0) takes the detailed
    /// path rather than functional fast-forward.
    pub fn detailed(&self, index: u64) -> bool {
        match *self {
            Mode::Exact { .. } => true,
            Mode::Sampled { spec, .. } => {
                index >= spec.offset()
                    && (index - spec.offset()) % spec.period() < spec.warmup() + spec.window()
            }
        }
    }

    /// Whether a thread's `index`-th access is measured in the batch's
    /// last window: every access of an exact batch, the window after the
    /// last warmup of a sampled one.
    pub fn in_last_window(&self, index: u64) -> bool {
        match *self {
            Mode::Exact { .. } => true,
            Mode::Sampled { spec, span } => {
                let start = spec.offset()
                    + spec.windows(span).saturating_sub(1) * spec.period()
                    + spec.warmup();
                (start..start + spec.window()).contains(&index)
            }
        }
    }
}

/// One benchmark workload: a system, a trace feed, a closed batch, and
/// how many simulation seeds one benchmark run spreads over.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Core count (one hardware thread per core).
    pub cores: usize,
    /// The L2 TLB organization, which fixes the fabric.
    pub org: TlbOrg,
    /// Where the trace events come from.
    pub feed: Feed,
    /// Exact or sampled, and how many accesses per thread.
    pub mode: Mode,
    /// Simulation seeds per benchmark run (`seed * 1000 + k`). Host cost
    /// depends on the seed (it places the hot pages, and with them the
    /// slice hot spots and circuit retries), so a run covers several.
    pub seeds: u64,
    /// FNV-1a-64 of the untraced report's JSON for each sub-seed of
    /// [`DEFAULT_SEED`]. Empty (ad-hoc workloads): every run must repeat
    /// its sub-seed's first digest instead.
    pub default_digests: &'static [u64],
}

impl Workload {
    /// The benchmark's workloads, in `BENCHMARK.json` order.
    pub fn all() -> Vec<Workload> {
        // ~10x more accesses fast-forwarded than detailed, the ratio the
        // sampled-replay validation (`SAMPLING.md`) uses, at half its period.
        let sample: SampleSpec = "500:30:15@7".parse().expect("valid sample spec");
        vec![
            Workload {
                name: "circuit-redis-256",
                cores: 256,
                org: TlbOrg::paper_nocstar(),
                feed: Feed::Generator(Preset::Redis),
                mode: Mode::Exact { quota: 300 },
                seeds: 16,
                default_digests: &[
                    0xcc99d075cd3da993,
                    0xfd9d4716ba6cc8c0,
                    0x3e4274745394db7a,
                    0x44de1ca1638cf691,
                    0x763efa9d6e4a3481,
                    0x4257cc11dafbe3a7,
                    0x388dc5fa87f7190a,
                    0x058b194b7f935555,
                    0x98a7fd0626933e6d,
                    0xbf61cb793ee2f1f9,
                    0xbdcc8dcc5b8cd49f,
                    0xca8c2d5c3365b3a7,
                    0xb66f9e0f0cf1f943,
                    0x1e55d662f4305057,
                    0xac6029bbeeb0c3bf,
                    0x190c8761799cd26c,
                ],
            },
            Workload {
                name: "mesh-gups-256",
                cores: 256,
                org: TlbOrg::paper_distributed(),
                feed: Feed::Generator(Preset::Gups),
                mode: Mode::Exact { quota: 800 },
                seeds: 16,
                default_digests: &[
                    0xb45a8359ede1fddb,
                    0xe31db373ab29019d,
                    0xcebc591261f68e3e,
                    0x2f4cf15009d62942,
                    0x3c0e055c3831f701,
                    0x2a0f28e0c1aa99ab,
                    0x9e9745f303d47d58,
                    0x3736fa38d4f28064,
                    0x9b8912222fe6ccba,
                    0xeb850abb05220bfa,
                    0x4cce6ea73ab01df7,
                    0x661bbb0a4d4b6c5d,
                    0x56ef43ffd981abe7,
                    0x56ad00791864ff3a,
                    0xaf36339796095987,
                    0x5591ecba6eeccbd4,
                ],
            },
            Workload {
                name: "hier-storm-256",
                cores: 256,
                org: TlbOrg::paper_hier(16),
                feed: Feed::Storm {
                    preset: Preset::Canneal,
                    ctx_switch_interval: 100,
                    churn_interval: 150,
                },
                mode: Mode::Exact { quota: 400 },
                seeds: 16,
                default_digests: &[
                    0x2d68daf1aea85c5d,
                    0xcc37e20544b41290,
                    0xbc778ffe5775f161,
                    0x5d1457fd65faa8d2,
                    0xc3f02c5d2784b0e0,
                    0xe59db90a460addaa,
                    0xb728fc925a6f0c02,
                    0x81920b56cab64171,
                    0xe73c73dd530edacf,
                    0x66039ed67f423b3a,
                    0x7768b908fe09d713,
                    0xc2298a81104d228f,
                    0x620f53fa91f96f5d,
                    0x57f81042e47ce623,
                    0x1b76206fed79fe04,
                    0xe646eb07f038f130,
                ],
            },
            Workload {
                name: "hier-replay-sampled-1024",
                cores: 1024,
                org: TlbOrg::paper_hier(16),
                feed: Feed::NctReplay(Preset::Redis),
                mode: Mode::sampled(sample, 3),
                seeds: 1,
                default_digests: &[0x66d6c931cb2e082a],
            },
        ]
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// The simulated system: the default configuration with this core
    /// count, organization and simulation seed.
    pub fn config(&self, sim_seed: u64) -> SystemConfig {
        let mut config = SystemConfig::new(self.cores, self.org);
        config.seed = sim_seed;
        config
    }

    /// Untimed preparation for benchmark seed `seed`: encodes, under
    /// `work_dir`, the NCT capture an [`NctReplay`](Feed::NctReplay)
    /// workload replays for each of its sub-seeds.
    ///
    /// # Errors
    ///
    /// Any I/O or encoding failure, as text.
    pub fn prepare(&self, seed: u64, work_dir: &Path) -> Result<Prepared, String> {
        let Feed::NctReplay(preset) = self.feed else {
            return Ok(Prepared::default());
        };
        let spec = preset.spec();
        let events = self.mode.per_thread() + CAPTURE_SLACK;
        let mut prepared = Prepared::default();
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
        for k in 0..self.seeds {
            let config = self.config(sub_seed(seed, k));
            let start = Instant::now();
            let traces: Vec<RecordedTrace> = (0..config.threads())
                .map(|t| {
                    let mut src =
                        spec.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp);
                    RecordedTrace::capture(&mut src, events as usize)
                })
                .collect();
            prepared.generate_s += start.elapsed().as_secs_f64();
            prepared.generated_events += events * config.threads() as u64;
            let path = work_dir.join(format!("{}-{}.nct", self.name, config.seed));
            NctFile::from_recorded(&traces, spec.name)
                .and_then(|file| file.save(&path))
                .map_err(|e| format!("encoding {}: {e}", path.display()))?;
            prepared.nct.push(path);
        }
        Ok(prepared)
    }

    /// The assignment the simulator runs for sub-seed `k`, built by the
    /// public constructor for this feed (for NCT replay: open and fully
    /// validate the file).
    ///
    /// # Errors
    ///
    /// An NCT open or validation failure, as text.
    pub fn assignment(
        &self,
        config: &SystemConfig,
        prepared: &Prepared,
        k: u64,
    ) -> Result<WorkloadAssignment, String> {
        match self.feed {
            Feed::Generator(preset) => Ok(WorkloadAssignment::preset(config, preset)),
            Feed::Storm {
                preset,
                ctx_switch_interval,
                churn_interval,
            } => Ok(WorkloadAssignment::storm(
                config,
                preset,
                ctx_switch_interval,
                churn_interval,
            )),
            Feed::NctReplay(_) => WorkloadAssignment::from_trace_file(config, prepared.nct(k)?)
                .map_err(|e| e.to_string()),
        }
    }

    /// Fresh per-thread sources equal to the ones
    /// [`assignment`](Self::assignment) hands the simulator: the inputs
    /// of the layer replays.
    ///
    /// # Errors
    ///
    /// An NCT open or validation failure, as text.
    pub fn sources(
        &self,
        config: &SystemConfig,
        prepared: &Prepared,
        k: u64,
    ) -> Result<Vec<Box<dyn TraceSource>>, String> {
        (0..config.threads())
            .map(|t| -> Result<Box<dyn TraceSource>, String> {
                let thread = ThreadId::new(t);
                Ok(match self.feed {
                    Feed::Generator(preset) => Box::new(preset.spec().trace(
                        Asid::new(1),
                        thread,
                        config.seed,
                        config.thp,
                    )),
                    Feed::Storm {
                        preset,
                        ctx_switch_interval,
                        churn_interval,
                    } => Box::new(StormTrace::new(
                        preset
                            .spec()
                            .trace(Asid::new(1), thread, config.seed, config.thp),
                        ctx_switch_interval,
                        churn_interval,
                    )),
                    Feed::NctReplay(_) => {
                        let stream = u16::try_from(t).map_err(|e| e.to_string())?;
                        Box::new(
                            FileTrace::open(prepared.nct(k)?, stream).map_err(|e| e.to_string())?,
                        )
                    }
                })
            })
            .collect()
    }

    /// Runs the batch.
    ///
    /// # Errors
    ///
    /// The simulator's structured abort.
    pub fn run(&self, sim: Simulation) -> Result<SimReport, Box<SimAbort>> {
        match self.mode {
            Mode::Exact { quota } => sim.try_run_measured(0, quota),
            Mode::Sampled { spec, span } => sim.try_run_sampled(spec, span),
        }
    }
}

/// Memory accesses a run completed: detailed plus fast-forwarded.
pub(crate) fn processed_accesses(report: &SimReport) -> u64 {
    match &report.sampling {
        Some(s) => s.accesses_fast_forwarded + s.accesses_detailed,
        None => report.accesses,
    }
}

/// What [`Workload::prepare`] made.
#[derive(Debug, Clone, Default)]
pub struct Prepared {
    /// NCT captures, one per sub-seed.
    nct: Vec<PathBuf>,
    /// Trace events generated for the captures.
    pub generated_events: u64,
    /// Host seconds spent generating them.
    pub generate_s: f64,
}

impl Prepared {
    fn nct(&self, k: u64) -> Result<&Path, String> {
        usize::try_from(k)
            .ok()
            .and_then(|k| self.nct.get(k))
            .map(PathBuf::as_path)
            .ok_or_else(|| format!("no NCT capture prepared for sub-seed {k}"))
    }

    /// Deletes the files preparation wrote.
    pub fn cleanup(&self) {
        for path in &self.nct {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// FNV-1a-64 of the report's JSON text: the simulated machine's
/// fingerprint. Host timing never reaches a `SimReport`, so equal
/// simulations give equal digests.
pub(crate) fn digest(report: &SimReport) -> u64 {
    fnv1a64(report.to_json().to_string().as_bytes())
}

/// The report digest every timed run of each sub-seed must reproduce.
#[derive(Debug, Clone)]
pub struct DigestGate {
    expected: Vec<Option<u64>>,
}

impl DigestGate {
    /// The stored digests at the default seed; otherwise each sub-seed's
    /// first run's.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let stored =
            seed == DEFAULT_SEED && workload.default_digests.len() as u64 == workload.seeds;
        Self {
            expected: (0..workload.seeds as usize)
                .map(|k| stored.then(|| workload.default_digests[k]))
                .collect(),
        }
    }

    /// A gate expecting `digest` from every run of every sub-seed.
    pub fn expecting(workload: &Workload, digest: u64) -> Self {
        Self {
            expected: vec![Some(digest); workload.seeds as usize],
        }
    }
}

/// Checks one timed run of sub-seed `k` three ways: it returned `Ok`, it
/// completed the access count its batch fixes, and its report digest
/// passes the gate.
///
/// # Errors
///
/// Why the run failed, as text.
pub fn check_run(
    workload: &Workload,
    threads: u64,
    result: Result<SimReport, Box<SimAbort>>,
    gate: &mut DigestGate,
    k: u64,
) -> Result<SimReport, String> {
    let report = result.map_err(|abort| format!("run aborted: {}", abort.error))?;
    let (got, want) = match (workload.mode, &report.sampling) {
        (Mode::Exact { quota }, None) => (report.accesses, threads * quota),
        (Mode::Sampled { spec, span }, Some(s)) => {
            let measured = spec.windows(span) * spec.window() * threads;
            if report.accesses != measured {
                return Err(format!(
                    "sampled run measured {} accesses, expected {measured}",
                    report.accesses
                ));
            }
            (
                s.accesses_fast_forwarded + s.accesses_detailed,
                threads * span,
            )
        }
        _ => return Err("report mode does not match the batch".into()),
    };
    if got != want {
        return Err(format!("run completed {got} accesses, expected {want}"));
    }
    let d = digest(&report);
    let slot = usize::try_from(k)
        .ok()
        .and_then(|k| gate.expected.get_mut(k))
        .ok_or_else(|| format!("sub-seed {k} out of range"))?;
    match *slot {
        Some(expected) if expected != d => Err(format!(
            "sub-seed {k}: report digest {d:#018x} differs from the expected {expected:#018x}"
        )),
        Some(_) => Ok(report),
        None => {
            *slot = Some(d);
            Ok(report)
        }
    }
}

/// The passing runs of one sub-seed.
#[derive(Debug, Default)]
pub struct SeedRuns {
    /// `WorkloadAssignment` construction, seconds per run.
    pub assign_s: Vec<f64>,
    /// `Simulation::new`, seconds per run.
    pub new_s: Vec<f64>,
    /// The run call, seconds per run.
    pub run_s: Vec<f64>,
    /// The last passing report.
    pub report: Option<SimReport>,
}

/// Everything [`measure`] recorded.
#[derive(Debug, Default)]
pub struct Batch {
    /// Passing runs, by sub-seed.
    pub seeds: Vec<SeedRuns>,
    /// Runs started.
    pub attempted: u64,
    /// Runs that failed [`check_run`] (or could not be set up).
    pub failed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Batch {
    /// Accesses per second of running every sub-seed's batch once, each
    /// taking its median run time: total accesses over the sum of the
    /// medians. 0 unless every sub-seed has a passing run.
    pub fn accesses_per_s(&self) -> f64 {
        let mut accesses = 0u64;
        let mut seconds = 0.0;
        for s in &self.seeds {
            let Some(report) = &s.report else {
                return 0.0;
            };
            accesses += processed_accesses(report);
            seconds += median(&s.run_s);
        }
        ratio(accesses as f64, seconds)
    }

    /// Every passing run's accesses per second.
    pub fn run_rates(&self) -> Vec<f64> {
        self.seeds
            .iter()
            .filter_map(|s| {
                let accesses = processed_accesses(s.report.as_ref()?) as f64;
                Some(s.run_s.iter().map(move |t| accesses / t))
            })
            .flatten()
            .collect()
    }

    /// Every passing run's set-up time: assignment plus `Simulation::new`.
    pub fn setup_s(&self) -> Vec<f64> {
        self.seeds
            .iter()
            .flat_map(|s| s.assign_s.iter().zip(&s.new_s).map(|(a, n)| a + n))
            .collect()
    }
}

/// Failure reasons [`Batch::errors`] keeps.
const MAX_ERRORS: usize = 8;

/// Runs `workload`'s sub-seeds in rounds, set-up and batch each, gating
/// every run with [`check_run`]. Runs one round, then another while the
/// slowest round so far still fits in `budget`, so every sub-seed runs
/// equally often and the total stays within budget.
pub fn measure(
    workload: &Workload,
    seed: u64,
    prepared: &Prepared,
    budget: Duration,
    gate: &mut DigestGate,
) -> Batch {
    let start = Instant::now();
    let mut batch = Batch {
        seeds: (0..workload.seeds).map(|_| SeedRuns::default()).collect(),
        ..Batch::default()
    };
    let mut slowest = Duration::ZERO;
    loop {
        let round = Instant::now();
        measure_round(workload, seed, prepared, gate, &mut batch);
        slowest = slowest.max(round.elapsed());
        if start.elapsed() + slowest > budget {
            return batch;
        }
    }
}

/// One run of every sub-seed.
fn measure_round(
    workload: &Workload,
    seed: u64,
    prepared: &Prepared,
    gate: &mut DigestGate,
    batch: &mut Batch,
) {
    for k in 0..workload.seeds {
        batch.attempted += 1;
        let config = workload.config(sub_seed(seed, k));
        let t0 = Instant::now();
        let outcome = workload
            .assignment(&config, prepared, k)
            .and_then(|assignment| {
                let t1 = Instant::now();
                let sim = Simulation::new(config, assignment);
                let t2 = Instant::now();
                let result = workload.run(sim);
                let run_s = t2.elapsed().as_secs_f64();
                check_run(workload, config.threads() as u64, result, gate, k)
                    .map(|report| (t1 - t0, t2 - t1, run_s, report))
            });
        match outcome {
            Ok((assign, new, run_s, report)) => {
                let s = &mut batch.seeds[k as usize];
                s.assign_s.push(assign.as_secs_f64());
                s.new_s.push(new.as_secs_f64());
                s.run_s.push(run_s);
                s.report = Some(report);
            }
            Err(e) => {
                batch.failed += 1;
                if batch.errors.len() < MAX_ERRORS {
                    batch.errors.push(e);
                }
            }
        }
    }
}

/// The end-to-end metrics of an untraced batch, each beside the per-run
/// samples behind it.
pub fn end_to_end(batch: &Batch) -> Vec<(Metric, Vec<f64>)> {
    let setup = batch.setup_s();
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    vec![
        (
            Metric::new("accesses_per_s", "1/s", batch.accesses_per_s()),
            batch.run_rates(),
        ),
        (Metric::new("setup_s", "s", median(&setup)), setup),
        (Metric::new("peak_rss_mb", "MiB", rss), vec![rss]),
    ]
}

/// The median of `values` (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, by the same "exclusive"
/// rule as Python's `statistics.quantiles(values, n=4)`; with fewer than
/// two values every quartile is the median.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = match n {
        0 => return (0.0, 0.0, 0.0),
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    if n < 2 {
        return (mid, mid, mid);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), mid, cut(3))
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The unit, e.g. `1/s`, `ns`, `ratio`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 of `[A-Za-z0-9_/%.-]`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks every metric's name and unit, that names are unique, and that
/// values are finite.
///
/// # Errors
///
/// The first offending metric, as text.
pub fn check_metrics(metrics: &[Metric]) -> Result<(), String> {
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            return Err(format!("bad metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("metric {} has a bad unit {:?}", m.name, m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} printed twice", m.name));
        }
    }
    Ok(())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values print as 0; [`check_metrics`] reports them.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::F64(value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Lowers the peak resident memory `peak_rss_mb` reads to the current
/// resident memory, so the peak is the measured runs' and not the
/// preparation's.
///
/// # Errors
///
/// The kernel refused the reset (`/proc/self/clear_refs`).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Where the result came from: host CPU count and model, source revision,
/// compiler, and the workload's parameters, as one JSON object.
pub fn provenance(workload: &Workload, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    Json::obj(vec![
        ("nproc", Json::U64(nproc as u64)),
        ("cpu_model", Json::str(cpu)),
        ("git_rev", Json::str(rev)),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        ("seed", Json::U64(seed)),
        ("workload", Json::str(format!("{workload:?}"))),
    ])
}

fn command_output(program: &str, args: &[&str]) -> String {
    match std::process::Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}
