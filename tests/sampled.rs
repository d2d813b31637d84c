//! Acceptance suite for sampled fast-forward replay (`SAMPLING.md`).
//!
//! Pins the four promises the methodology document makes:
//!
//! * **Validation** (`SAMPLING.md §7`): on a span where exact replay is
//!   feasible, every 95 % confidence interval covers the exact-replay
//!   value, and ≥ 10× fewer accesses enter the cycle-accurate core.
//! * **Worked example** (`SAMPLING.md §5`): the fenced
//!   `sampling-worked-example` block in the document is parsed and
//!   cross-checked in both directions — the estimator reproduces the
//!   printed numbers, and the printed numbers are internally consistent.
//! * **Determinism** (`SAMPLING.md §6`): byte-identical reports across
//!   repeated runs; the seed moves only the placement offset.
//! * **Report contract** (`SAMPLING.md §4`): exact-mode reports carry no
//!   `sampling` key, so exact goldens stay byte-identical.

use nocstar::prelude::*;
use nocstar::workloads::trace::{TraceEvent, TraceSource};
use std::collections::BTreeMap;

const CORES: usize = 4;
const SPAN: u64 = 4_000;
const EXACT_WARMUP: u64 = 400;
const SPEC: &str = "800:40:20@7";

/// The validation fixture: the redis preset with OS remaps disabled —
/// shootdowns are rare discrete events a periodic sample has no power
/// against (`SAMPLING.md §7`), so the suite isolates the steady-state
/// rates sampling is for.
fn build() -> Simulation {
    let config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
    let mut spec = Preset::Redis.spec();
    spec.remaps_per_million = 0.0;
    let workload = WorkloadAssignment::homogeneous(&config, spec);
    Simulation::new(config, workload)
}

fn sampled_report(spec: &str) -> SimReport {
    let spec: SampleSpec = spec.parse().expect("valid sample spec");
    build().run_sampled(spec, SPAN)
}

#[test]
fn every_interval_covers_the_exact_value_at_ten_x_reduction() {
    let exact = build().run_measured(EXACT_WARMUP, SPAN - EXACT_WARMUP);
    let sampled = sampled_report(SPEC);
    let s = sampled.sampling.as_ref().expect("sampled report section");

    let measured = ((SPAN - EXACT_WARMUP) * CORES as u64) as f64;
    let exact_values = [
        (
            "cycles_per_access",
            exact.cycles as f64 / (SPAN - EXACT_WARMUP) as f64,
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
    for (name, exact_v) in exact_values {
        let est = s.estimate(name).expect("estimate for every metric");
        assert!(
            est.interval.covers(exact_v),
            "{name}: exact {exact_v} outside 95% CI [{}, {}]",
            est.interval.lo(),
            est.interval.hi()
        );
    }
    let exact_detailed = SPAN * CORES as u64;
    assert!(
        s.accesses_detailed * 10 <= exact_detailed,
        "only {:.1}x fewer detailed accesses ({} of {})",
        exact_detailed as f64 / s.accesses_detailed as f64,
        s.accesses_detailed,
        exact_detailed
    );
}

#[test]
fn sampled_reports_are_deterministic() {
    assert_eq!(
        sampled_report(SPEC).to_json().to_string(),
        sampled_report(SPEC).to_json().to_string(),
        "repeated sampled runs diverged"
    );
}

#[test]
fn the_seed_moves_only_the_placement_offset() {
    // Equal seeds never differ; different seeds may move the offset (and
    // with it the estimates) but never the spec geometry.
    let a = sampled_report("800:40:20@7");
    let b = sampled_report("800:40:20@7");
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    let other = sampled_report("800:40:20@8");
    let (sa, so) = (
        a.sampling.as_ref().expect("section"),
        other.sampling.as_ref().expect("section"),
    );
    assert_eq!(
        (sa.period, sa.window, sa.warmup),
        (so.period, so.window, so.warmup)
    );
    assert_ne!(sa.seed, so.seed);
}

#[test]
fn exact_reports_carry_no_sampling_key() {
    let exact = build().run_measured(EXACT_WARMUP, SPAN - EXACT_WARMUP);
    assert!(exact.sampling.is_none());
    let json = exact.to_json();
    assert!(json.get("sampling").is_none());
}

#[test]
fn a_single_window_span_degenerates_per_the_spec() {
    // One window: every estimate is degenerate (`SAMPLING.md §3`) — the
    // interval collapses to the point estimate.
    let spec: SampleSpec = "4000:40:20@7".parse().expect("valid sample spec");
    let report = build().run_sampled(spec, SPAN);
    let s = report.sampling.as_ref().expect("section");
    assert_eq!(s.windows, 1);
    for name in ["cycles_per_access", "l1_miss_rate"] {
        let est = s.estimate(name).expect("estimate");
        assert_eq!(est.interval.n(), 1);
        assert!(est.interval.is_degenerate());
        assert_eq!(est.interval.lo(), est.interval.hi());
    }
}

/// A trace that delegates to `inner` and panics when it is asked for its
/// `panic_at`-th access.
struct PanickingTrace {
    inner: Box<dyn TraceSource>,
    accesses: u64,
    panic_at: u64,
}

impl TraceSource for PanickingTrace {
    fn next_event(&mut self) -> TraceEvent {
        let event = self.inner.next_event();
        if matches!(event, TraceEvent::Access(_)) {
            self.accesses += 1;
            assert!(self.accesses < self.panic_at, "trace source failed");
        }
        event
    }

    fn backing(&self, va: VirtAddr) -> PageSize {
        self.inner.backing(va)
    }

    fn asid(&self) -> Asid {
        self.inner.asid()
    }
}

#[test]
fn a_trace_panic_inside_a_fast_forward_leg_ends_the_run() {
    // Thread 1's trace panics 100 accesses into the second fast-forward
    // leg. The panic must reach the caller as a panic, not a hang.
    let spec: SampleSpec = SPEC.parse().expect("valid sample spec");
    assert!(spec.slack() > 100, "the panic must fall inside a leg");
    let panic_at = spec.offset() + spec.warmup() + spec.window() + 100;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
        let mut preset = Preset::Redis.spec();
        preset.remaps_per_million = 0.0;
        let traces = (0..config.threads())
            .map(|t| {
                let inner = preset.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp);
                let panic_at = if t == 1 { panic_at } else { u64::MAX };
                Box::new(PanickingTrace {
                    inner: Box::new(inner),
                    accesses: 0,
                    panic_at,
                }) as Box<dyn TraceSource>
            })
            .collect();
        let sim = Simulation::new(config, WorkloadAssignment::custom(traces, "panicking"));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_sampled(spec, SPAN)));
        // The receiver outlives this thread unless the test timed out.
        let _ = done_tx.send(outcome.is_err());
    });
    let panicked = done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the run neither returned nor panicked within 120 s");
    assert!(panicked, "run_sampled returned despite the trace panic");
    runner.join().expect("the runner caught the panic");
}

// ----- the SAMPLING.md §5 worked example, parsed from the document -----

/// Extracts the key/value pairs of the fenced `sampling-worked-example`
/// block from `SAMPLING.md`.
fn worked_example() -> BTreeMap<String, f64> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/SAMPLING.md"))
        .expect("SAMPLING.md is part of the repo");
    let fence = "```sampling-worked-example";
    let start = doc
        .find(fence)
        .expect("SAMPLING.md contains the sampling-worked-example fence");
    let body = &doc[start + fence.len()..];
    let end = body.find("```").expect("worked-example fence is closed");
    body[..end]
        .lines()
        .filter_map(|line| {
            let (key, value) = line.split_once('=')?;
            Some((
                key.trim().to_string(),
                value.trim().parse().expect("numeric worked-example value"),
            ))
        })
        .collect()
}

/// The six window samples the worked example is computed from.
const WORKED_SAMPLES: [f64; 6] = [10.0, 12.0, 11.0, 13.0, 12.0, 14.0];
const TOL: f64 = 5e-7;

#[test]
fn the_estimator_reproduces_the_worked_example() {
    let doc = worked_example();
    let est = Interval::of(&WORKED_SAMPLES);
    assert_eq!(est.n(), doc["n"] as usize);
    assert!((est.mean() - doc["mean"]).abs() < TOL);
    assert!((est.stderr() - doc["stderr"]).abs() < TOL);
    assert!((est.half_width() - doc["half"]).abs() < TOL);
    assert!((est.lo() - doc["ci_lo"]).abs() < TOL);
    assert!((est.hi() - doc["ci_hi"]).abs() < TOL);
}

#[test]
fn the_worked_example_is_internally_consistent() {
    let doc = worked_example();
    let n = doc["n"];
    // Consistency is re-derived from the *printed* (6-decimal-rounded)
    // values, so rounding propagates: t × stderr can be off by up to
    // t × 5e-7 from the printed half-width.
    let tol = 2e-6;
    assert!((doc["stderr"] - doc["s"] / n.sqrt()).abs() < tol);
    assert!((doc["half"] - doc["t"] * doc["stderr"]).abs() < tol);
    assert!((doc["ci_lo"] - (doc["mean"] - doc["half"])).abs() < tol);
    assert!((doc["ci_hi"] - (doc["mean"] + doc["half"])).abs() < tol);
    // The printed sample statistics really describe the printed samples.
    let mean = WORKED_SAMPLES.iter().sum::<f64>() / n;
    assert!((mean - doc["mean"]).abs() < TOL);
    let var = WORKED_SAMPLES
        .iter()
        .map(|x| (x - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0);
    assert!((var.sqrt() - doc["s"]).abs() < TOL);
}
