//! `nocstar-hostbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload of the host benchmark from the repository root and
//! prints, last, one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0` (the default), the
//! per-layer metrics of a separate traced run with `--trace 1`. Exits 1
//! when a run or a self-check fails, 2 on bad arguments.

use nocstar_hostbench::layers::traced;
use nocstar_hostbench::{
    check_metrics, end_to_end, measure, provenance, quartiles, ratio, reset_peak_rss, result_json,
    Batch, DigestGate, Metric, Workload, DEFAULT_SEED,
};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} value {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where preparation writes: beside the build, inside the checkout.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("hostbench/target"), PathBuf::from);
    target.join("hostbench-work")
}

/// Prints each end-to-end metric beside the quartiles and count of the
/// per-run samples behind it, plus the error rate (failed over attempted
/// runs), which the result line carries as `failed` and `attempted`.
fn print_end_to_end(rows: &[(Metric, Vec<f64>)], batch: &Batch) {
    println!(
        "{:<16} {:>6} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "value", "run q1", "run median", "run q3", "runs"
    );
    for (m, samples) in rows {
        let (q1, mid, q3) = quartiles(samples);
        println!(
            "{:<16} {:>6} {:>14.6} {q1:>14.6} {mid:>14.6} {q3:>14.6} {:>4}",
            m.name,
            m.unit,
            m.value,
            samples.len()
        );
    }
    let error_rate = ratio(batch.failed as f64, batch.attempted as f64);
    println!(
        "{:<16} {:>6} {error_rate:>14.6} {:>14} {:>14} {:>14} {:>4}",
        "error_rate", "ratio", "", "", "", batch.attempted
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: nocstar-hostbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    println!("provenance {}", provenance(w, args.seed));
    let prepared = match w.prepare(args.seed, &work_dir()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: preparing {}: {e}", w.name);
            std::process::exit(1);
        }
    };
    if let Err(e) = reset_peak_rss() {
        eprintln!("warning: peak_rss_mb includes preparation: resetting the peak failed: {e}");
    }
    let mut gate = DigestGate::new(w, args.seed);
    let batch = measure(
        w,
        args.seed,
        &prepared,
        Duration::from_secs(args.seconds),
        &mut gate,
    );
    for e in &batch.errors {
        eprintln!("error: {}: {e}", w.name);
    }
    let mut correct = batch.failed == 0 && batch.seeds.iter().all(|s| s.report.is_some());
    let (mut attempted, mut failed) = (batch.attempted, batch.failed);
    let metrics = if args.trace {
        attempted += 1;
        match traced(w, args.seed, &prepared, &batch) {
            Ok(t) => {
                for f in &t.failures {
                    eprintln!("self-check failed: {}: {f}", w.name);
                }
                for f in &t.warnings {
                    eprintln!("warning: {}: {f}", w.name);
                }
                if !t.failures.is_empty() {
                    failed += 1;
                    correct = false;
                }
                for m in &t.metrics {
                    println!("{:<40} {:>10} {}", m.name, m.unit, m.value);
                }
                t.metrics
            }
            Err(e) => {
                eprintln!("error: traced run of {}: {e}", w.name);
                failed += 1;
                correct = false;
                Vec::new()
            }
        }
    } else {
        let rows = end_to_end(&batch);
        print_end_to_end(&rows, &batch);
        rows.into_iter().map(|(m, _)| m).collect()
    };
    if let Err(e) = check_metrics(&metrics) {
        eprintln!("error: {e}");
        correct = false;
    }
    prepared.cleanup();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}
