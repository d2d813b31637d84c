//! Self-tests of the host benchmark: metric naming, the correctness gate,
//! and the layer replays on tiny configurations of every fabric.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use nocstar::prelude::*;
use nocstar_hostbench::layers::traced;
use nocstar_hostbench::{
    check_metrics, end_to_end, measure, quartiles, result_json, valid_name, DigestGate, Feed,
    Metric, Mode, Prepared, Workload,
};
use nocstar_json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

const SEED: u64 = 11;

fn tiny(name: &'static str, org: TlbOrg, feed: Feed, mode: Mode) -> Workload {
    Workload {
        name,
        cores: 16,
        org,
        feed,
        mode,
        seeds: 2,
        default_digests: &[],
    }
}

/// One tiny workload per fabric the simulator builds (circuit, packet
/// mesh, SMART, hierarchical, none), plus the storm and the sampled NCT
/// replay.
fn tiny_workloads() -> Vec<Workload> {
    let redis = Feed::Generator(Preset::Redis);
    let exact = Mode::Exact { quota: 300 };
    let sample: SampleSpec = "200:60:20@3".parse().expect("valid sample spec");
    vec![
        tiny("circuit", TlbOrg::paper_nocstar(), redis, exact),
        tiny(
            "mesh",
            TlbOrg::paper_distributed(),
            Feed::Generator(Preset::Gups),
            exact,
        ),
        tiny(
            "smart",
            TlbOrg::Monolithic {
                entries_per_core: 1024,
                banks: 16,
                net: MonolithicNet::Smart(8),
                latency_override: None,
            },
            redis,
            exact,
        ),
        tiny(
            "hier-storm",
            TlbOrg::paper_hier(4),
            Feed::Storm {
                preset: Preset::Canneal,
                ctx_switch_interval: 50,
                churn_interval: 70,
            },
            exact,
        ),
        tiny("ideal", TlbOrg::paper_ideal(), redis, exact),
        tiny(
            "hier-replay-sampled",
            TlbOrg::paper_hier(4),
            Feed::NctReplay(Preset::Redis),
            Mode::sampled(sample, 3),
        ),
    ]
}

fn prepare(w: &Workload) -> Prepared {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostbench-selftest");
    w.prepare(SEED, &dir).expect("preparation succeeds")
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark directory");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a {section} entry has no {key}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(metrics: &[Metric]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
}

#[test]
fn printed_metrics_are_well_named_and_match_the_declared_names_and_units() {
    let w = &tiny_workloads()[0];
    let prepared = prepare(w);
    let mut gate = DigestGate::new(w, SEED);
    let batch = measure(w, SEED, &prepared, Duration::ZERO, &mut gate);
    assert_eq!(batch.failed, 0, "{:?}", batch.errors);
    let end: Vec<Metric> = end_to_end(&batch).into_iter().map(|(m, _)| m).collect();
    let layers = traced(w, SEED, &prepared, &batch)
        .expect("traced run")
        .metrics;
    for (section, metrics) in [("end_to_end", &end), ("per_layer", &layers)] {
        check_metrics(metrics).expect("names, units and values are valid");
        assert!(metrics.iter().all(|m| valid_name(m.name)));
        assert_eq!(printed(metrics), declared(section), "{section}");
    }

    let line = Json::parse(&result_json(true, 3, 0, &end).to_string()).expect("result parses");
    assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
    let printed_end = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(printed_end.len(), end.len());
    for (name, m) in printed_end {
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }

    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading-dot"));
    assert!(check_metrics(&[Metric::new("x", "", 1.0)]).is_err());
    assert!(check_metrics(&[Metric::new("x", "s", f64::NAN)]).is_err());
}

#[test]
fn a_wrong_stored_digest_fails_every_run() {
    let w = &tiny_workloads()[0];
    let prepared = prepare(w);
    let mut gate = DigestGate::new(w, SEED);
    let good = measure(w, SEED, &prepared, Duration::ZERO, &mut gate);
    assert_eq!((good.attempted, good.failed), (2, 0), "{:?}", good.errors);

    let mut wrong = DigestGate::expecting(w, 0x0bad_d16e);
    let bad = measure(w, SEED, &prepared, Duration::ZERO, &mut wrong);
    assert_eq!((bad.attempted, bad.failed), (2, 2));
    assert!(bad.failed as f64 / bad.attempted as f64 > 0.0);
    assert!(
        bad.errors.iter().all(|e| e.contains("digest")),
        "{:?}",
        bad.errors
    );
    assert!(bad.run_rates().is_empty(), "failed runs must not be timed");
    assert_eq!(bad.accesses_per_s(), 0.0);
}

#[test]
fn every_layer_replay_runs_on_a_tiny_config_of_every_fabric() {
    for w in tiny_workloads() {
        let prepared = prepare(&w);
        let mut gate = DigestGate::new(&w, SEED);
        let batch = measure(&w, SEED, &prepared, Duration::ZERO, &mut gate);
        assert_eq!(batch.failed, 0, "{}: {:?}", w.name, batch.errors);
        let t = traced(&w, SEED, &prepared, &batch)
            .unwrap_or_else(|e| panic!("{}: traced run failed: {e}", w.name));
        assert!(t.failures.is_empty(), "{}: {:?}", w.name, t.failures);
        let value = |name: &str| {
            t.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name))
        };
        assert!(value("tlb.l1_ns_per_lookup") > 0.0, "{}", w.name);
        assert!(value("mem.access_ns") > 0.0, "{}", w.name);
        if w.name == "ideal" {
            assert_eq!(value("noc.ns_per_msg"), 0.0);
        } else {
            assert!(value("noc.ns_per_msg") > 0.0, "{}", w.name);
            assert!(value("noc.replay_coverage") > 0.0, "{}", w.name);
        }
        if let Mode::Sampled { .. } = w.mode {
            assert!(value("workloads.nct_decode_ns_per_event") > 0.0);
            assert!(value("core.ff_share") > 0.5);
        }
        prepared.cleanup();
    }
}
