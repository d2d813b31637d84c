//! Criterion end-to-end benchmarks: full-system simulation throughput
//! (the cost of one simulated access) for the main organizations,
//! workload-generation throughput, and the set-up of a 1024-core NCT
//! trace replay.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nocstar::prelude::*;
use nocstar::workloads::trace::TraceSource;
use nocstar::workloads::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_8c_x_1000acc");
    group.sample_size(10);
    for org in [
        TlbOrg::paper_private(),
        TlbOrg::paper_distributed(),
        TlbOrg::paper_nocstar(),
    ] {
        group.bench_function(org.label(), move |b| {
            b.iter_batched(
                || {
                    let config = SystemConfig::new(8, org);
                    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
                    Simulation::new(config, workload)
                },
                |sim| black_box(sim.run(1_000)),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_workload_gen(c: &mut Criterion) {
    c.bench_function("synthetic_trace_event", |b| {
        let spec = Preset::Canneal.spec();
        let mut trace = spec.trace(Asid::new(1), ThreadId::new(0), 7, true);
        b.iter(|| black_box(trace.next_event()))
    });
    c.bench_function("zipf_sample_64k", |b| {
        let zipf = Zipf::new(65_536, 0.9);
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

fn bench_nct_open(c: &mut Criterion) {
    // A 1024-stream capture of Redis, as large per stream as the
    // 1024-core sampled replay reads, encoded untimed; one iteration
    // builds the replay assignment: open, validate every stream once.
    const STREAMS: usize = 1024;
    const EVENTS: usize = 1_464;
    let spec = Preset::Redis.spec();
    let traces: Vec<RecordedTrace> = (0..STREAMS)
        .map(|t| {
            RecordedTrace::capture(
                &mut spec.trace(Asid::new(1), ThreadId::new(t), 1, true),
                EVENTS,
            )
        })
        .collect();
    let path =
        std::env::temp_dir().join(format!("nocstar_bench_nct_open_{}.nct", std::process::id()));
    NctFile::from_recorded(&traces, spec.name)
        .and_then(|file| file.save(&path))
        .expect("encode the capture");
    let config = SystemConfig::new(STREAMS, TlbOrg::paper_hier(16));
    let mut group = c.benchmark_group("nct_open_1024");
    group.sample_size(10);
    group.throughput(Throughput::Elements((STREAMS * EVENTS) as u64));
    group.bench_function("from_trace_file", |b| {
        b.iter(|| WorkloadAssignment::from_trace_file(&config, &path).expect("open"))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_sim, bench_workload_gen, bench_nct_open);
criterion_main!(benches);
