//! Criterion microbenchmarks for the network models: arbitration and
//! traversal cost per message under uniform-random load (at 256 tiles also
//! near saturation, where most setups retry, and at 1,024 tiles past it,
//! where each delivery retries hundreds of times), plus an ablation
//! of the NOCSTAR priority-rotation period (the paper's starvation-
//! avoidance knob, §III-B2).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nocstar::noc::arbiter::PriorityRotation;
use nocstar::noc::circuit::{AcquireMode, CircuitFabric};
use nocstar::noc::mesh::MeshNoc;
use nocstar::noc::smart::SmartNoc;
use nocstar::noc::traffic::run_uniform_random;
use nocstar::noc::Interconnect;
use nocstar::prelude::*;

fn bench_models(c: &mut Criterion) {
    let mesh = MeshShape::square_for(64);
    let mut group = c.benchmark_group("noc_uniform_random_0.1x500cy");
    group.bench_function("circuit_fabric", |b| {
        b.iter(|| {
            let mut noc = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            black_box(run_uniform_random(&mut noc, mesh, 0.1, 500, 42))
        })
    });
    group.bench_function("smart", |b| {
        b.iter(|| {
            let mut noc = SmartNoc::new(mesh, 8);
            black_box(run_uniform_random(&mut noc, mesh, 0.1, 500, 42))
        })
    });
    group.bench_function("mesh_contended", |b| {
        b.iter(|| {
            let mut noc = MeshNoc::contended(mesh);
            black_box(run_uniform_random(&mut noc, mesh, 0.1, 500, 42))
        })
    });
    group.finish();
}

fn bench_retry_storm(c: &mut Criterion) {
    // 256 tiles just below saturation: most path setups lose a link and
    // retry, the regime the full-system circuit runs arbitrate in. The
    // ratio is checked once, outside the timed loop, so the case cannot
    // drift into the uncontended regime unnoticed.
    let mesh = MeshShape::square_for(256);
    let run = || {
        let mut noc = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        run_uniform_random(&mut noc, mesh, 0.044, 300, 42);
        noc
    };
    let noc = run();
    let stats = noc.stats();
    let ratio = stats.retries as f64 / stats.delivered as f64;
    assert!(ratio >= 2.0, "retries per delivery {ratio:.2} < 2");
    let mut group = c.benchmark_group("noc_uniform_random_0.044x300cy");
    group.bench_function("circuit_fabric_256", |b| b.iter(|| black_box(run())));
    group.finish();
}

fn bench_retry_storm_1024(c: &mut Criterion) {
    // 1,024 tiles past saturation: about 230 retries per delivery, the
    // regime of a full-system 1,024-core circuit run (about 200). The
    // ratio is checked once, outside the timed loop, as above.
    let mesh = MeshShape::square_for(1024);
    let run = || {
        let mut noc = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        run_uniform_random(&mut noc, mesh, 0.018, 100, 42);
        noc
    };
    let noc = run();
    let stats = noc.stats();
    let ratio = stats.retries as f64 / stats.delivered as f64;
    assert!(ratio >= 50.0, "retries per delivery {ratio:.2} < 50");
    let mut group = c.benchmark_group("noc_uniform_random_0.018x100cy");
    group.bench_function("circuit_fabric_1024", |b| b.iter(|| black_box(run())));
    group.finish();
}

fn bench_single_message(c: &mut Criterion) {
    let mesh = MeshShape::square_for(64);
    c.bench_function("circuit_single_message_corner_to_corner", |b| {
        let mut id = 0u64;
        b.iter(|| {
            let mut fabric = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            id += 1;
            fabric.submit(
                Cycle::ZERO,
                nocstar::noc::message::Message::new(
                    id,
                    CoreId::new(0),
                    CoreId::new(63),
                    nocstar::noc::message::MsgKind::TlbRequest,
                ),
            );
            fabric.advance(Cycle::ZERO);
            black_box(fabric.advance(Cycle::new(1)))
        })
    });
}

fn bench_rotation_ablation(c: &mut Criterion) {
    // The rank computation sits on the arbitration fast path; verify the
    // rotation period has no cost impact (it's a division either way).
    let mut group = c.benchmark_group("priority_rotation");
    for period in [100u64, 1000, 10_000] {
        group.bench_function(format!("rank_period_{period}"), |b| {
            let prio = PriorityRotation::new(64, period);
            let mut t = 0u64;
            b.iter(|| {
                t += 17;
                black_box(prio.rank(CoreId::new((t % 64) as usize), Cycle::new(t)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_models,
    bench_retry_storm,
    bench_retry_storm_1024,
    bench_single_message,
    bench_rotation_ablation
);
criterion_main!(benches);
