//! Criterion microbenchmarks for the memory substrate: cache accesses,
//! page-table walks (cold and PWC-warm), demand mapping, and superpage
//! promotion/demotion.
//!
//! `hierarchy_access_stream` (4 cores, strided) fits in host caches;
//! `hierarchy_access_random_1024` spreads accesses over a 1024-core
//! hierarchy and its 64 GiB physical space, so it measures the host-memory
//! footprint of the cache model's tag arrays once every set is touched.
//! `hierarchy_first_touch_256` measures the regime a simulation run is
//! in instead: a fresh 256-core hierarchy whose LLC sees only a few
//! percent of its sets.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use nocstar::mem::{MemoryConfig, MemorySystem};
use nocstar::prelude::*;

fn bench_cache_access(c: &mut Criterion) {
    c.bench_function("hierarchy_access_stream", |b| {
        let mut cfg = MemoryConfig::haswell(4);
        cfg.phys_capacity = 4 << 30;
        let mut mem = MemorySystem::new(cfg);
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4096 + 64) % (1 << 28);
            black_box(mem.access(
                CoreId::new((addr % 4) as usize),
                nocstar::types::PhysAddr::new(addr),
                addr.is_multiple_of(3),
            ))
        })
    });
}

fn bench_cache_access_random(c: &mut Criterion) {
    // One iteration is one access by an LCG-random core to an LCG-random
    // line. A million untimed accesses first fault in the tag arrays'
    // pages, so the timed loop sees the steady state.
    let mut group = c.benchmark_group("hierarchy_access_random_1024");
    group.sample_size(200_000);
    group.bench_function("warm", |b| {
        let cfg = MemoryConfig::haswell(1024);
        let lines = cfg.phys_capacity / 64;
        let mut mem = MemorySystem::new(cfg);
        let mut x = 1u64;
        let mut access = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 16;
            mem.access(
                CoreId::new((r % 1024) as usize),
                nocstar::types::PhysAddr::new((r / 1024) % lines * 64),
                false,
            )
        };
        for _ in 0..1_000_000 {
            black_box(access());
        }
        b.iter(|| black_box(access()))
    });
    group.finish();
}

fn bench_first_touch(c: &mut Criterion) {
    // One iteration is one batch: a fresh 256-core hierarchy (built
    // untimed) takes 75k accesses over 40k distinct random lines, each
    // line once and then 35k random repeats, by LCG-random cores. That is
    // about the LLC footprint of a 256-core Redis run: 40k of the LLC's
    // 655,360 sets, so the timed loop includes the host's first touch of
    // whatever tag storage those sets need.
    const LINES: usize = 40_000;
    const REPEATS: usize = 35_000;
    let cfg = MemoryConfig::haswell(256);
    let mut x = 1u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    let lines: Vec<u64> = (0..LINES)
        .map(|_| next() % (cfg.phys_capacity / 64) * 64)
        .collect();
    let mut accesses: Vec<(usize, u64)> = Vec::with_capacity(LINES + REPEATS);
    for i in 0..LINES + REPEATS {
        let pa = if i < LINES {
            lines[i]
        } else {
            lines[next() as usize % LINES]
        };
        accesses.push(((next() % 256) as usize, pa));
    }
    let mut group = c.benchmark_group("hierarchy_first_touch_256");
    group.sample_size(20);
    group.bench_function("75k_accesses", |b| {
        b.iter_batched(
            || MemorySystem::new(cfg),
            |mut mem| {
                for &(core, pa) in &accesses {
                    black_box(mem.access(
                        CoreId::new(core),
                        nocstar::types::PhysAddr::new(pa),
                        false,
                    ));
                }
                mem
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_walk");
    group.bench_function("warm_pwc_walk", |b| {
        let mut cfg = MemoryConfig::haswell(1);
        cfg.phys_capacity = 4 << 30;
        let mut mem = MemorySystem::new(cfg);
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x1234_5000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        mem.walk(CoreId::new(0), asid, va);
        b.iter(|| black_box(mem.walk(CoreId::new(0), asid, va)))
    });
    group.bench_function("spread_walks_16k_pages", |b| {
        let mut cfg = MemoryConfig::haswell(1);
        cfg.phys_capacity = 8 << 30;
        let mut mem = MemorySystem::new(cfg);
        let asid = Asid::new(1);
        for p in 0..16_384u64 {
            mem.ensure_mapped(asid, VirtAddr::new(p << 12), PageSize::Size4K);
        }
        let mut p = 0u64;
        b.iter(|| {
            p = (p.wrapping_mul(6364136223846793005).wrapping_add(1)) % 16_384;
            black_box(mem.walk(CoreId::new(0), asid, VirtAddr::new(p << 12)))
        })
    });
    group.finish();
}

fn bench_demand_map(c: &mut Criterion) {
    // Rotates over a bounded page pool: the first lap demand-maps, later
    // laps exercise the map-or-return-existing path (Criterion's iteration
    // counts would otherwise exhaust simulated physical memory).
    c.bench_function("ensure_mapped_1m_page_pool", |b| {
        let mut cfg = MemoryConfig::haswell(1);
        cfg.phys_capacity = 32 << 30;
        let mut mem = MemorySystem::new(cfg);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 1_000_000;
            black_box(mem.ensure_mapped(Asid::new(1), VirtAddr::new(p << 12), PageSize::Size4K))
        })
    });
}

fn bench_promote_demote(c: &mut Criterion) {
    // One iteration promotes a fully mapped 2 MiB region into a superpage
    // and demotes it back into 512 base pages: the THP-storm path. Every
    // round allocates two fresh 2 MiB frames and a page-table node, so
    // the simulated machine is sized for the iteration count.
    let mut group = c.benchmark_group("page_table_promote_demote");
    group.sample_size(1_000);
    group.bench_function("2m_region", |b| {
        let mut cfg = MemoryConfig::haswell(1);
        cfg.phys_capacity = 16 << 30;
        let mut mem = MemorySystem::new(cfg);
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x4000_0000);
        for p in 0..512u64 {
            mem.ensure_mapped(asid, va.offset(p << 12), PageSize::Size4K);
        }
        let vpn_2m = va.page_number(PageSize::Size2M);
        b.iter(|| {
            black_box(mem.promote(asid, vpn_2m));
            black_box(mem.demote(asid, vpn_2m))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_cache_access_random,
    bench_first_touch,
    bench_walks,
    bench_demand_map,
    bench_promote_demote
);
criterion_main!(benches);
