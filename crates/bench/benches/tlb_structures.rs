//! Criterion microbenchmarks for the TLB content structures: the hot
//! paths of every simulated lookup.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nocstar::tlb::entry::TlbEntry;
use nocstar::tlb::l1::L1Tlb;
use nocstar::tlb::replacement::ReplacementPolicy;
use nocstar::tlb::set_assoc::SetAssocTlb;
use nocstar::tlb::slice::{SlicePorts, TlbSlice};
use nocstar::types::{Asid, PageSize, PhysPageNum, VirtAddr, VirtPageNum};

fn e4k(vpn: u64) -> TlbEntry {
    TlbEntry::new(
        Asid::new(1),
        VirtPageNum::new(vpn, PageSize::Size4K),
        PhysPageNum::new(vpn ^ 0x5555, PageSize::Size4K),
    )
}

fn bench_set_assoc(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_assoc");
    group.bench_function("lookup_hit_1024e8w", |b| {
        let mut tlb = SetAssocTlb::new(1024, 8, ReplacementPolicy::Lru);
        for vpn in 0..1024 {
            tlb.insert(e4k(vpn));
        }
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(Asid::new(1), VirtPageNum::new(vpn, PageSize::Size4K)))
        });
    });
    group.bench_function("lookup_miss_1024e8w", |b| {
        let mut tlb = SetAssocTlb::new(1024, 8, ReplacementPolicy::Lru);
        let mut vpn = 1_000_000u64;
        b.iter(|| {
            vpn += 1;
            black_box(tlb.lookup(Asid::new(1), VirtPageNum::new(vpn, PageSize::Size4K)))
        });
    });
    group.bench_function("insert_with_eviction", |b| {
        let mut tlb = SetAssocTlb::new(1024, 8, ReplacementPolicy::Lru);
        let mut vpn = 0u64;
        b.iter(|| {
            vpn += 1;
            black_box(tlb.insert(e4k(vpn)))
        });
    });
    group.finish();
}

fn bench_l1(c: &mut Criterion) {
    c.bench_function("l1_lookup_three_size_probe", |b| {
        let mut l1 = L1Tlb::haswell();
        for vpn in 0..64 {
            l1.insert(e4k(vpn));
        }
        let mut va = 0u64;
        b.iter(|| {
            va = (va + 4096) % (64 * 4096);
            black_box(l1.lookup(Asid::new(1), VirtAddr::new(va)))
        });
    });
}

/// The TLB side of `Simulation::new` at 256 cores: one 1,024-entry
/// 8-way slice and one Haswell L1 TLB per core.
fn build_256_slices_and_l1s() -> (Vec<TlbSlice>, Vec<L1Tlb>) {
    let slices = (0..256)
        .map(|_| TlbSlice::new(1024, 8, SlicePorts::default()))
        .collect();
    let l1s = (0..256).map(|_| L1Tlb::haswell()).collect();
    (slices, l1s)
}

/// Times a build on a warm heap. glibc hands the free heap top back to
/// the kernel, so a loop that builds and drops would time the page
/// faults of reclaiming it (DESIGN.md §7). A build made before the timing
/// and held until after it sits above the blocks of the one dropped
/// beside it; those blocks stay on glibc's free lists, and every timed
/// build reuses them. Each build is dropped outside the timing.
fn bench_construction(c: &mut Criterion) {
    let reused = build_256_slices_and_l1s();
    let held = build_256_slices_and_l1s();
    drop(reused);
    c.bench_function("construct_256_slices_and_l1s", |b| {
        b.iter_batched(
            || (),
            |()| build_256_slices_and_l1s(),
            BatchSize::PerIteration,
        )
    });
    drop(held);
}

/// The functional fast-forward path at 1,024 cores: one `touch` per L1
/// TLB per iteration, round-robin, each L1 warmed with 64 4 KiB pages
/// (probed after the two superpage arrays miss) and 8 2 MiB pages.
fn bench_l1_round_robin(c: &mut Criterion) {
    const CORES: usize = 1024;
    const SUPERPAGE_BASE: u64 = 1 << 12; // 2 MiB pages 4096.., past the 4 KiB ones
    let mut l1s: Vec<L1Tlb> = (0..CORES).map(|_| L1Tlb::haswell()).collect();
    for l1 in &mut l1s {
        for vpn in 0..64 {
            l1.insert(e4k(vpn));
        }
        for vpn in SUPERPAGE_BASE..SUPERPAGE_BASE + 8 {
            l1.insert(TlbEntry::new(
                Asid::new(1),
                VirtPageNum::new(vpn, PageSize::Size2M),
                PhysPageNum::new(vpn, PageSize::Size2M),
            ));
        }
    }
    let addresses: Vec<VirtAddr> = (0..64)
        .map(|vpn| VirtAddr::new(vpn << 12))
        .chain((SUPERPAGE_BASE..SUPERPAGE_BASE + 8).map(|vpn| VirtAddr::new(vpn << 21)))
        .collect();
    let mut group = c.benchmark_group("l1");
    group.throughput(Throughput::Elements(CORES as u64));
    group.bench_function("touch_round_robin_1024_l1s", |b| {
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            for (core, l1) in l1s.iter_mut().enumerate() {
                let va = addresses[(round + core) % addresses.len()];
                black_box(l1.touch(Asid::new(1), va));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_set_assoc,
    bench_l1,
    bench_construction,
    bench_l1_round_robin
);
criterion_main!(benches);
