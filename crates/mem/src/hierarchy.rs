//! The chip's memory system: per-core L1D/L2 caches, a shared LLC, DRAM,
//! physical memory, and per-address-space page tables.

use crate::cache::{Cache, CacheConfig};
use crate::page_table::{PageTable, PerLevel};
use crate::phys::PhysMemory;
use crate::pwc::{PteCache, DEFAULT_PWC_ENTRIES};
use nocstar_stats::counter::HitMiss;
use nocstar_stats::Log2Histogram;
use nocstar_types::time::Cycles;
use nocstar_types::{Asid, CoreId, PageSize, PhysAddr, PhysPageNum, VirtAddr, VirtPageNum};
use std::collections::BTreeMap;
use std::fmt;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServicedBy {
    /// Hit in the core's paging-structure cache (upper-level PTEs only).
    Pwc,
    /// Hit in the core's private L1 data cache.
    L1,
    /// Hit in the core's private L2 cache.
    L2,
    /// Hit in the shared last-level cache.
    Llc,
    /// Serviced by DRAM.
    Dram,
}

impl fmt::Display for ServicedBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServicedBy::Pwc => write!(f, "PWC"),
            ServicedBy::L1 => write!(f, "L1"),
            ServicedBy::L2 => write!(f, "L2"),
            ServicedBy::Llc => write!(f, "LLC"),
            ServicedBy::Dram => write!(f, "DRAM"),
        }
    }
}

/// The outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency (the servicing level's latency).
    pub latency: Cycles,
    /// Which level serviced the access.
    pub serviced_by: ServicedBy,
}

/// Memory-system sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Number of cores (each gets a private L1D and L2).
    pub cores: usize,
    /// Private L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Private L2 cache geometry.
    pub l2: CacheConfig,
    /// Shared LLC geometry.
    pub llc: CacheConfig,
    /// Latency of a DRAM access (beyond the LLC lookup that missed).
    pub dram_latency: Cycles,
    /// Simulated physical memory capacity in bytes.
    pub phys_capacity: u64,
}

impl MemoryConfig {
    /// The paper's Haswell configuration (§IV) for `cores` cores, with
    /// physical capacity scaled to simulation-friendly footprints (the
    /// paper's 2 TB machine is modelled by workload footprints that stress
    /// the TLB identically at smaller absolute size).
    pub fn haswell(cores: usize) -> Self {
        Self {
            cores,
            l1d: CacheConfig::haswell_l1d(),
            l2: CacheConfig::haswell_l2(),
            llc: CacheConfig::haswell_llc(cores),
            dram_latency: Cycles::new(200),
            phys_capacity: 64 << 30,
        }
    }
}

/// The cache side of the memory system: every core's private L1D, L2 and
/// paging-structure cache, and the shared LLC.
///
/// [`MemorySystem`] holds one and delegates every cache effect to it.
/// Sampled fast-forward moves it to a helper thread for a leg
/// ([`MemorySystem::detach_caches`]) and feeds it [`WarmOp`]s in order,
/// while the page tables stay behind on the thread that owns the run.
#[derive(Debug)]
pub struct Caches {
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    llc: Cache,
    pwcs: Vec<PteCache>,
    dram_latency: Cycles,
}

impl Caches {
    fn new(config: &MemoryConfig) -> Self {
        Self {
            l1s: (0..config.cores).map(|_| Cache::new(config.l1d)).collect(),
            l2s: (0..config.cores).map(|_| Cache::new(config.l2)).collect(),
            // The private levels are touched densely, the LLC sparsely:
            // a run fills a few percent of its 2.5 MiB-per-core sets.
            llc: Cache::first_touch(config.llc),
            pwcs: (0..config.cores)
                .map(|_| PteCache::new(DEFAULT_PWC_ENTRIES))
                .collect(),
            dram_latency: config.dram_latency,
        }
    }

    /// See [`MemorySystem::access`].
    fn access(&mut self, core: CoreId, pa: PhysAddr) -> AccessResult {
        let c = core.index();
        if self.l1s[c].access(pa) {
            return AccessResult {
                latency: self.l1s[c].latency(),
                serviced_by: ServicedBy::L1,
            };
        }
        if self.l2s[c].access(pa) {
            return AccessResult {
                latency: self.l2s[c].latency(),
                serviced_by: ServicedBy::L2,
            };
        }
        if self.llc.access(pa) {
            return AccessResult {
                latency: self.llc.latency(),
                serviced_by: ServicedBy::Llc,
            };
        }
        AccessResult {
            latency: self.llc.latency() + self.dram_latency,
            serviced_by: ServicedBy::Dram,
        }
    }

    /// See [`MemorySystem::warm_access`].
    fn warm_access(&mut self, core: CoreId, pa: PhysAddr) {
        let c = core.index();
        if !self.l1s[c].touch(pa) && !self.l2s[c].touch(pa) {
            self.llc.touch(pa);
        }
    }

    /// One PTE read of a variable-latency walk by `core`: an upper-level
    /// PTE is served by the core's paging-structure cache when present,
    /// in one cycle; the leaf PTE always reads the memory hierarchy.
    pub(crate) fn read_pte(
        &mut self,
        core: CoreId,
        pa: PhysAddr,
        upper_level: bool,
    ) -> AccessResult {
        if upper_level && self.pwcs[core.index()].access(pa) {
            return AccessResult {
                latency: Cycles::ONE,
                serviced_by: ServicedBy::Pwc,
            };
        }
        self.access(core, pa)
    }

    /// See [`MemorySystem::flush_pwc`].
    fn flush_pwc(&mut self, core: CoreId) {
        self.pwcs[core.index()].flush();
    }

    /// Applies one warming operation: the fills and recency updates of
    /// the access, walk read or flush it stands for, with no statistics.
    pub fn apply(&mut self, op: WarmOp) {
        let (core, pa) = (op.core(), op.pa());
        match op.kind() {
            WarmKind::Access => self.warm_access(core, pa),
            WarmKind::UpperPte => {
                if !self.pwcs[core.index()].touch(pa) {
                    self.warm_access(core, pa);
                }
            }
            WarmKind::FlushPwc => self.flush_pwc(core),
        }
    }
}

/// One functional warming operation on [`Caches`] (`SAMPLING.md §2`),
/// packed into 8 bytes: applied in order, a sequence of them leaves
/// exactly the cache state the [`MemorySystem::warm_access`],
/// [`MemorySystem::warm_walk`] and [`MemorySystem::flush_pwc`] calls they
/// stand for would.
///
/// The word holds the kind in its low 2 bits, the core in the next 20,
/// and the physical address in 8-byte units in the top 42, so it holds
/// cores below 2^20 and addresses below 32 TiB. The dropped low three
/// address bits select neither a cache line nor a PTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmOp(u64);

const KIND_BITS: u32 = 2;
const CORE_BITS: u32 = 20;
const ADDR_SHIFT: u32 = KIND_BITS + CORE_BITS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmKind {
    /// A data access or a leaf PTE read: L1D, then L2, then the LLC.
    Access = 0,
    /// An upper-level PTE read: the PWC, then the caches on a PWC miss.
    UpperPte = 1,
    /// A context switch's PWC flush.
    FlushPwc = 2,
}

impl WarmOp {
    /// # Panics
    ///
    /// Panics if `core` needs more than `CORE_BITS` bits or `pa` more than
    /// `64 - ADDR_SHIFT + 3`, 45.
    fn new(core: CoreId, pa: PhysAddr, kind: WarmKind) -> Self {
        let core = core.index() as u64;
        let unit = pa.value() >> 3;
        assert!(
            core >> CORE_BITS == 0 && unit >> (64 - ADDR_SHIFT) == 0,
            "core {core} or {pa} is beyond a warming operation's range"
        );
        Self((unit << ADDR_SHIFT) | (core << KIND_BITS) | kind as u64)
    }

    /// [`MemorySystem::warm_access`] of `pa` by `core`.
    pub fn access(core: CoreId, pa: PhysAddr) -> Self {
        Self::new(core, pa, WarmKind::Access)
    }

    /// One PTE read of [`MemorySystem::warm_walk`] by `core`.
    pub(crate) fn pte(core: CoreId, pa: PhysAddr, upper_level: bool) -> Self {
        let kind = if upper_level {
            WarmKind::UpperPte
        } else {
            WarmKind::Access
        };
        Self::new(core, pa, kind)
    }

    /// [`MemorySystem::flush_pwc`] of `core`.
    pub fn flush_pwc(core: CoreId) -> Self {
        Self::new(core, PhysAddr::new(0), WarmKind::FlushPwc)
    }

    fn kind(self) -> WarmKind {
        match self.0 & ((1 << KIND_BITS) - 1) {
            0 => WarmKind::Access,
            1 => WarmKind::UpperPte,
            _ => WarmKind::FlushPwc,
        }
    }

    fn core(self) -> CoreId {
        CoreId::new(((self.0 >> KIND_BITS) & ((1 << CORE_BITS) - 1)) as usize)
    }

    fn pa(self) -> PhysAddr {
        PhysAddr::new((self.0 >> ADDR_SHIFT) << 3)
    }
}

/// The full memory system.
///
/// # Examples
///
/// ```
/// use nocstar_mem::hierarchy::{MemoryConfig, MemorySystem, ServicedBy};
/// use nocstar_types::{CoreId, PhysAddr};
///
/// let mut mem = MemorySystem::new(MemoryConfig::haswell(2));
/// let pa = PhysAddr::new(0x4000);
/// let cold = mem.access(CoreId::new(0), pa, false);
/// assert_eq!(cold.serviced_by, ServicedBy::Dram);
/// let warm = mem.access(CoreId::new(0), pa, false);
/// assert_eq!(warm.serviced_by, ServicedBy::L1);
/// // Another core misses its private caches but hits the shared LLC.
/// let shared = mem.access(CoreId::new(1), pa, false);
/// assert_eq!(shared.serviced_by, ServicedBy::Llc);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    /// `None` while [detached](Self::detach_caches).
    caches: Option<Caches>,
    phys: PhysMemory,
    /// Per-address-space page tables, created on first touch.
    pub(crate) tables: BTreeMap<Asid, PageTable>,
    /// Distribution of completed page-walk latencies (cycles).
    pub(crate) walk_latency: Log2Histogram,
    /// Distribution of PWC-serviced PTE reads per walk (0–3).
    pub(crate) pwc_hits_per_walk: Log2Histogram,
}

impl MemorySystem {
    /// Builds the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero or any cache geometry is invalid.
    pub fn new(config: MemoryConfig) -> Self {
        assert!(config.cores > 0, "need at least one core");
        Self {
            caches: Some(Caches::new(&config)),
            phys: PhysMemory::new(config.phys_capacity),
            tables: BTreeMap::new(),
            walk_latency: Log2Histogram::new(),
            pwc_hits_per_walk: Log2Histogram::new(),
        }
    }

    /// Moves the caches out, for a fast-forward leg that warms them on
    /// another thread. Until [`attach_caches`](Self::attach_caches) gives
    /// them back, every method with a cache effect panics; the page
    /// tables and the physical allocator stay usable.
    ///
    /// # Panics
    ///
    /// Panics if the caches are already detached.
    pub fn detach_caches(&mut self) -> Caches {
        self.caches
            .take()
            .unwrap_or_else(|| panic!("caches detached twice"))
    }

    /// Puts back the caches [`detach_caches`](Self::detach_caches) took.
    pub fn attach_caches(&mut self, caches: Caches) {
        debug_assert!(self.caches.is_none(), "caches attached twice");
        self.caches = Some(caches);
    }

    fn caches(&self) -> &Caches {
        self.caches
            .as_ref()
            .unwrap_or_else(|| panic!("the caches are detached for a fast-forward leg"))
    }

    pub(crate) fn caches_mut(&mut self) -> &mut Caches {
        self.caches
            .as_mut()
            .unwrap_or_else(|| panic!("the caches are detached for a fast-forward leg"))
    }

    /// One data (or PTE) access by `core` to physical address `pa`,
    /// walking L1 → L2 → LLC → DRAM and filling on the way back. The
    /// caches are presence-only (no dirty state, no write-back traffic),
    /// so a write (`_write`) behaves exactly like a read.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range, or if `pa` is beyond a level's
    /// tag range (see [`Cache::probe`]).
    pub fn access(&mut self, core: CoreId, pa: PhysAddr, _write: bool) -> AccessResult {
        self.caches_mut().access(core, pa)
    }

    /// Functional warming of the data-cache hierarchy (`SAMPLING.md §2`):
    /// fills and updates recency at each level exactly as
    /// [`access`](Self::access) would — an L1 hit stops there, and so on
    /// down — but records no hit/miss statistics and charges no latency.
    /// Sampled fast-forward replay uses this so measurement windows start
    /// from warm caches instead of stale-warm ones.
    ///
    /// # Panics
    ///
    /// Panics as [`access`](Self::access) does.
    pub fn warm_access(&mut self, core: CoreId, pa: PhysAddr, _write: bool) {
        self.caches_mut().warm_access(core, pa);
    }

    /// Ensures `va` is mapped at the given page size (an OS demand-paging
    /// fault on first touch); returns the backing frame.
    pub fn ensure_mapped(&mut self, asid: Asid, va: VirtAddr, size: PageSize) -> PhysPageNum {
        let vpn = va.page_number(size);
        let phys = &mut self.phys;
        let table = self
            .tables
            .entry(asid)
            .or_insert_with(|| PageTable::new(phys));
        table.map(vpn, phys)
    }

    /// Functional translation with no timing or cache effects; `None` if
    /// unmapped.
    pub fn translate(&self, asid: Asid, va: VirtAddr) -> Option<(VirtPageNum, PhysPageNum)> {
        self.tables.get(&asid)?.lookup(va)
    }

    /// The functional fast-forward translation entry point
    /// (`SAMPLING.md §2`): maps `va` on first touch at the given page
    /// size (exactly as the detailed path would) and returns the
    /// translation as the page tables currently back it — which may be a
    /// different leaf level than `size` if the region was promoted or
    /// demoted. No timing, cache, or PWC effects.
    pub fn resolve_mapped(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        size: PageSize,
    ) -> (VirtPageNum, PhysPageNum) {
        let (vpn, ppn, _) = self.resolve_walk(asid, va, size);
        (vpn, ppn)
    }

    /// [`resolve_mapped`](Self::resolve_mapped), plus the addresses of
    /// the PTEs that the walk finding the translation reads: a
    /// fast-forward slice miss needs both, and gets them from one descent
    /// of the page table unless `va` is mapped on this first touch.
    pub fn resolve_walk(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        size: PageSize,
    ) -> (VirtPageNum, PhysPageNum, PerLevel<PhysAddr>) {
        let walk = |mem: &Self| {
            let outcome = mem.tables.get(&asid)?.walk(va);
            let (vpn, ppn) = outcome.mapping?;
            Some((vpn, ppn, outcome.pte_addrs))
        };
        if let Some(walked) = walk(self) {
            return walked;
        }
        self.ensure_mapped(asid, va, size);
        #[expect(
            clippy::expect_used,
            reason = "just mapped above; mappings are monotone"
        )]
        walk(self).expect("ensure_mapped leaves the address translated")
    }

    /// Remaps a page to a fresh frame; returns the new frame if mapped.
    pub fn remap(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<PhysPageNum> {
        let table = self.tables.get_mut(&asid)?;
        table.remap(vpn, &mut self.phys)
    }

    /// Promotes 4 KiB pages under a 2 MiB region (see
    /// [`PageTable::promote`]); returns the stale base pages.
    pub fn promote(&mut self, asid: Asid, vpn_2m: VirtPageNum) -> Option<Vec<VirtPageNum>> {
        let table = self.tables.get_mut(&asid)?;
        table.promote(vpn_2m, &mut self.phys)
    }

    /// Demotes a 2 MiB mapping (see [`PageTable::demote`]); returns the
    /// stale superpage.
    pub fn demote(&mut self, asid: Asid, vpn_2m: VirtPageNum) -> Option<VirtPageNum> {
        let table = self.tables.get_mut(&asid)?;
        table.demote(vpn_2m, &mut self.phys)
    }

    /// Per-level hit/miss statistics: `(l1_combined, l2_combined, llc)`.
    pub fn cache_stats(&self) -> (HitMiss, HitMiss, HitMiss) {
        let caches = self.caches();
        let mut l1 = HitMiss::new();
        for c in &caches.l1s {
            l1.merge(c.stats());
        }
        let mut l2 = HitMiss::new();
        for c in &caches.l2s {
            l2.merge(c.stats());
        }
        (l1, l2, caches.llc.stats())
    }

    /// Clears cache statistics on every level, plus the walk histograms.
    pub fn reset_cache_stats(&mut self) {
        let caches = self.caches_mut();
        for c in caches.l1s.iter_mut().chain(&mut caches.l2s) {
            c.reset_stats();
        }
        caches.llc.reset_stats();
        self.walk_latency = Log2Histogram::new();
        self.pwc_hits_per_walk = Log2Histogram::new();
    }

    /// Distribution of completed page-walk latencies.
    pub fn walk_latency_histogram(&self) -> &Log2Histogram {
        &self.walk_latency
    }

    /// Distribution of PWC-serviced PTE reads per walk.
    pub fn pwc_hits_histogram(&self) -> &Log2Histogram {
        &self.pwc_hits_per_walk
    }

    /// Flushes one core's paging-structure cache (context switch).
    pub fn flush_pwc(&mut self, core: CoreId) {
        self.caches_mut().flush_pwc(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(cores: usize) -> MemorySystem {
        let mut cfg = MemoryConfig::haswell(cores);
        cfg.phys_capacity = 1 << 30;
        MemorySystem::new(cfg)
    }

    #[test]
    fn access_walks_down_the_hierarchy() {
        let mut mem = system(1);
        let pa = PhysAddr::new(0x10_0000);
        assert_eq!(
            mem.access(CoreId::new(0), pa, false).serviced_by,
            ServicedBy::Dram
        );
        assert_eq!(
            mem.access(CoreId::new(0), pa, false).serviced_by,
            ServicedBy::L1
        );
    }

    #[test]
    fn llc_allocates_a_set_on_its_first_fill_only() {
        let config = MemoryConfig::haswell(256);
        let mut mem = MemorySystem::new(config);
        assert_eq!(mem.caches().llc.blocks(), 0);
        let sets = config.llc.capacity / 64 / config.llc.ways as u64;
        let line = |set: u64, tag: u64| PhysAddr::new((tag * sets + set) * 64);
        for k in 0..40 {
            let core = CoreId::new(k as usize);
            // Two lines of one set, by access and by functional warming,
            // and a repeat that hits in L1 and never reaches the LLC.
            mem.access(core, line(k * 1000, 0), false);
            mem.warm_access(core, line(k * 1000, 1), false);
            mem.access(core, line(k * 1000, 0), false);
        }
        assert_eq!(mem.caches().llc.blocks(), 40);
        assert_eq!(mem.caches().llc.occupancy(), 80);
        // The private levels keep the flat layout.
        assert_eq!(mem.caches().l2s[0].blocks(), 512); // 256 KiB of 8-way sets
    }

    #[test]
    fn warm_ops_pack_into_eight_bytes_and_round_trip() {
        assert_eq!(std::mem::size_of::<WarmOp>(), 8);
        let core = CoreId::new((1 << CORE_BITS) - 1);
        let pa = PhysAddr::new((1 << 45) - 8);
        let op = WarmOp::pte(core, pa, true);
        assert_eq!(
            (op.core(), op.pa(), op.kind()),
            (core, pa, WarmKind::UpperPte)
        );
        let op = WarmOp::access(CoreId::new(3), PhysAddr::new(0x1234_5678));
        // The low three address bits select no line and no PTE.
        assert_eq!(op.pa(), PhysAddr::new(0x1234_5678 & !7));
        assert_eq!(op.kind(), WarmKind::Access);
        assert_eq!(WarmOp::flush_pwc(core).kind(), WarmKind::FlushPwc);
    }

    #[test]
    #[should_panic(expected = "beyond a warming operation's range")]
    fn warm_ops_refuse_addresses_they_cannot_hold() {
        WarmOp::access(CoreId::new(0), PhysAddr::new(1 << 45));
    }

    #[test]
    fn applied_warm_ops_leave_the_state_of_the_calls_they_stand_for() {
        // Two systems with the same page tables: one warms through the
        // methods, the other through detached caches fed the same work as
        // operations. Timed walks and accesses afterwards must agree.
        let (mut calls, mut ops) = (system(2), system(2));
        let asid = Asid::new(1);
        let vas: Vec<_> = (0..64u64)
            .map(|i| VirtAddr::new(0x4000_0000 + i * 0x3_1000))
            .collect();
        for mem in [&mut calls, &mut ops] {
            for &va in &vas {
                mem.ensure_mapped(asid, va, PageSize::Size4K);
            }
        }
        let mut caches = ops.detach_caches();
        for (i, &va) in vas.iter().enumerate() {
            let core = CoreId::new(i % 2);
            let pa = PhysAddr::new(va.value() ^ 0x5_0000);
            calls.warm_walk(core, asid, va);
            calls.warm_access(core, pa, false);
            for op in ops.walk_warm_ops(core, asid, va) {
                caches.apply(op);
            }
            caches.apply(WarmOp::access(core, pa));
            if i % 7 == 0 {
                calls.flush_pwc(core);
                caches.apply(WarmOp::flush_pwc(core));
            }
        }
        ops.attach_caches(caches);
        for (i, &va) in vas.iter().enumerate().rev() {
            let core = CoreId::new((i + 1) % 2);
            assert_eq!(calls.walk(core, asid, va), ops.walk(core, asid, va));
            let pa = PhysAddr::new(va.value() ^ 0x5_0000);
            assert_eq!(calls.access(core, pa, false), ops.access(core, pa, false));
        }
        assert_eq!(calls.cache_stats(), ops.cache_stats());
    }

    #[test]
    #[should_panic(expected = "detached for a fast-forward leg")]
    fn detached_caches_refuse_timed_accesses() {
        let mut mem = system(1);
        let _caches = mem.detach_caches();
        mem.access(CoreId::new(0), PhysAddr::new(0), false);
    }

    #[test]
    fn dram_latency_includes_llc_lookup() {
        let mut mem = system(1);
        let r = mem.access(CoreId::new(0), PhysAddr::new(0), false);
        assert_eq!(r.latency, Cycles::new(250)); // 50 LLC + 200 DRAM
    }

    #[test]
    fn private_caches_are_per_core_but_llc_is_shared() {
        let mut mem = system(2);
        let pa = PhysAddr::new(0x2000);
        mem.access(CoreId::new(0), pa, false);
        let other = mem.access(CoreId::new(1), pa, false);
        assert_eq!(other.serviced_by, ServicedBy::Llc);
        assert_eq!(other.latency, Cycles::new(50));
    }

    #[test]
    fn ensure_mapped_is_idempotent_and_translates() {
        let mut mem = system(1);
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x123_4567);
        let f1 = mem.ensure_mapped(asid, va, PageSize::Size4K);
        let f2 = mem.ensure_mapped(asid, va, PageSize::Size4K);
        assert_eq!(f1, f2);
        let (vpn, ppn) = mem.translate(asid, va).unwrap();
        assert_eq!(ppn, f1);
        assert_eq!(vpn, va.page_number(PageSize::Size4K));
    }

    #[test]
    fn resolve_mapped_demand_maps_and_honors_promotions() {
        let mut mem = system(1);
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x9_0000);
        let (vpn, ppn) = mem.resolve_mapped(asid, va, PageSize::Size4K);
        assert_eq!(vpn, va.page_number(PageSize::Size4K));
        assert_eq!(mem.translate(asid, va).unwrap(), (vpn, ppn));
        // After promotion, resolution follows the tables' 2M leaf even
        // when asked at 4K granularity.
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        for i in 0..512u64 {
            mem.ensure_mapped(
                asid,
                VirtAddr::new((v2m.to_base_pages() + i) << 12),
                PageSize::Size4K,
            );
        }
        mem.promote(asid, v2m).unwrap();
        let (vpn2, _) = mem.resolve_mapped(asid, VirtAddr::new(0x20_3000), PageSize::Size4K);
        assert_eq!(vpn2.page_size(), PageSize::Size2M);
    }

    #[test]
    fn resolve_walk_is_resolve_mapped_plus_the_walk_reads() {
        let (mut walked, mut mapped) = (system(1), system(1));
        let asid = Asid::new(1);
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        let vas = [0x9_0000, 0x9_0000, 0x20_3000, 0x4000_0000, 0x20_5000];
        for (i, &va) in vas.iter().enumerate() {
            if i == 3 {
                // Promote the 2 MiB region under the third address.
                for mem in [&mut walked, &mut mapped] {
                    for p in 0..512u64 {
                        let base = VirtAddr::new((v2m.to_base_pages() + p) << 12);
                        mem.ensure_mapped(asid, base, PageSize::Size4K);
                    }
                    mem.promote(asid, v2m).unwrap();
                }
            }
            let va = VirtAddr::new(va);
            let (vpn, ppn, pte_addrs) = walked.resolve_walk(asid, va, PageSize::Size4K);
            assert_eq!(
                (vpn, ppn),
                mapped.resolve_mapped(asid, va, PageSize::Size4K)
            );
            let table = walked.tables.get(&asid).unwrap();
            assert_eq!(pte_addrs, table.walk(va).pte_addrs);
            assert_eq!(pte_addrs.len(), vpn.page_size().walk_levels());
        }
    }

    #[test]
    fn distinct_asids_have_distinct_tables() {
        let mut mem = system(1);
        let va = VirtAddr::new(0x5000);
        let a = mem.ensure_mapped(Asid::new(1), va, PageSize::Size4K);
        let b = mem.ensure_mapped(Asid::new(2), va, PageSize::Size4K);
        assert_ne!(a, b);
        assert!(mem.translate(Asid::new(3), va).is_none());
    }

    #[test]
    fn remap_promote_demote_plumb_through() {
        let mut mem = system(1);
        let asid = Asid::new(1);
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        for i in 0..512u64 {
            mem.ensure_mapped(
                asid,
                VirtAddr::new((v2m.to_base_pages() + i) << 12),
                PageSize::Size4K,
            );
        }
        let stale = mem.promote(asid, v2m).unwrap();
        assert_eq!(stale.len(), 512);
        let demoted = mem.demote(asid, v2m).unwrap();
        assert_eq!(demoted, v2m);
        let new = mem
            .remap(asid, VirtAddr::new(0x20_0000).page_number(PageSize::Size4K))
            .unwrap();
        assert_eq!(
            mem.translate(asid, VirtAddr::new(0x20_0000)).unwrap().1,
            new
        );
    }

    #[test]
    fn cache_stats_aggregate_across_cores() {
        let mut mem = system(2);
        mem.access(CoreId::new(0), PhysAddr::new(0), false);
        mem.access(CoreId::new(1), PhysAddr::new(0x8000), false);
        let (l1, _l2, llc) = mem.cache_stats();
        assert_eq!(l1.accesses(), 2);
        assert_eq!(llc.misses(), 2);
        mem.reset_cache_stats();
        assert_eq!(mem.cache_stats().0.accesses(), 0);
    }
}
