//! The chip's memory system: per-core L1D/L2 caches, a shared LLC, DRAM,
//! physical memory, and per-address-space page tables.

use crate::cache::{Cache, CacheConfig};
use crate::page_table::PageTable;
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
    config: MemoryConfig,
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    llc: Cache,
    phys: PhysMemory,
    /// Per-address-space page tables, created on first touch.
    pub(crate) tables: BTreeMap<Asid, PageTable>,
    pwcs: Vec<PteCache>,
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
            config,
            l1s: (0..config.cores).map(|_| Cache::new(config.l1d)).collect(),
            l2s: (0..config.cores).map(|_| Cache::new(config.l2)).collect(),
            // The private levels are touched densely, the LLC sparsely:
            // a run fills a few percent of its 2.5 MiB-per-core sets.
            llc: Cache::first_touch(config.llc),
            phys: PhysMemory::new(config.phys_capacity),
            tables: BTreeMap::new(),
            pwcs: (0..config.cores)
                .map(|_| PteCache::new(DEFAULT_PWC_ENTRIES))
                .collect(),
            walk_latency: Log2Histogram::new(),
            pwc_hits_per_walk: Log2Histogram::new(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
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
            latency: self.llc.latency() + self.config.dram_latency,
            serviced_by: ServicedBy::Dram,
        }
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
        let c = core.index();
        if self.l1s[c].touch(pa) {
            return;
        }
        if self.l2s[c].touch(pa) {
            return;
        }
        self.llc.touch(pa);
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
        if let Some(mapping) = self.translate(asid, va) {
            return mapping;
        }
        self.ensure_mapped(asid, va, size);
        self.translate(asid, va)
            // nocstar-lint: allow(sim-unwrap): just mapped above; mappings are monotone
            .expect("ensure_mapped leaves the address translated")
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
        let mut l1 = HitMiss::new();
        for c in &self.l1s {
            l1.merge(c.stats());
        }
        let mut l2 = HitMiss::new();
        for c in &self.l2s {
            l2.merge(c.stats());
        }
        (l1, l2, self.llc.stats())
    }

    /// Clears cache statistics on every level, plus the walk histograms.
    pub fn reset_cache_stats(&mut self) {
        for c in &mut self.l1s {
            c.reset_stats();
        }
        for c in &mut self.l2s {
            c.reset_stats();
        }
        self.llc.reset_stats();
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

    /// The physical memory allocator (for inspection).
    pub fn phys(&self) -> &PhysMemory {
        &self.phys
    }

    /// The paging-structure cache of one core.
    pub fn pwc_mut(&mut self, core: CoreId) -> &mut PteCache {
        &mut self.pwcs[core.index()]
    }

    /// Flushes one core's paging-structure cache (context switch).
    pub fn flush_pwc(&mut self, core: CoreId) {
        self.pwcs[core.index()].flush();
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
        let mut mem = MemorySystem::new(MemoryConfig::haswell(256));
        assert_eq!(mem.llc.blocks(), 0);
        let sets = mem.config.llc.capacity / 64 / mem.config.llc.ways as u64;
        let line = |set: u64, tag: u64| PhysAddr::new((tag * sets + set) * 64);
        for k in 0..40 {
            let core = CoreId::new(k as usize);
            // Two lines of one set, by access and by functional warming,
            // and a repeat that hits in L1 and never reaches the LLC.
            mem.access(core, line(k * 1000, 0), false);
            mem.warm_access(core, line(k * 1000, 1), false);
            mem.access(core, line(k * 1000, 0), false);
        }
        assert_eq!(mem.llc.blocks(), 40);
        assert_eq!(mem.llc.occupancy(), 80);
        // The private levels keep the flat layout.
        assert_eq!(mem.l2s[0].blocks(), 512); // 256 KiB of 8-way sets
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
