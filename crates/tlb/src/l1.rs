//! The per-core split L1 TLB.
//!
//! Paper §IV: "64-entry 4-way associative L1 TLBs for 4KB pages, 32-entry
//! 4-way L1 TLBs for 2MB pages, and 4-entry TLBs for 1GB pages", accessed in
//! a single cycle in parallel with the L1 cache. A lookup probes all three
//! size-specific arrays, because the page size backing a virtual address is
//! unknown until a translation is found.

use crate::entry::TlbEntry;
use crate::replacement::ReplacementPolicy;
use crate::set_assoc::SetAssocTlb;
use nocstar_stats::counter::HitMiss;
use nocstar_types::{Asid, PageSize, VirtAddr, VirtPageNum};

/// Sizing of the three per-page-size L1 arrays.
///
/// # Examples
///
/// ```
/// use nocstar_tlb::l1::L1Config;
/// let half = L1Config::haswell().scale(0.5);
/// assert_eq!(half.entries_4k, 32);
/// let bigger = L1Config::haswell().scale(1.5);
/// assert_eq!(bigger.entries_4k, 96);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Entries in the 4 KiB-page array.
    pub entries_4k: usize,
    /// Associativity of the 4 KiB-page array.
    pub ways_4k: usize,
    /// Entries in the 2 MiB-page array.
    pub entries_2m: usize,
    /// Associativity of the 2 MiB-page array.
    pub ways_2m: usize,
    /// Entries in the 1 GiB-page array (fully associative).
    pub entries_1g: usize,
}

impl L1Config {
    /// The paper's Haswell configuration.
    pub fn haswell() -> Self {
        Self {
            entries_4k: 64,
            ways_4k: 4,
            entries_2m: 32,
            ways_2m: 4,
            entries_1g: 4,
        }
    }

    /// Scales every array's capacity by `factor` (Fig 6 studies 0.5x and
    /// 1.5x L1 TLBs), keeping associativity and rounding to a whole number
    /// of sets (minimum one set).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive, got {factor}"
        );
        let scale_entries = |entries: usize, ways: usize| -> usize {
            let target = (entries as f64 * factor).round() as usize;
            let sets = (target / ways).max(1);
            sets * ways
        };
        Self {
            entries_4k: scale_entries(self.entries_4k, self.ways_4k),
            ways_4k: self.ways_4k,
            entries_2m: scale_entries(self.entries_2m, self.ways_2m),
            ways_2m: self.ways_2m,
            entries_1g: ((self.entries_1g as f64 * factor).round() as usize).max(1),
        }
    }
}

impl Default for L1Config {
    fn default() -> Self {
        Self::haswell()
    }
}

/// A split (per-page-size) L1 TLB.
///
/// # Examples
///
/// ```
/// use nocstar_tlb::l1::L1Tlb;
/// use nocstar_tlb::entry::TlbEntry;
/// use nocstar_types::{Asid, PageSize, PhysPageNum, VirtAddr};
///
/// let mut l1 = L1Tlb::haswell();
/// let asid = Asid::new(1);
/// let va = VirtAddr::new(0x40_0123); // inside 2MiB page 2
/// let vpn = va.page_number(PageSize::Size2M);
/// l1.insert(TlbEntry::new(asid, vpn, PhysPageNum::new(9, PageSize::Size2M)));
/// let hit = l1.lookup(asid, va).unwrap();
/// assert_eq!(hit.page_size(), PageSize::Size2M);
/// ```
#[derive(Debug, Clone)]
pub struct L1Tlb {
    t4k: SetAssocTlb,
    t2m: SetAssocTlb,
    t1g: SetAssocTlb,
}

impl L1Tlb {
    /// Builds an L1 TLB with the given sizing; all arrays use LRU.
    pub fn new(config: L1Config) -> Self {
        Self {
            t4k: SetAssocTlb::new(config.entries_4k, config.ways_4k, ReplacementPolicy::Lru),
            t2m: SetAssocTlb::new(config.entries_2m, config.ways_2m, ReplacementPolicy::Lru),
            t1g: SetAssocTlb::new(config.entries_1g, config.entries_1g, ReplacementPolicy::Lru),
        }
    }

    /// The paper's Haswell-sized L1 TLB.
    pub fn haswell() -> Self {
        Self::new(L1Config::haswell())
    }

    fn array_for(&self, size: PageSize) -> &SetAssocTlb {
        match size {
            PageSize::Size4K => &self.t4k,
            PageSize::Size2M => &self.t2m,
            PageSize::Size1G => &self.t1g,
        }
    }

    fn array_for_mut(&mut self, size: PageSize) -> &mut SetAssocTlb {
        match size {
            PageSize::Size4K => &mut self.t4k,
            PageSize::Size2M => &mut self.t2m,
            PageSize::Size1G => &mut self.t1g,
        }
    }

    /// Translates a virtual address, probing the superpage arrays first.
    /// Exactly one array records an access per call, so miss rates reflect
    /// whole-L1 behaviour: a miss is recorded against the 4 KiB array (the
    /// last one probed), a hit against the array that provided it.
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<TlbEntry> {
        for size in [PageSize::Size1G, PageSize::Size2M] {
            let vpn = va.page_number(size);
            if self.array_for(size).probe(asid, vpn).is_some() {
                // Refresh recency + record the hit in the owning array.
                return self.array_for_mut(size).lookup(asid, vpn);
            }
        }
        self.t4k.lookup(asid, va.page_number(PageSize::Size4K))
    }

    /// Functional fast-forward lookup (`SAMPLING.md §2`): probes the
    /// same superpage-first order as [`lookup`](Self::lookup) and
    /// updates recency in the owning array, but records no hit/miss
    /// statistics in any array.
    pub fn touch(&mut self, asid: Asid, va: VirtAddr) -> Option<TlbEntry> {
        for size in [PageSize::Size1G, PageSize::Size2M] {
            let vpn = va.page_number(size);
            if self.array_for(size).probe(asid, vpn).is_some() {
                return self.array_for_mut(size).touch(asid, vpn);
            }
        }
        self.t4k.touch(asid, va.page_number(PageSize::Size4K))
    }

    /// Inserts a translation into the array of its page size, returning the
    /// evicted entry if any.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.array_for_mut(entry.page_size()).insert(entry)
    }

    /// Invalidates one translation; returns whether it was present.
    pub fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        self.array_for_mut(vpn.page_size()).invalidate(asid, vpn)
    }

    /// Flushes all non-global translations (context switch); returns the
    /// number dropped.
    pub fn flush_non_global(&mut self) -> usize {
        self.t4k.flush_non_global() + self.t2m.flush_non_global() + self.t1g.flush_non_global()
    }

    /// Combined hit/miss statistics across the three arrays.
    pub fn stats(&self) -> HitMiss {
        let mut total = self.t4k.stats();
        total.merge(self.t2m.stats());
        total.merge(self.t1g.stats());
        total
    }

    /// Clears statistics on all arrays (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.t4k.reset_stats();
        self.t2m.reset_stats();
        self.t1g.reset_stats();
    }

    /// Total valid entries across the three arrays.
    pub fn occupancy(&self) -> usize {
        self.t4k.occupancy() + self.t2m.occupancy() + self.t1g.occupancy()
    }
}

impl Default for L1Tlb {
    fn default() -> Self {
        Self::haswell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::PhysPageNum;

    fn entry(asid: u16, vpn: u64, size: PageSize) -> TlbEntry {
        TlbEntry::new(
            Asid::new(asid),
            VirtPageNum::new(vpn, size),
            PhysPageNum::new(vpn + 1, size),
        )
    }

    #[test]
    fn haswell_capacities_match_the_paper() {
        let l1 = L1Tlb::haswell();
        assert_eq!(
            (l1.t4k.entries(), l1.t2m.entries(), l1.t1g.entries()),
            (64, 32, 4)
        );
    }

    #[test]
    fn lookup_probes_all_page_sizes() {
        let mut l1 = L1Tlb::haswell();
        let asid = Asid::new(1);
        l1.insert(entry(1, 5, PageSize::Size4K)); // va 0x5000
        l1.insert(entry(1, 5, PageSize::Size2M)); // va 0xA0_0000..0xC0_0000
        l1.insert(entry(1, 5, PageSize::Size1G)); // va at 5 GiB

        let hit4k = l1.lookup(asid, VirtAddr::new(0x5000)).unwrap();
        assert_eq!(hit4k.page_size(), PageSize::Size4K);
        let hit2m = l1.lookup(asid, VirtAddr::new(5 * 0x20_0000 + 7)).unwrap();
        assert_eq!(hit2m.page_size(), PageSize::Size2M);
        let hit1g = l1.lookup(asid, VirtAddr::new(5 * 0x4000_0000 + 7)).unwrap();
        assert_eq!(hit1g.page_size(), PageSize::Size1G);
    }

    #[test]
    fn superpage_hit_shadows_contained_base_page() {
        // If both a 2M mapping and a 4K mapping inside it exist, the
        // superpage array answers first (hardware probes in parallel; any
        // hit wins, and consistent tables make them agree).
        let mut l1 = L1Tlb::haswell();
        let asid = Asid::new(1);
        l1.insert(entry(1, 0, PageSize::Size2M));
        l1.insert(entry(1, 3, PageSize::Size4K)); // inside 2M page 0
        let hit = l1.lookup(asid, VirtAddr::new(0x3000)).unwrap();
        assert_eq!(hit.page_size(), PageSize::Size2M);
    }

    #[test]
    fn one_access_recorded_per_lookup() {
        let mut l1 = L1Tlb::haswell();
        let asid = Asid::new(1);
        l1.insert(entry(1, 9, PageSize::Size4K));
        l1.lookup(asid, VirtAddr::new(0x9000)); // hit
        l1.lookup(asid, VirtAddr::new(0x1_0000)); // miss
        assert_eq!(l1.stats().accesses(), 2);
        assert_eq!(l1.stats().hits(), 1);
    }

    #[test]
    fn touch_finds_superpages_without_recording_stats() {
        let mut l1 = L1Tlb::haswell();
        let asid = Asid::new(1);
        l1.insert(entry(1, 5, PageSize::Size2M));
        let hit = l1.touch(asid, VirtAddr::new(5 * 0x20_0000 + 7)).unwrap();
        assert_eq!(hit.page_size(), PageSize::Size2M);
        assert!(l1.touch(asid, VirtAddr::new(0x9999_0000)).is_none());
        assert_eq!(l1.stats().accesses(), 0);
    }

    #[test]
    fn invalidate_targets_the_right_array() {
        let mut l1 = L1Tlb::haswell();
        l1.insert(entry(1, 5, PageSize::Size2M));
        assert!(!l1.invalidate(Asid::new(1), VirtPageNum::new(5, PageSize::Size4K)));
        assert!(l1.invalidate(Asid::new(1), VirtPageNum::new(5, PageSize::Size2M)));
        assert_eq!(l1.occupancy(), 0);
    }

    #[test]
    fn flush_non_global_clears_process_entries() {
        let mut l1 = L1Tlb::haswell();
        l1.insert(entry(1, 1, PageSize::Size4K));
        l1.insert(TlbEntry::new_global(
            VirtPageNum::new(2, PageSize::Size4K),
            PhysPageNum::new(2, PageSize::Size4K),
        ));
        assert_eq!(l1.flush_non_global(), 1);
        assert_eq!(l1.occupancy(), 1);
    }

    #[test]
    fn scaled_config_keeps_set_alignment() {
        let c = L1Config::haswell().scale(0.5);
        assert_eq!(c.entries_4k % c.ways_4k, 0);
        assert_eq!(c.entries_2m % c.ways_2m, 0);
        let tiny = L1Config::haswell().scale(0.01);
        // Never collapses below one set.
        assert_eq!(tiny.entries_4k, 4);
        assert_eq!(tiny.entries_1g, 1);
        let l1 = L1Tlb::new(tiny);
        assert_eq!(
            (l1.t4k.entries(), l1.t2m.entries(), l1.t1g.entries()),
            (4, 4, 1)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_scale_rejected() {
        let _ = L1Config::haswell().scale(0.0);
    }
}
