//! The hardware page-table walker.
//!
//! On an L2 TLB miss, the walker chases the radix table: up to four
//! dependent PTE reads, each travelling through the cache hierarchy of the
//! core performing the walk. That gives the paper's *variable* walk latency
//! — typically 20–40 cycles when PTEs hit the cache hierarchy, 100+ when
//! they go to DRAM. Table III also studies *fixed* walk latencies of
//! 10/20/40/80 cycles, which [`WalkLatency::Fixed`] models by skipping the
//! cache traversal.

use crate::hierarchy::{MemorySystem, ServicedBy};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Asid, CoreId, PhysPageNum, VirtAddr, VirtPageNum};

/// How page-walk latency is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkLatency {
    /// Each PTE read travels through the walking core's cache hierarchy
    /// (the paper's realistic default).
    #[default]
    Variable,
    /// Every walk costs exactly this many cycles (Table III's fixed-N).
    Fixed(Cycles),
}

/// The outcome of a completed page-table walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResult {
    /// The virtual page that was resolved (its size reflects the leaf
    /// level the walk terminated at).
    pub vpn: VirtPageNum,
    /// The backing physical frame.
    pub ppn: PhysPageNum,
    /// Total walk latency.
    pub latency: Cycles,
    /// Which level serviced each PTE read (empty for fixed-latency walks).
    pub pte_reads: Vec<ServicedBy>,
}

impl WalkResult {
    /// True when any PTE read had to leave the private caches — the
    /// paper's "page table walks that prompt LLC and main memory lookups"
    /// (70–87 % of walks in their baseline).
    pub fn touched_llc_or_memory(&self) -> bool {
        self.pte_reads
            .iter()
            .any(|s| matches!(s, ServicedBy::Llc | ServicedBy::Dram))
    }
}

/// Picks the core to run a walk on under hierarchical (cluster-homed)
/// organizations. The preferred core — the requester or the home-slice
/// tile, per the Fig 17 policy — keeps its warm paging-structure cache,
/// so it wins unless another intra-cluster candidate's walker frees up
/// strictly earlier: the home tile is considered as the one alternative
/// (its PWC is warm for pages homed there), trading a colder PWC for not
/// queueing behind the preferred core's busy walker.
///
/// Both candidates are in the requester's cluster by construction (the
/// home is cluster-local), so walk placement never adds overlay traffic.
pub fn cluster_walker(
    preferred: CoreId,
    home: CoreId,
    cluster_size: usize,
    walker_free: &[Cycle],
) -> CoreId {
    if cluster_size <= 1 || preferred == home {
        return preferred;
    }
    debug_assert_eq!(
        preferred.index() / cluster_size,
        home.index() / cluster_size,
        "cluster walk placement requires cluster-local homes"
    );
    if walker_free[home.index()] < walker_free[preferred.index()] {
        home
    } else {
        preferred
    }
}

impl MemorySystem {
    /// Performs a page-table walk for `va` in address space `asid`, with
    /// the PTE reads issued by `core` (the requesting core or the remote
    /// slice's core, depending on the Fig 17 policy).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped — the simulator maps every workload
    /// page on first touch, so an unmapped walk is a harness bug.
    pub fn walk(&mut self, core: CoreId, asid: Asid, va: VirtAddr) -> WalkResult {
        self.walk_with(core, asid, va, WalkLatency::Variable)
    }

    /// [`walk`](Self::walk) with an explicit latency policy.
    ///
    /// # Panics
    ///
    /// As [`walk`](Self::walk).
    pub fn walk_with(
        &mut self,
        core: CoreId,
        asid: Asid,
        va: VirtAddr,
        policy: WalkLatency,
    ) -> WalkResult {
        self.walk_spiked(core, asid, va, policy, 1)
    }

    /// [`walk_with`](Self::walk_with) under an injected DRAM/walker
    /// latency spike: the modelled walk latency is multiplied by
    /// `latency_multiplier` (refresh storms, thermal throttling of the
    /// memory controller). A multiplier of `1` (or `0`) is the normal
    /// walk. The spiked latency is what the walk-latency statistics
    /// record — a spiked run is meant to *look* slow in its report.
    ///
    /// # Panics
    ///
    /// As [`walk`](Self::walk).
    pub fn walk_spiked(
        &mut self,
        core: CoreId,
        asid: Asid,
        va: VirtAddr,
        policy: WalkLatency,
        latency_multiplier: u64,
    ) -> WalkResult {
        let outcome = self
            .tables
            .get(&asid)
            .unwrap_or_else(|| panic!("walk in unknown address space {asid}"))
            .walk(va);
        let (vpn, ppn) = outcome
            .mapping
            .unwrap_or_else(|| panic!("walk of unmapped address {va} in {asid}"));
        let mut result = match policy {
            WalkLatency::Fixed(latency) => WalkResult {
                vpn,
                ppn,
                latency,
                pte_reads: Vec::new(),
            },
            WalkLatency::Variable => {
                let mut latency = Cycles::ZERO;
                let mut pte_reads = Vec::with_capacity(outcome.pte_addrs.len());
                let leaf = outcome.pte_addrs.len() - 1;
                for (level, pa) in outcome.pte_addrs.iter().enumerate() {
                    // Upper-level PTEs are served by the per-core paging-
                    // structure cache when present; the leaf PTE always
                    // reads the memory hierarchy.
                    if level < leaf && self.pwc_mut(core).access(*pa) {
                        latency += Cycles::ONE;
                        pte_reads.push(ServicedBy::Pwc);
                        continue;
                    }
                    let r = self.access(core, *pa, false);
                    latency += r.latency;
                    pte_reads.push(r.serviced_by);
                }
                WalkResult {
                    vpn,
                    ppn,
                    latency,
                    pte_reads,
                }
            }
        };
        if latency_multiplier > 1 {
            result.latency = Cycles::new(result.latency.value().saturating_mul(latency_multiplier));
        }
        self.walk_latency.record(result.latency.value());
        let pwc_hits = result
            .pte_reads
            .iter()
            .filter(|s| **s == ServicedBy::Pwc)
            .count() as u64;
        self.pwc_hits_per_walk.record(pwc_hits);
        result
    }

    /// Functional warming of the walk-side state (`SAMPLING.md §2`):
    /// touches the PWC for the upper-level PTEs and the cache hierarchy
    /// for every PTE read that would leave it, filling exactly as a
    /// [`WalkLatency::Variable`] [`walk`](Self::walk) would, but recording
    /// no latency or hit/miss statistics. Unmapped addresses are ignored
    /// — fast-forward resolves the mapping before warming.
    pub fn warm_walk(&mut self, core: CoreId, asid: Asid, va: VirtAddr) {
        let outcome = match self.tables.get(&asid) {
            Some(table) => table.walk(va),
            None => return,
        };
        if outcome.mapping.is_none() || outcome.pte_addrs.is_empty() {
            return;
        }
        let leaf = outcome.pte_addrs.len() - 1;
        for (level, pa) in outcome.pte_addrs.iter().enumerate() {
            if level < leaf && self.pwc_mut(core).touch(*pa) {
                continue;
            }
            self.warm_access(core, *pa, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemoryConfig;
    use nocstar_types::PageSize;

    fn system() -> MemorySystem {
        let mut cfg = MemoryConfig::haswell(2);
        cfg.phys_capacity = 1 << 30;
        MemorySystem::new(cfg)
    }

    #[test]
    fn cold_walk_pays_dram_for_every_level() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x1234_5000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        let walk = mem.walk(CoreId::new(0), asid, va);
        assert_eq!(walk.pte_reads.len(), 4);
        assert!(walk.pte_reads.iter().all(|s| *s == ServicedBy::Dram));
        assert_eq!(walk.latency, Cycles::new(4 * 250));
        assert!(walk.touched_llc_or_memory());
    }

    #[test]
    fn warm_walks_are_cheap() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x1234_5000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        mem.walk(CoreId::new(0), asid, va);
        let warm = mem.walk(CoreId::new(0), asid, va);
        // Upper levels hit the PWC (1 cycle each); the leaf PTE hits L1.
        assert_eq!(
            warm.pte_reads,
            vec![
                ServicedBy::Pwc,
                ServicedBy::Pwc,
                ServicedBy::Pwc,
                ServicedBy::L1
            ]
        );
        assert_eq!(warm.latency, Cycles::new(3 + 4));
        assert!(!warm.touched_llc_or_memory());
    }

    #[test]
    fn pwc_is_per_core() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x1234_5000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        mem.walk(CoreId::new(0), asid, va);
        // Core 1's PWC is cold, so its upper reads go to the caches.
        let other = mem.walk(CoreId::new(1), asid, va);
        assert!(other.pte_reads.iter().all(|s| *s != ServicedBy::Pwc));
    }

    #[test]
    fn pwc_flush_restores_cold_upper_levels() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x1234_5000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        mem.walk(CoreId::new(0), asid, va);
        mem.flush_pwc(CoreId::new(0));
        let after = mem.walk(CoreId::new(0), asid, va);
        assert!(after.pte_reads.iter().all(|s| *s != ServicedBy::Pwc));
    }

    #[test]
    fn superpage_walks_have_fewer_reads() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x4000_0000);
        mem.ensure_mapped(asid, va, PageSize::Size2M);
        let walk = mem.walk(CoreId::new(0), asid, va.offset(0x1234));
        assert_eq!(walk.pte_reads.len(), 3);
        assert_eq!(walk.vpn.page_size(), PageSize::Size2M);
    }

    #[test]
    fn fixed_latency_skips_the_caches() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x9000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        let walk = mem.walk_with(
            CoreId::new(0),
            asid,
            va,
            WalkLatency::Fixed(Cycles::new(20)),
        );
        assert_eq!(walk.latency, Cycles::new(20));
        assert!(walk.pte_reads.is_empty());
        assert!(!walk.touched_llc_or_memory());
        // The caches saw no PTE traffic.
        assert_eq!(mem.cache_stats().0.accesses(), 0);
    }

    #[test]
    fn walks_pollute_the_walking_cores_caches() {
        // The Fig 17 "walk at remote node" policy pollutes the remote
        // core's caches; verify walks are attributed to the given core.
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x7000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        mem.walk(CoreId::new(1), asid, va);
        let warm_remote = mem.walk(CoreId::new(1), asid, va);
        assert_eq!(warm_remote.pte_reads.last(), Some(&ServicedBy::L1));
        // Core 0 still misses privately (hits shared LLC).
        let cross = mem.walk(CoreId::new(0), asid, va);
        assert!(cross.pte_reads.iter().all(|s| *s == ServicedBy::Llc));
    }

    #[test]
    fn spiked_walks_multiply_latency_and_statistics() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x9000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        let spiked = mem.walk_spiked(
            CoreId::new(0),
            asid,
            va,
            WalkLatency::Fixed(Cycles::new(20)),
            8,
        );
        assert_eq!(spiked.latency, Cycles::new(160));
        // The recorded walk-latency distribution reflects the spike.
        assert_eq!(mem.walk_latency_histogram().max(), Some(160));
    }

    #[test]
    fn warm_walk_leaves_the_state_a_real_walk_would() {
        let mut mem = system();
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x1234_5000);
        mem.ensure_mapped(asid, va, PageSize::Size4K);
        mem.warm_walk(CoreId::new(0), asid, va);
        // No statistics were recorded by the warming pass...
        assert_eq!(mem.walk_latency_histogram().count(), 0);
        assert_eq!(mem.cache_stats().0.accesses(), 0);
        // ...yet a subsequent timed walk sees exactly the warm state a
        // prior real walk would have left: PWC upper levels, L1 leaf.
        let warm = mem.walk(CoreId::new(0), asid, va);
        assert_eq!(
            warm.pte_reads,
            vec![
                ServicedBy::Pwc,
                ServicedBy::Pwc,
                ServicedBy::Pwc,
                ServicedBy::L1
            ]
        );
    }

    #[test]
    fn warm_walk_ignores_unmapped_addresses() {
        let mut mem = system();
        let asid = Asid::new(1);
        mem.ensure_mapped(asid, VirtAddr::new(0x1000), PageSize::Size4K);
        mem.warm_walk(CoreId::new(0), asid, VirtAddr::new(0xdead_0000));
        mem.warm_walk(CoreId::new(0), Asid::new(99), VirtAddr::new(0x1000));
        assert_eq!(mem.cache_stats().0.accesses(), 0);
    }

    #[test]
    fn warm_access_fills_without_statistics() {
        let mut mem = system();
        let core = CoreId::new(0);
        let pa = nocstar_types::PhysAddr::new(0x4000);
        mem.warm_access(core, pa, false);
        assert_eq!(mem.cache_stats().0.accesses(), 0);
        let hit = mem.access(core, pa, false);
        assert_eq!(hit.serviced_by, ServicedBy::L1);
    }

    #[test]
    fn cluster_walker_prefers_the_warm_pwc_on_ties() {
        let free = vec![Cycle::new(10); 4];
        let (req, home) = (CoreId::new(1), CoreId::new(3));
        // Equal availability: the preferred core keeps the walk.
        assert_eq!(cluster_walker(req, home, 4, &free), req);
    }

    #[test]
    fn cluster_walker_steals_only_a_strictly_earlier_walker() {
        let mut free = vec![Cycle::new(10); 4];
        free[3] = Cycle::new(5);
        let (req, home) = (CoreId::new(1), CoreId::new(3));
        assert_eq!(cluster_walker(req, home, 4, &free), home);
        // With the imbalance reversed, the preferred core stays.
        free[3] = Cycle::new(50);
        assert_eq!(cluster_walker(req, home, 4, &free), req);
        // Degenerate clusters never move the walk.
        assert_eq!(cluster_walker(req, req, 4, &free), req);
        assert_eq!(cluster_walker(req, home, 1, &free), req);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn walking_an_unmapped_page_panics() {
        let mut mem = system();
        let asid = Asid::new(1);
        mem.ensure_mapped(asid, VirtAddr::new(0x1000), PageSize::Size4K);
        mem.walk(CoreId::new(0), asid, VirtAddr::new(0xdead_0000));
    }
}
