//! A set-associative TLB array with modulo indexing.
//!
//! Paper §III-E: "L1 and L2 TLBs use the lower-order bits of the virtual
//! page number to choose the desired set using modulo-indexing, and use LRU
//! replacement." Entries of different page sizes coexist in one array (as in
//! Haswell's L2 TLB, which holds 4 KiB and 2 MiB translations concurrently);
//! each is indexed by its own page-size-granular VPN and tagged with its
//! size, so same-frame-index pages of different sizes never alias.

use crate::entry::TlbEntry;
use crate::replacement::{ReplacementPolicy, ReplacementState};
use nocstar_stats::counter::HitMiss;
use nocstar_types::{Asid, VirtPageNum};

#[derive(Debug, Clone)]
struct Way {
    entry: TlbEntry,
    inserted: u64,
    used: u64,
}

/// A set-associative array of [`TlbEntry`]s.
///
/// # Examples
///
/// ```
/// use nocstar_tlb::set_assoc::SetAssocTlb;
/// use nocstar_tlb::entry::TlbEntry;
/// use nocstar_tlb::replacement::ReplacementPolicy;
/// use nocstar_types::{Asid, PageSize, PhysPageNum, VirtPageNum};
///
/// let mut tlb = SetAssocTlb::new(1024, 8, ReplacementPolicy::Lru);
/// let vpn = VirtPageNum::new(42, PageSize::Size4K);
/// let asid = Asid::new(1);
/// assert!(tlb.lookup(asid, vpn).is_none());
/// tlb.insert(TlbEntry::new(asid, vpn, PhysPageNum::new(7, PageSize::Size4K)));
/// assert_eq!(tlb.lookup(asid, vpn).unwrap().ppn().number(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTlb {
    sets: Vec<Vec<Way>>,
    ways: usize,
    /// Valid entries over all sets, so a flush of an empty array is free.
    valid: usize,
    state: ReplacementState,
    stats: HitMiss,
    index_divisor: u64,
}

impl SetAssocTlb {
    /// Builds an array with `entries` total entries and `ways` associativity.
    ///
    /// A fully-associative array is `ways == entries`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `ways` is zero, or `ways` does not
    /// divide `entries`.
    pub fn new(entries: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(entries > 0 && ways > 0, "TLB dimensions must be nonzero");
        assert_eq!(
            entries % ways,
            0,
            "ways ({ways}) must divide total entries ({entries})"
        );
        let num_sets = entries / ways;
        Self {
            sets: (0..num_sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            valid: 0,
            state: ReplacementState::new(policy),
            stats: HitMiss::new(),
            index_divisor: 1,
        }
    }

    /// Sets the index divisor: set selection uses `(vpn / divisor) % sets`.
    ///
    /// A shared slice/bank that receives only VPNs congruent to its own id
    /// modulo the slice count must divide the stripe bits out first;
    /// otherwise only `sets / stride` of its sets are ever used and most of
    /// its capacity is dead (the classic stripe/index aliasing pathology).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn set_index_divisor(&mut self, divisor: u64) {
        assert!(divisor > 0, "index divisor must be nonzero");
        self.index_divisor = divisor;
    }

    /// Total entry capacity.
    pub fn entries(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.state.policy()
    }

    #[inline]
    fn set_index(&self, vpn: VirtPageNum) -> usize {
        ((vpn.number() / self.index_divisor) % self.sets.len() as u64) as usize
    }

    /// Looks up a translation, updating recency and hit/miss statistics.
    pub fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let set = self.set_index(vpn);
        let stamp = self.state.tick();
        let found = self.sets[set]
            .iter_mut()
            .find(|w| w.entry.matches(asid, vpn));
        match found {
            Some(way) => {
                way.used = stamp;
                self.stats.hit();
                Some(way.entry)
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    /// Looks up a translation, updating recency but recording **no**
    /// hit/miss statistics — the functional fast-forward entry point
    /// (`SAMPLING.md §2`): contents and LRU order stay warm while
    /// measurement statistics stay untouched.
    pub fn touch(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let set = self.set_index(vpn);
        let stamp = self.state.tick();
        self.sets[set]
            .iter_mut()
            .find(|w| w.entry.matches(asid, vpn))
            .map(|way| {
                way.used = stamp;
                way.entry
            })
    }

    /// Looks up a translation without touching recency or statistics
    /// (used by snooping and verification paths).
    pub fn probe(&self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let set = self.set_index(vpn);
        self.sets[set]
            .iter()
            .find(|w| w.entry.matches(asid, vpn))
            .map(|w| w.entry)
    }

    /// Inserts a translation, returning the evicted entry if the set was
    /// full. Re-inserting an existing (asid, vpn) pair refreshes it in
    /// place and returns `None`.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_index(entry.vpn());
        let stamp = self.state.tick();
        if let Some(way) = self.sets[set]
            .iter_mut()
            .find(|w| w.entry.matches(entry.asid(), entry.vpn()))
        {
            way.entry = entry;
            way.used = stamp;
            return None;
        }
        if self.sets[set].len() < self.ways {
            self.sets[set].push(Way {
                entry,
                inserted: stamp,
                used: stamp,
            });
            self.valid += 1;
            return None;
        }
        let victim = self
            .state
            .victim(self.sets[set].iter().map(|w| (w.inserted, w.used)));
        let evicted = std::mem::replace(
            &mut self.sets[set][victim],
            Way {
                entry,
                inserted: stamp,
                used: stamp,
            },
        );
        Some(evicted.entry)
    }

    /// Invalidates one translation; returns whether it was present.
    pub fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        let set = self.set_index(vpn);
        let before = self.sets[set].len();
        self.sets[set].retain(|w| !w.entry.matches(asid, vpn));
        let dropped = before - self.sets[set].len();
        self.valid -= dropped;
        dropped != 0
    }

    /// Invalidates all non-global translations of an address space;
    /// returns how many were dropped.
    pub fn invalidate_asid(&mut self, asid: Asid) -> usize {
        self.drop_where(|w| !w.entry.is_global() && w.entry.asid() == asid)
    }

    /// Flushes all non-global translations (an x86 CR3 write); returns how
    /// many were dropped.
    pub fn flush_non_global(&mut self) -> usize {
        self.drop_where(|w| !w.entry.is_global())
    }

    /// Flushes everything, including global translations.
    pub fn flush_all(&mut self) -> usize {
        self.drop_where(|_| true)
    }

    /// Drops every entry `doomed` selects; returns how many. An empty
    /// array returns at once instead of scanning every set.
    fn drop_where(&mut self, doomed: impl Fn(&Way) -> bool) -> usize {
        if self.valid == 0 {
            return 0;
        }
        let mut dropped = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|w| !doomed(w));
            dropped += before - set.len();
        }
        self.valid -= dropped;
        dropped
    }

    /// Number of valid entries currently cached.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Iterates over all currently valid entries (set order).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.sets.iter().flatten().map(|w| &w.entry)
    }

    /// Hit/miss statistics accumulated by [`lookup`](Self::lookup).
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Clears accumulated statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HitMiss::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::{PageSize, PhysPageNum};
    use proptest::prelude::*;

    fn e4k(asid: u16, vpn: u64) -> TlbEntry {
        TlbEntry::new(
            Asid::new(asid),
            VirtPageNum::new(vpn, PageSize::Size4K),
            PhysPageNum::new(vpn ^ 0xabc, PageSize::Size4K),
        )
    }

    fn v4k(vpn: u64) -> VirtPageNum {
        VirtPageNum::new(vpn, PageSize::Size4K)
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 100));
        assert!(tlb.lookup(Asid::new(1), v4k(100)).is_some());
        assert!(tlb.lookup(Asid::new(1), v4k(101)).is_none());
        assert_eq!(tlb.stats().hits(), 1);
        assert_eq!(tlb.stats().misses(), 1);
    }

    #[test]
    fn touch_updates_recency_but_not_stats() {
        // 4 entries, 2 ways => 2 sets. VPNs 0,2,4 map to set 0.
        let mut tlb = SetAssocTlb::new(4, 2, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 0));
        tlb.insert(e4k(1, 2));
        // touch vpn 0 so vpn 2 becomes LRU — same effect as lookup...
        assert!(tlb.touch(Asid::new(1), v4k(0)).is_some());
        assert!(tlb.touch(Asid::new(1), v4k(99)).is_none());
        // ...but without recording any statistics.
        assert_eq!(tlb.stats().accesses(), 0);
        let evicted = tlb.insert(e4k(1, 4)).expect("set was full");
        assert_eq!(evicted.vpn().number(), 2);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 5));
        assert!(tlb.probe(Asid::new(1), v4k(5)).is_some());
        assert_eq!(tlb.stats().accesses(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_a_set() {
        // 4 entries, 2 ways => 2 sets. VPNs 0,2,4 all map to set 0.
        let mut tlb = SetAssocTlb::new(4, 2, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 0));
        tlb.insert(e4k(1, 2));
        // Touch vpn 0 so vpn 2 becomes LRU.
        assert!(tlb.lookup(Asid::new(1), v4k(0)).is_some());
        let evicted = tlb.insert(e4k(1, 4)).expect("set was full");
        assert_eq!(evicted.vpn().number(), 2);
        assert!(tlb.probe(Asid::new(1), v4k(0)).is_some());
        assert!(tlb.probe(Asid::new(1), v4k(4)).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut tlb = SetAssocTlb::new(4, 2, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 0));
        let updated = TlbEntry::new(
            Asid::new(1),
            v4k(0),
            PhysPageNum::new(999, PageSize::Size4K),
        );
        assert!(tlb.insert(updated).is_none());
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.probe(Asid::new(1), v4k(0)).unwrap().ppn().number(), 999);
    }

    #[test]
    fn different_asids_do_not_alias() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 7));
        assert!(tlb.lookup(Asid::new(2), v4k(7)).is_none());
    }

    #[test]
    fn page_sizes_do_not_alias() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 7));
        let vpn_2m = VirtPageNum::new(7, PageSize::Size2M);
        assert!(tlb.lookup(Asid::new(1), vpn_2m).is_none());
    }

    #[test]
    fn invalidate_removes_exactly_one_translation() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 7));
        tlb.insert(e4k(1, 8));
        assert!(tlb.invalidate(Asid::new(1), v4k(7)));
        assert!(!tlb.invalidate(Asid::new(1), v4k(7)));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn asid_invalidation_spares_globals() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(e4k(1, 1));
        tlb.insert(e4k(2, 2));
        tlb.insert(TlbEntry::new_global(
            v4k(3),
            PhysPageNum::new(3, PageSize::Size4K),
        ));
        assert_eq!(tlb.invalidate_asid(Asid::new(1)), 1);
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.flush_non_global(), 1);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.flush_all(), 1);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn fully_associative_uses_whole_capacity_for_one_hot_set() {
        let mut tlb = SetAssocTlb::new(4, 4, ReplacementPolicy::Lru);
        for i in 0..4 {
            tlb.insert(e4k(1, i * 64)); // all map to set 0 of 1
        }
        assert_eq!(tlb.occupancy(), 4);
    }

    #[test]
    fn index_divisor_spreads_strided_vpns_over_all_sets() {
        // A slice in a 16-slice system only sees vpn % 16 == 3. Without a
        // divisor, those pages map to sets {3, 19, 35, ...} — a fraction of
        // the array. With divisor 16, consecutive homed pages fill
        // consecutive sets and the whole capacity is usable.
        let mut aliased = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        let mut divided = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        divided.set_index_divisor(16);
        for k in 0..64u64 {
            let vpn = 3 + 16 * k;
            aliased.insert(e4k(1, vpn));
            divided.insert(e4k(1, vpn));
        }
        // 64 entries inserted: the divided slice holds all of them; the
        // aliased one thrashes a single set per 16-page stride.
        assert_eq!(divided.occupancy(), 64);
        assert!(aliased.occupancy() < 64 / 2);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_ways_rejected() {
        let _ = SetAssocTlb::new(10, 4, ReplacementPolicy::Lru);
    }

    proptest! {
        /// Occupancy never exceeds capacity and lookups after insert always
        /// hit until an eviction could have occurred.
        #[test]
        fn prop_occupancy_bounded(vpns in prop::collection::vec(0u64..10_000, 0..300)) {
            let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
            for &vpn in &vpns {
                tlb.insert(e4k(1, vpn));
                prop_assert!(tlb.occupancy() <= tlb.entries());
                // The just-inserted entry is always resident.
                prop_assert!(tlb.probe(Asid::new(1), v4k(vpn)).is_some());
            }
        }

        /// The same trace replayed against FIFO and Random keeps the same
        /// residency invariants (policy only changes *which* entry leaves).
        #[test]
        fn prop_all_policies_respect_capacity(
            vpns in prop::collection::vec(0u64..1000, 1..200),
            policy_idx in 0usize..3,
        ) {
            let policy = [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ][policy_idx];
            let mut tlb = SetAssocTlb::new(16, 4, policy);
            let mut inserted = 0u64;
            let mut evicted = 0u64;
            for &vpn in &vpns {
                if tlb.probe(Asid::new(1), v4k(vpn)).is_none() {
                    inserted += 1;
                }
                if tlb.insert(e4k(1, vpn)).is_some() {
                    evicted += 1;
                }
            }
            prop_assert_eq!(tlb.occupancy() as u64, inserted - evicted);
        }

        /// The valid-entry count that lets a flush skip an empty array
        /// equals `occupancy()` after any sequence of inserts (global or
        /// not, refreshing or evicting), invalidations and flushes, under
        /// every policy.
        #[test]
        fn prop_valid_count_tracks_occupancy(
            policy_idx in 0usize..3,
            ops in prop::collection::vec((0u8..6, 1u16..4, 0u64..48), 1..300),
        ) {
            let policy = [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ][policy_idx];
            let mut tlb = SetAssocTlb::new(16, 4, policy);
            for (op, asid, vpn) in ops {
                match op {
                    0 | 1 => {
                        tlb.insert(e4k(asid, vpn));
                    }
                    2 => {
                        tlb.insert(TlbEntry::new_global(
                            v4k(vpn),
                            PhysPageNum::new(vpn, PageSize::Size4K),
                        ));
                    }
                    3 => {
                        tlb.invalidate(Asid::new(asid), v4k(vpn));
                    }
                    4 => {
                        tlb.invalidate_asid(Asid::new(asid));
                    }
                    _ if vpn % 2 == 0 => {
                        tlb.flush_non_global();
                    }
                    _ => {
                        tlb.flush_all();
                    }
                }
                prop_assert_eq!(tlb.valid, tlb.occupancy());
            }
        }

        /// Working sets no larger than one set's associativity never evict.
        #[test]
        fn prop_small_working_set_never_misses_twice(base in 0u64..1000) {
            let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
            let sets = tlb.num_sets() as u64;
            // 4 pages mapping to the same set (stride = num_sets).
            let pages: Vec<u64> = (0..4).map(|i| base + i * sets).collect();
            for &p in &pages {
                tlb.insert(e4k(1, p));
            }
            tlb.reset_stats();
            for _ in 0..8 {
                for &p in &pages {
                    prop_assert!(tlb.lookup(Asid::new(1), v4k(p)).is_some());
                }
            }
            prop_assert_eq!(tlb.stats().misses(), 0);
        }
    }
}
