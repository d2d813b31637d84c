//! A set-associative TLB array with modulo indexing.
//!
//! Paper §III-E: "L1 and L2 TLBs use the lower-order bits of the virtual
//! page number to choose the desired set using modulo-indexing, and use LRU
//! replacement." Entries of different page sizes coexist in one array (as in
//! Haswell's L2 TLB, which holds 4 KiB and 2 MiB translations concurrently);
//! each is indexed by its own page-size-granular VPN and tagged with its
//! size, so same-frame-index pages of different sizes never alias.
//!
//! All ways of all sets live in one zero-initialised block of 24-byte
//! integer ways, set-major, plus a per-set count of valid ways (`DESIGN.md`
//! §7, "How a TLB array is laid out"). Construction is two zeroed
//! allocations whatever the set count, so pages of sets no run touches are
//! never written.

mod reference;

use crate::entry::TlbEntry;
use crate::replacement::{ReplacementPolicy, ReplacementState};
use nocstar_stats::counter::HitMiss;
use nocstar_types::{Asid, PageSize, PhysPageNum, VirtPageNum};

/// One way: `[vpn, tag, stamp]`. `tag` packs the ASID (bits 0–15), the
/// page-size code (bits 16–17), the global bit (bit 18) and the PPN (bits
/// 19–63); its low 19 bits are the way's `meta`. `stamp` is the one stamp
/// the replacement policy reads: the last use under LRU, the fill under
/// FIFO, and nothing under Random.
type Way = [u64; 3];

const VPN: usize = 0;
const TAG: usize = 1;
const STAMP: usize = 2;

const ASID_MASK: u64 = 0xffff;
const SIZE_SHIFT: u32 = 16;
const GLOBAL: u64 = 1 << 18;
const PPN_SHIFT: u32 = 19;
/// The `meta` bits of a tag: ASID, page-size code and global bit.
const META_MASK: u64 = (1 << PPN_SHIFT) - 1;
/// The largest PPN a way holds, 2^45 − 1.
const MAX_PPN: u64 = u64::MAX >> PPN_SHIFT;

/// The page-size field of `meta` for `size`.
#[inline]
fn size_bits(size: PageSize) -> u64 {
    let code = match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    code << SIZE_SHIFT
}

/// The `tag` word of `entry`.
///
/// # Panics
///
/// Panics if `entry`'s PPN exceeds [`MAX_PPN`].
#[inline]
fn tag(entry: TlbEntry) -> u64 {
    let ppn = entry.ppn().number();
    assert!(ppn <= MAX_PPN, "PPN {ppn:#x} exceeds a TLB way's 45 bits");
    let global = if entry.is_global() { GLOBAL } else { 0 };
    u64::from(entry.asid().value()) | size_bits(entry.page_size()) | global | ppn << PPN_SHIFT
}

#[inline]
fn decode(way: &Way) -> TlbEntry {
    let tag = way[TAG];
    let size = PageSize::ALL[((tag >> SIZE_SHIFT) & 3) as usize];
    TlbEntry::from_parts(
        Asid::new((tag & ASID_MASK) as u16),
        VirtPageNum::new(way[VPN], size),
        PhysPageNum::new(tag >> PPN_SHIFT, size),
        tag & GLOBAL != 0,
    )
}

/// The match key of one `(asid, vpn)` probe, built once per call:
/// [`TlbEntry::matches`] over encoded ways. A way matches when its VPN is
/// equal and its `meta` is either `own` (same ASID and size, not global)
/// or, ASID aside, `global` (same size, global).
#[derive(Clone, Copy)]
struct Key {
    vpn: u64,
    own: u64,
    global: u64,
}

impl Key {
    #[inline]
    fn new(asid: Asid, vpn: VirtPageNum) -> Self {
        let size = size_bits(vpn.page_size());
        Self {
            vpn: vpn.number(),
            own: u64::from(asid.value()) | size,
            global: size | GLOBAL,
        }
    }

    #[inline]
    fn matches(self, way: &Way) -> bool {
        let meta = way[TAG] & META_MASK;
        way[VPN] == self.vpn && (meta == self.own || meta & !ASID_MASK == self.global)
    }
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
    /// Every way of every set: set `s` owns `slots[s * ways..(s + 1) * ways]`,
    /// and its valid ways are the first `lens[s]` of them in fill order (a
    /// replacement takes its victim's place). Removals compact a set in
    /// place and keep that order, which Random's way index and a lookup's
    /// first match both depend on.
    slots: Vec<Way>,
    /// Valid ways per set.
    lens: Vec<u32>,
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
        assert!(u32::try_from(ways).is_ok(), "too many ways ({ways})");
        Self {
            slots: vec![[0; 3]; entries],
            lens: vec![0; entries / ways],
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
        self.slots.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lens.len()
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.state.policy()
    }

    #[inline]
    fn set_index(&self, vpn: VirtPageNum) -> usize {
        ((vpn.number() / self.index_divisor) % self.lens.len() as u64) as usize
    }

    /// The valid ways of `set`.
    #[inline]
    fn valid_ways(&self, set: usize) -> &[Way] {
        let base = set * self.ways;
        &self.slots[base..base + self.lens[set] as usize]
    }

    /// The slot of the first valid way of `set` that `key` matches.
    #[inline]
    fn find_in(&self, set: usize, key: Key) -> Option<usize> {
        self.valid_ways(set)
            .iter()
            .position(|w| key.matches(w))
            .map(|i| set * self.ways + i)
    }

    /// The slot of `(asid, vpn)`'s entry, if cached.
    #[inline]
    fn find(&self, asid: Asid, vpn: VirtPageNum) -> Option<usize> {
        self.find_in(self.set_index(vpn), Key::new(asid, vpn))
    }

    /// Looks up a translation, updating recency and hit/miss statistics.
    pub fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let found = self.touch(asid, vpn);
        match found {
            Some(_) => self.stats.hit(),
            None => self.stats.miss(),
        }
        found
    }

    /// Looks up a translation, updating recency but recording **no**
    /// hit/miss statistics — the functional fast-forward entry point
    /// (`SAMPLING.md §2`): contents and LRU order stay warm while
    /// measurement statistics stay untouched.
    pub fn touch(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let stamp = self.state.tick();
        let slot = self.find(asid, vpn)?;
        let renew = self.state.renews_on_use();
        let way = &mut self.slots[slot];
        if renew {
            way[STAMP] = stamp;
        }
        Some(decode(way))
    }

    /// Looks up a translation without touching recency or statistics
    /// (used by snooping and verification paths).
    pub fn probe(&self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        self.find(asid, vpn).map(|slot| decode(&self.slots[slot]))
    }

    /// Inserts a translation, returning the evicted entry if the set was
    /// full. Re-inserting an existing (asid, vpn) pair refreshes it in
    /// place and returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if the entry's PPN is 2^45 or more: a way keeps the PPN in
    /// the 45 bits above its ASID, page size and global bit. The
    /// simulator's page tables stop at 2^31 − 2 frames.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let tag = tag(entry);
        let set = self.set_index(entry.vpn());
        let stamp = self.state.tick();
        if let Some(slot) = self.find_in(set, Key::new(entry.asid(), entry.vpn())) {
            let renew = self.state.renews_on_use();
            let way = &mut self.slots[slot];
            way[TAG] = tag;
            if renew {
                way[STAMP] = stamp;
            }
            return None;
        }
        let way = [entry.vpn().number(), tag, stamp];
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        if len < self.ways {
            self.slots[base + len] = way;
            self.lens[set] += 1;
            self.valid += 1;
            return None;
        }
        let full = &self.slots[base..base + len];
        let victim = base + self.state.victim(full.iter().map(|w| w[STAMP]));
        let evicted = decode(&self.slots[victim]);
        self.slots[victim] = way;
        Some(evicted)
    }

    /// Invalidates one translation; returns whether it was present.
    pub fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        let key = Key::new(asid, vpn);
        let dropped = self.retain_in(self.set_index(vpn), |w| !key.matches(w));
        self.valid -= dropped;
        dropped != 0
    }

    /// Invalidates all non-global translations of an address space;
    /// returns how many were dropped.
    pub fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let own = u64::from(asid.value());
        self.drop_where(|w| w[TAG] & (GLOBAL | ASID_MASK) == own)
    }

    /// Flushes all non-global translations (an x86 CR3 write); returns how
    /// many were dropped.
    pub fn flush_non_global(&mut self) -> usize {
        self.drop_where(|w| w[TAG] & GLOBAL == 0)
    }

    /// Flushes everything, including global translations.
    pub fn flush_all(&mut self) -> usize {
        let dropped = self.valid;
        if dropped != 0 {
            self.lens.fill(0);
            self.valid = 0;
        }
        dropped
    }

    /// Drops every entry `doomed` selects; returns how many. An empty
    /// array returns at once instead of scanning every set.
    fn drop_where(&mut self, doomed: impl Fn(&Way) -> bool) -> usize {
        if self.valid == 0 {
            return 0;
        }
        let mut dropped = 0;
        for set in 0..self.lens.len() {
            if self.lens[set] != 0 {
                dropped += self.retain_in(set, |w| !doomed(w));
            }
        }
        self.valid -= dropped;
        dropped
    }

    /// Keeps the valid ways of `set` that `keep` selects, compacted to the
    /// front of the set in their old order; returns how many were dropped.
    /// The caller settles `valid`.
    #[inline]
    fn retain_in(&mut self, set: usize, keep: impl Fn(&Way) -> bool) -> usize {
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let set_ways = &mut self.slots[base..base + len];
        let Some(first) = set_ways.iter().position(|w| !keep(w)) else {
            return 0;
        };
        let mut kept = first;
        for i in first + 1..len {
            if keep(&set_ways[i]) {
                set_ways[kept] = set_ways[i];
                kept += 1;
            }
        }
        self.lens[set] = kept as u32;
        len - kept
    }

    /// Number of valid entries currently cached.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Iterates over all currently valid entries (set order, then fill
    /// order within a set).
    pub fn iter(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        (0..self.lens.len()).flat_map(move |set| self.valid_ways(set).iter().map(decode))
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
    fn widest_fields_round_trip_through_a_way() {
        // Every field at its limit: the ASID's 16 bits, the 1 GiB size
        // code, the global bit, a full 64-bit VPN and a 45-bit PPN.
        let size = PageSize::Size1G;
        let vpn = VirtPageNum::new(u64::MAX, size);
        let widest = TlbEntry::from_parts(
            Asid::new(0xffff),
            vpn,
            PhysPageNum::new(MAX_PPN, size),
            true,
        );
        assert_eq!(MAX_PPN, (1 << 45) - 1);
        assert_eq!(decode(&[vpn.number(), tag(widest), 0]), widest);
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        assert_eq!(tlb.insert(widest), None);
        assert_eq!(tlb.probe(Asid::new(0xffff), vpn), Some(widest));
        assert_eq!(tlb.lookup(Asid::new(3), vpn), Some(widest), "global");
        assert!(tlb.iter().eq([widest]));
        // A full PPN field leaves the meta bits alone: the ASID and size
        // still select, and the non-global twin is dropped by its ASID.
        let own = TlbEntry::new(
            Asid::new(0xffff),
            VirtPageNum::new(u64::MAX, PageSize::Size4K),
            PhysPageNum::new(MAX_PPN, PageSize::Size4K),
        );
        tlb.insert(own);
        assert_eq!(tlb.probe(Asid::new(0xffff), own.vpn()), Some(own));
        assert_eq!(tlb.probe(Asid::new(0xfffe), own.vpn()), None);
        assert_eq!(tlb.invalidate_asid(Asid::new(0xffff)), 1);
        assert!(tlb.iter().eq([widest]));
    }

    #[test]
    #[should_panic(expected = "exceeds a TLB way's 45 bits")]
    fn ppn_beyond_45_bits_is_rejected() {
        let mut tlb = SetAssocTlb::new(64, 4, ReplacementPolicy::Lru);
        tlb.insert(TlbEntry::new(
            Asid::new(1),
            v4k(1),
            PhysPageNum::new(1 << 45, PageSize::Size4K),
        ));
    }

    #[test]
    fn fifo_keeps_the_fill_stamp_across_hits_and_refreshes() {
        // 4 entries, 2 ways => 2 sets. VPNs 0, 2 and 4 map to set 0.
        let mut tlb = SetAssocTlb::new(4, 2, ReplacementPolicy::Fifo);
        tlb.insert(e4k(1, 0));
        tlb.insert(e4k(1, 2));
        assert!(tlb.lookup(Asid::new(1), v4k(0)).is_some());
        assert!(tlb.insert(e4k(1, 0)).is_none(), "refresh in place");
        let evicted = tlb.insert(e4k(1, 4)).expect("set was full");
        assert_eq!(evicted.vpn().number(), 0, "oldest fill leaves first");
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

    /// One differential case: `(policy, ways, sets, index divisor, ops)`.
    /// Each op is `(kind, asid, page draw, page-size draw)`; see
    /// [`check_against_reference`] for what each kind does.
    type Case = ((usize, usize, usize, u64), Vec<(u8, u16, u64, usize)>);

    fn cases() -> impl Strategy<Value = Case> {
        (
            (0usize..3, 1usize..=16, 1usize..=64, 1u64..=64),
            prop::collection::vec((0u8..64, 0u16..3, 0u64..u64::MAX, 0usize..8), 1..400),
        )
    }

    /// Runs `ops` on the flat array and on the per-set `Vec` reference
    /// side by side and demands the same return values (hits, refreshes
    /// and evicted entries), statistics and occupancy after every op, and
    /// the same entries in the same order after every removal and at the
    /// end. ASID 0 is the kernel's, so non-global kernel entries and
    /// global entries of the same page share a set.
    fn check_against_reference(case: Case) -> Result<(), TestCaseError> {
        let ((policy, ways, sets, divisor), ops) = case;
        let policy = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ][policy];
        let mut tlb = SetAssocTlb::new(sets * ways, ways, policy);
        let mut reference = reference::Reference::new(sets * ways, ways, policy);
        tlb.set_index_divisor(divisor);
        reference.set_index_divisor(divisor);
        // About one page per way, times three ASIDs and mostly 4 KiB pages:
        // enough reuse to hit, enough conflict to evict. Pages are spread
        // by the divisor so every set is reachable.
        let pool = (sets * ways) as u64;
        for (kind, asid, draw, size) in ops {
            let size = PageSize::ALL[size.saturating_sub(5)];
            let asid = Asid::new(asid);
            let vpn = VirtPageNum::new(draw % pool * divisor + (draw >> 60) % divisor, size);
            let ppn = PhysPageNum::new(draw >> 32, size);
            let removal = match kind {
                0..=11 => {
                    prop_assert_eq!(tlb.lookup(asid, vpn), reference.lookup(asid, vpn));
                    false
                }
                12..=17 => {
                    prop_assert_eq!(tlb.touch(asid, vpn), reference.touch(asid, vpn));
                    false
                }
                18..=21 => {
                    prop_assert_eq!(tlb.probe(asid, vpn), reference.probe(asid, vpn));
                    false
                }
                22..=45 => {
                    let e = TlbEntry::new(asid, vpn, ppn);
                    prop_assert_eq!(tlb.insert(e), reference.insert(e));
                    false
                }
                46..=49 => {
                    let e = TlbEntry::new_global(vpn, ppn);
                    prop_assert_eq!(tlb.insert(e), reference.insert(e));
                    false
                }
                50..=57 => {
                    prop_assert_eq!(tlb.invalidate(asid, vpn), reference.invalidate(asid, vpn));
                    true
                }
                58..=60 => {
                    prop_assert_eq!(tlb.invalidate_asid(asid), reference.invalidate_asid(asid));
                    true
                }
                61..=62 => {
                    prop_assert_eq!(tlb.flush_non_global(), reference.flush_non_global());
                    true
                }
                _ => {
                    prop_assert_eq!(tlb.flush_all(), reference.flush_all());
                    true
                }
            };
            prop_assert_eq!(tlb.stats(), reference.stats());
            prop_assert_eq!(tlb.occupancy(), reference.occupancy());
            prop_assert_eq!(tlb.valid, tlb.occupancy());
            if removal {
                prop_assert!(tlb.iter().eq(reference.iter().copied()));
            }
        }
        prop_assert!(tlb.iter().eq(reference.iter().copied()));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat array behaves exactly like the per-set `Vec` array it
        /// replaced, under every policy, geometry and index divisor.
        #[test]
        fn prop_flat_matches_reference(case in cases()) {
            check_against_reference(case)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        #[ignore = "nightly: 2,048 differential cases (ci.sh --nightly)"]
        fn prop_flat_matches_reference_nightly(case in cases()) {
            check_against_reference(case)?;
        }
    }
}
