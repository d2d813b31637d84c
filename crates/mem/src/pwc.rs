//! The per-core paging-structure cache (PWC).
//!
//! x86 walkers cache upper-level page-table entries (PML4E/PDPTE/PDE) in
//! small dedicated structures, so a typical walk reads only the leaf PTE
//! from the memory hierarchy. Without this, every walk would pay four
//! dependent cache misses and walk latencies would be far above the
//! 20–40 cycles the paper measures on real systems (§V, Table III).
//!
//! Modelled as a small fully-associative LRU cache over upper-level PTE
//! physical addresses; a hit costs one cycle instead of a memory access.

use nocstar_stats::counter::HitMiss;
use nocstar_types::PhysAddr;

/// Default PWC capacity (upper-level PTEs), in line with the few dozen
/// paging-structure entries documented for recent x86 cores.
pub const DEFAULT_PWC_ENTRIES: usize = 32;

/// A per-core paging-structure cache.
///
/// # Examples
///
/// ```
/// use nocstar_mem::pwc::PteCache;
/// use nocstar_types::PhysAddr;
///
/// let mut pwc = PteCache::new(4);
/// let pte = PhysAddr::new(0x1000);
/// assert!(!pwc.access(pte)); // cold
/// assert!(pwc.access(pte));  // cached
/// ```
#[derive(Debug, Clone)]
pub struct PteCache {
    /// Cached PTE keys (`pa / 8`), most recently used first.
    keys: Vec<u64>,
    capacity: usize,
    stats: HitMiss,
}

impl PteCache {
    /// Builds a PWC holding `capacity` upper-level entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PWC needs at least one entry");
        Self {
            keys: Vec::with_capacity(capacity),
            capacity,
            stats: HitMiss::new(),
        }
    }

    /// Looks up the PTE at `pa`, filling on miss; returns whether it hit.
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        let hit = self.touch(pa);
        self.stats.record(hit);
        hit
    }

    /// [`access`](Self::access) without statistics: fills, evicts and
    /// updates recency identically but records no hit or miss — the
    /// functional-warming entry point for sampled fast-forward replay
    /// (`SAMPLING.md §2`).
    pub fn touch(&mut self, pa: PhysAddr) -> bool {
        let key = pa.value() / 8;
        let found = self.keys.iter().position(|&k| k == key);
        match found {
            Some(i) => self.keys[..=i].rotate_right(1),
            None => {
                // Drops the LRU entry when full.
                self.keys.truncate(self.capacity - 1);
                self.keys.insert(0, key);
            }
        }
        found.is_some()
    }

    /// Drops everything (context switch on a PCID-less OS).
    pub fn flush(&mut self) {
        self.keys.clear();
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stamp-based LRU this module used to implement, kept as the
    /// reference the recency-ordered keys must agree with: a clock stamps
    /// every use and a full cache replaces the entry with the oldest stamp.
    struct Reference {
        keys: Vec<u64>,
        stamps: Vec<u64>,
        capacity: usize,
        clock: u64,
    }

    impl Reference {
        fn touch(&mut self, pa: PhysAddr) -> bool {
            let key = pa.value() / 8;
            self.clock += 1;
            if let Some(i) = self.keys.iter().position(|&k| k == key) {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.keys.len() < self.capacity {
                self.keys.push(key);
                self.stamps.push(self.clock);
            } else {
                let victim = (0..self.keys.len())
                    .min_by_key(|&i| self.stamps[i])
                    .unwrap();
                self.keys[victim] = key;
                self.stamps[victim] = self.clock;
            }
            false
        }

        fn flush(&mut self) {
            self.keys.clear();
            self.stamps.clear();
        }
    }

    proptest! {
        /// Recency-ordered keys agree with the stamp-based reference on
        /// every `access` and `touch` result across flushes, and the
        /// statistics count exactly the timed accesses.
        #[test]
        fn prop_matches_stamp_lru_reference(
            capacity in prop::sample::select(vec![1usize, 2, 8, DEFAULT_PWC_ENTRIES]),
            ops in prop::collection::vec((0u8..20, 0u64..1 << 20), 1..600),
        ) {
            let mut pwc = PteCache::new(capacity);
            let mut reference = Reference {
                keys: Vec::new(),
                stamps: Vec::new(),
                capacity,
                clock: 0,
            };
            let mut stats = HitMiss::new();
            // Twice as many distinct PTEs as entries: hits and evictions.
            let span = capacity as u64 * 2;
            for (op, key) in ops {
                let pa = PhysAddr::new(key % span * 8);
                match op {
                    0 => {
                        pwc.flush();
                        reference.flush();
                    }
                    1..=9 => prop_assert_eq!(pwc.touch(pa), reference.touch(pa)),
                    _ => {
                        let hit = reference.touch(pa);
                        stats.record(hit);
                        prop_assert_eq!(pwc.access(pa), hit);
                    }
                }
            }
            prop_assert_eq!(pwc.stats(), stats);
        }
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let mut pwc = PteCache::new(2);
        let a = PhysAddr::new(0x8);
        let b = PhysAddr::new(0x10);
        let c = PhysAddr::new(0x18);
        pwc.access(a);
        pwc.access(b);
        pwc.access(a); // b is now LRU
        pwc.access(c); // evicts b
        assert!(pwc.access(a));
        assert!(!pwc.access(b));
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut pwc = PteCache::new(4);
        pwc.access(PhysAddr::new(0x8));
        pwc.flush();
        assert!(!pwc.access(PhysAddr::new(0x8)));
    }

    #[test]
    fn distinct_ptes_in_one_line_are_distinct_entries() {
        // The PWC caches entries, not 64-byte lines.
        let mut pwc = PteCache::new(4);
        pwc.access(PhysAddr::new(0x0));
        assert!(!pwc.access(PhysAddr::new(0x8)));
    }

    #[test]
    fn touch_fills_without_statistics() {
        let mut pwc = PteCache::new(4);
        let pte = PhysAddr::new(0x8);
        assert!(!pwc.touch(pte));
        assert!(pwc.touch(pte));
        assert_eq!(pwc.stats().hits() + pwc.stats().misses(), 0);
        // The touched entry is genuinely resident for later timed walks.
        assert!(pwc.access(pte));
        assert_eq!(pwc.stats().hits(), 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut pwc = PteCache::new(4);
        pwc.access(PhysAddr::new(0x8));
        pwc.access(PhysAddr::new(0x8));
        assert_eq!(pwc.stats().hits(), 1);
        assert_eq!(pwc.stats().misses(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = PteCache::new(0);
    }
}
