//! The TLB array as it was before its ways moved into one zero-initialised
//! block: a `Vec` of 56-byte ways per set, each with both an insertion and
//! a last-use stamp. Kept as it was, minus its unit tests and with its
//! victim call handing over the policy's one stamp per way, so the flat
//! [`SetAssocTlb`](super::SetAssocTlb) can be checked against it return
//! value for return value; see the differential property tests in
//! `set_assoc.rs`. It shares [`ReplacementState`] with the code under
//! test, so it cannot catch a change to the victim rule itself; the
//! pinned victim digests in `tests/replacement_pin.rs` do.

#![cfg(test)]

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

/// The per-set `Vec<Vec<Way>>` array.
#[derive(Debug, Clone)]
pub struct Reference {
    sets: Vec<Vec<Way>>,
    ways: usize,
    /// Valid entries over all sets, so a flush of an empty array is free.
    valid: usize,
    state: ReplacementState,
    stats: HitMiss,
    index_divisor: u64,
}

impl Reference {
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
        let policy = self.state.policy();
        let victim = self
            .state
            .victim(self.sets[set].iter().map(|w| match policy {
                ReplacementPolicy::Fifo => w.inserted,
                ReplacementPolicy::Lru | ReplacementPolicy::Random => w.used,
            }));
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
}
