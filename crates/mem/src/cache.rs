//! A set-associative, presence-only LRU cache model.
//!
//! Tracks only which lines are resident, in recency order, not data or
//! dirtiness: the simulator needs hit/miss outcomes and latencies, not
//! values, and models no write-back traffic. Lines are 64 bytes.

use nocstar_stats::counter::HitMiss;
use nocstar_types::time::Cycles;
use nocstar_types::PhysAddr;

/// Cache line size in bytes (all levels).
pub const LINE_BYTES: u64 = 64;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Haswell L1D: 32 KiB, 8-way, 4 cycles (paper §IV).
    pub fn haswell_l1d() -> Self {
        Self {
            capacity: 32 << 10,
            ways: 8,
            latency: Cycles::new(4),
        }
    }

    /// Haswell L2: 256 KiB, 8-way, 12 cycles (paper §IV).
    pub fn haswell_l2() -> Self {
        Self {
            capacity: 256 << 10,
            ways: 8,
            latency: Cycles::new(12),
        }
    }

    /// Haswell LLC: 2.5 MiB per core, 16-way, 50 cycles.
    ///
    /// The paper states 8 MiB per core; shipping Haswell server parts have
    /// 2.5 MiB/core. We use the real ratio because the simulator runs
    /// footprint-scaled workloads: an oversized LLC would keep every page-
    /// table leaf resident and hide the DRAM component of page walks that
    /// the paper's 2 TB footprints exhibit (see DESIGN.md).
    pub fn haswell_llc(cores: usize) -> Self {
        Self {
            capacity: (2 << 20) * cores as u64 + (cores as u64) * (512 << 10),
            ways: 16,
            latency: Cycles::new(50),
        }
    }
}

/// One level of cache: per set, `ways` tags in recency order.
///
/// Each set is `ways` contiguous `u32` tags, most recently used first. A
/// tag is `line / num_sets + 1`, so 0 marks an invalid way and a fresh
/// set is all zeros. A hit rotates its tag to the front; a miss shifts
/// the set right by one and writes the new tag at the front, dropping the
/// LRU tag or a trailing invalid way.
///
/// [`new`](Self::new) keeps every set in one flat array, for densely
/// touched levels (the private L1D and L2).
/// [`first_touch`](Self::first_touch) gives a set its block only when it
/// is first filled, for a large, sparsely touched level (the shared LLC):
/// the host then faults in pages for touched sets only, not for a
/// tens-of-MiB array in random order while the run is timed. Its
/// directory is filled in the same way, 1,024 sets' worth at a time, in
/// space reserved but not zeroed when the level is built, so building it
/// costs one small table whatever its size.
///
/// # Examples
///
/// ```
/// use nocstar_mem::cache::{Cache, CacheConfig};
/// use nocstar_types::PhysAddr;
///
/// let mut l1 = Cache::new(CacheConfig::haswell_l1d());
/// let pa = PhysAddr::new(0x1000);
/// assert!(!l1.access(pa)); // cold miss (fills the line)
/// assert!(l1.access(pa));  // now hits
/// assert!(l1.access(PhysAddr::new(0x1020))); // same 64B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: u64,
    sets: Sets,
    stats: HitMiss,
}

/// Sets per directory group of a [`first_touch`](Cache::first_touch)
/// cache: a group's 4 KiB of directory is zeroed on the first fill of any
/// of its sets.
const DIR_GROUP_SETS: usize = 1024;

/// Where a cache's sets live.
#[derive(Debug, Clone)]
enum Sets {
    /// Set `s` is `tags[s * ways..][..ways]`.
    Flat(Vec<u32>),
    /// `groups[s / DIR_GROUP_SETS]` is 0 while no set of set `s`'s group
    /// was filled, else 1 + the index of the group's `DIR_GROUP_SETS`
    /// directory entries in `dir`, appended zeroed on the group's first
    /// fill. Set `s`'s entry there is 0 while the set was never filled,
    /// else 1 + the index of its block in `pool`; a block is `ways` tags,
    /// appended zeroed on the set's first fill.
    FirstTouch {
        groups: Vec<u32>,
        dir: Vec<u32>,
        pool: Vec<u32>,
    },
}

impl Cache {
    /// Builds a cache level that stores all its sets in one flat array.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity smaller
    /// than one way of lines, or capacity not a multiple of `ways *
    /// LINE_BYTES`).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = Self::num_sets(config);
        Self {
            config,
            num_sets,
            sets: Sets::Flat(vec![0; num_sets as usize * config.ways]),
            stats: HitMiss::new(),
        }
    }

    /// Builds a cache level that allocates a set's tags on its first fill.
    /// Hits, misses, recency and statistics are those of [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics as [`new`](Self::new), or if the level has `u32::MAX` sets
    /// or more.
    pub fn first_touch(config: CacheConfig) -> Self {
        let num_sets = Self::num_sets(config);
        assert!(
            num_sets < u64::from(u32::MAX),
            "a first-touch cache indexes its sets' blocks with u32"
        );
        let groups = (num_sets as usize).div_ceil(DIR_GROUP_SETS);
        Self {
            config,
            num_sets,
            sets: Sets::FirstTouch {
                groups: vec![0; groups],
                // Reserved, not zeroed: a group is zeroed on its first
                // fill, and never moves.
                dir: Vec::with_capacity(groups * DIR_GROUP_SETS),
                pool: Vec::new(),
            },
            stats: HitMiss::new(),
        }
    }

    fn num_sets(config: CacheConfig) -> u64 {
        assert!(config.ways > 0, "cache needs at least one way");
        let lines = config.capacity / LINE_BYTES;
        assert!(
            lines >= config.ways as u64 && lines.is_multiple_of(config.ways as u64),
            "capacity must be a whole number of {}-way sets of {LINE_BYTES}B lines",
            config.ways
        );
        lines / config.ways as u64
    }

    /// Hit latency of this level.
    pub fn latency(&self) -> Cycles {
        self.config.latency
    }

    /// Accesses one physical address; returns whether it hit. A miss fills
    /// the line, evicting the set's LRU line.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is beyond the tag range, as [`probe`](Self::probe).
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        let hit = self.touch(pa);
        self.stats.record(hit);
        hit
    }

    /// [`access`](Self::access) without statistics: fills, evicts and
    /// updates recency identically but records no hit or miss — the
    /// functional-warming entry point for sampled fast-forward replay
    /// (`SAMPLING.md §2`).
    ///
    /// # Panics
    ///
    /// Panics if `pa` is beyond the tag range, as [`probe`](Self::probe).
    pub fn touch(&mut self, pa: PhysAddr) -> bool {
        let (index, tag) = self.locate(pa);
        let ways = self.config.ways;
        let set = match &mut self.sets {
            Sets::Flat(tags) => &mut tags[index * ways..][..ways],
            Sets::FirstTouch { groups, dir, pool } => {
                let group = &mut groups[index / DIR_GROUP_SETS];
                if *group == 0 {
                    dir.resize(dir.len() + DIR_GROUP_SETS, 0);
                    *group = (dir.len() / DIR_GROUP_SETS) as u32;
                }
                let entry =
                    &mut dir[(*group - 1) as usize * DIR_GROUP_SETS + index % DIR_GROUP_SETS];
                if *entry == 0 {
                    pool.resize(pool.len() + ways, 0);
                    // Fits: the constructor bounds the set count, and
                    // with it the block count, below `u32::MAX`.
                    *entry = (pool.len() / ways) as u32;
                }
                &mut pool[(*entry - 1) as usize * ways..][..ways]
            }
        };
        let found = set.iter().position(|&t| t == tag);
        // A hit moves its tag to the front; a miss shifts the whole set
        // right, dropping the last (LRU or invalid) way.
        let end = found.unwrap_or(set.len() - 1);
        set.copy_within(..end, 1);
        set[0] = tag;
        found.is_some()
    }

    /// The index of `pa`'s set and its tag.
    fn locate(&self, pa: PhysAddr) -> (usize, u32) {
        let line = pa.value() / LINE_BYTES;
        let tag = line / self.num_sets + 1;
        assert!(
            tag <= u64::from(u32::MAX),
            "{pa} is beyond the {}-set cache's 32-bit tag range",
            self.num_sets
        );
        ((line % self.num_sets) as usize, tag as u32)
    }

    /// Checks for presence without filling or updating recency.
    ///
    /// # Panics
    ///
    /// Panics if `pa`'s tag, `pa / LINE_BYTES / sets + 1`, does not fit
    /// in 32 bits: at or beyond 16 TiB for the 64-set Haswell L1D, further
    /// out for levels with more sets.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (index, tag) = self.locate(pa);
        let ways = self.config.ways;
        match &self.sets {
            Sets::Flat(tags) => tags[index * ways..][..ways].contains(&tag),
            Sets::FirstTouch { groups, dir, pool } => {
                let group = groups[index / DIR_GROUP_SETS] as usize;
                let entry = match group {
                    0 => 0,
                    g => dir[(g - 1) * DIR_GROUP_SETS + index % DIR_GROUP_SETS],
                };
                entry != 0 && pool[(entry - 1) as usize * ways..][..ways].contains(&tag)
            }
        }
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Clears statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HitMiss::new();
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        let (Sets::Flat(tags) | Sets::FirstTouch { pool: tags, .. }) = &self.sets;
        tags.iter().filter(|&&t| t != 0).count()
    }

    /// Number of sets holding tag storage: every set of a flat cache, the
    /// sets filled so far of a first-touch one.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> usize {
        match &self.sets {
            Sets::Flat(_) => self.num_sets as usize,
            Sets::FirstTouch { pool, .. } => pool.len() / self.config.ways,
        }
    }

    /// Number of directory groups allocated: 0 for a flat cache.
    #[cfg(test)]
    pub(crate) fn dir_groups(&self) -> usize {
        match &self.sets {
            Sets::Flat(_) => 0,
            Sets::FirstTouch { dir, .. } => dir.len() / DIR_GROUP_SETS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The stamp-based LRU this module used to implement, kept as the
    /// reference the recency-ordered sets must agree with: a global clock
    /// stamps every use, and a miss fills the lowest-index invalid way,
    /// else the way with the oldest stamp.
    struct Reference {
        ways: usize,
        num_sets: u64,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        stats: HitMiss,
    }

    const INVALID: u64 = u64::MAX;

    impl Reference {
        fn new(config: CacheConfig) -> Self {
            let lines = (config.capacity / LINE_BYTES) as usize;
            Self {
                ways: config.ways,
                num_sets: (lines / config.ways) as u64,
                tags: vec![INVALID; lines],
                stamps: vec![0; lines],
                clock: 0,
                stats: HitMiss::new(),
            }
        }

        fn access(&mut self, pa: PhysAddr) -> bool {
            let hit = self.touch(pa);
            self.stats.record(hit);
            hit
        }

        fn touch(&mut self, pa: PhysAddr) -> bool {
            let line = pa.value() / LINE_BYTES;
            let base = (line % self.num_sets) as usize * self.ways;
            self.clock += 1;
            if let Some(w) = (0..self.ways).find(|&w| self.tags[base + w] == line) {
                self.stamps[base + w] = self.clock;
                return true;
            }
            let victim = (0..self.ways)
                .min_by_key(|&w| {
                    if self.tags[base + w] == INVALID {
                        0
                    } else {
                        self.stamps[base + w].max(1)
                    }
                })
                .unwrap();
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        fn probe(&self, pa: PhysAddr) -> bool {
            let line = pa.value() / LINE_BYTES;
            let base = (line % self.num_sets) as usize * self.ways;
            self.tags[base..base + self.ways].contains(&line)
        }

        fn occupancy(&self) -> usize {
            self.tags.iter().filter(|&&t| t != INVALID).count()
        }
    }

    fn tiny() -> Cache {
        // 8 lines, 2 ways => 4 sets.
        Cache::new(CacheConfig {
            capacity: 8 * LINE_BYTES,
            ways: 2,
            latency: Cycles::new(4),
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let pa = PhysAddr::new(0x40);
        assert!(!c.access(pa));
        assert!(c.access(pa));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn same_line_different_offsets_share_one_line() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x100));
        assert!(c.access(PhysAddr::new(0x13f)));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = tiny(); // 4 sets; lines 0,4,8 map to set 0
        let line = |n: u64| PhysAddr::new(n * 4 * LINE_BYTES);
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // line 1 is now LRU
        c.access(line(2)); // evicts line 1
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(1)));
        assert!(c.probe(line(2)));
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert!(!c.probe(PhysAddr::new(0)));
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().accesses(), 0);
        c.access(PhysAddr::new(0));
        assert!(c.probe(PhysAddr::new(0)));
    }

    #[test]
    fn touch_fills_and_promotes_without_statistics() {
        let mut c = tiny();
        let pa = PhysAddr::new(0x40);
        assert!(!c.touch(pa)); // cold: fills the line
        assert!(c.touch(pa));
        assert_eq!(c.stats().accesses(), 0);
        // The touched line is genuinely resident for later timed accesses.
        assert!(c.access(pa));
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn touch_and_access_share_one_recency_order() {
        let mut c = tiny(); // 4 sets; lines 0,4,8 map to set 0
        let line = |n: u64| PhysAddr::new(n * 4 * LINE_BYTES);
        c.access(line(0));
        c.access(line(1));
        c.touch(line(0)); // line 1 is now LRU
        c.access(line(2)); // evicts line 1
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(1)));
    }

    #[test]
    fn haswell_configs_have_paper_latencies() {
        assert_eq!(
            Cache::new(CacheConfig::haswell_l1d()).latency(),
            Cycles::new(4)
        );
        assert_eq!(
            Cache::new(CacheConfig::haswell_l2()).latency(),
            Cycles::new(12)
        );
        assert_eq!(
            Cache::new(CacheConfig::haswell_llc(32)).latency(),
            Cycles::new(50)
        );
    }

    #[test]
    fn first_touch_allocates_one_zeroed_block_per_filled_set() {
        let config = CacheConfig {
            capacity: 1024 * 4 * LINE_BYTES, // 1024 sets, 4 ways
            ways: 4,
            latency: Cycles::new(1),
        };
        let mut c = Cache::first_touch(config);
        let line = |set: u64, tag: u64| PhysAddr::new((tag * 1024 + set) * LINE_BYTES);
        assert!(!c.probe(line(7, 0)));
        assert_eq!(c.blocks(), 0, "a probe allocates nothing");
        assert_eq!(c.dir_groups(), 0, "nor does building the level");
        assert!(!c.access(line(7, 0)));
        assert!(!c.touch(line(900, 2)));
        assert!(c.access(line(7, 0)));
        assert_eq!(c.blocks(), 2);
        // Each block starts empty: a second set holds only its own line.
        assert!(!c.probe(line(900, 0)));
        assert_eq!(c.occupancy(), 2);
        assert_eq!(Cache::new(config).blocks(), 1024);
    }

    #[test]
    fn first_touch_allocates_directory_groups_on_first_fill() {
        let sets = 3 * DIR_GROUP_SETS as u64 + 5;
        let config = CacheConfig {
            capacity: sets * 2 * LINE_BYTES,
            ways: 2,
            latency: Cycles::new(1),
        };
        let mut c = Cache::first_touch(config);
        let line = |set: u64, tag: u64| PhysAddr::new((tag * sets + set) * LINE_BYTES);
        // The last, partial group and the first: a probe allocates neither.
        let last = sets - 1;
        assert!(!c.probe(line(last, 0)));
        assert!(!c.access(line(last, 0)));
        assert_eq!(c.dir_groups(), 1);
        assert!(!c.touch(line(0, 1)));
        assert!(!c.access(line(DIR_GROUP_SETS as u64 - 1, 3)));
        assert_eq!(c.dir_groups(), 2, "sets 0 and 1023 share a group");
        // A group's other sets stay unfilled.
        assert!(!c.probe(line(1, 1)));
        assert!(c.probe(line(0, 1)) && c.probe(line(last, 0)));
        assert_eq!((c.blocks(), c.occupancy()), (3, 3));
    }

    #[test]
    #[should_panic(expected = "32-bit tag range")]
    fn address_beyond_tag_range_rejected() {
        // One set: the tag is the line number plus one, so the line at
        // `u32::MAX` needs a 33-bit tag.
        let mut c = Cache::new(CacheConfig {
            capacity: LINE_BYTES,
            ways: 1,
            latency: Cycles::new(1),
        });
        assert!(!c.access(PhysAddr::new((u64::from(u32::MAX) - 1) * LINE_BYTES)));
        c.access(PhysAddr::new(u64::from(u32::MAX) * LINE_BYTES));
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            capacity: 3 * LINE_BYTES,
            ways: 2,
            latency: Cycles::new(1),
        });
    }

    proptest! {
        /// Occupancy never exceeds capacity and a just-accessed line is
        /// always resident.
        #[test]
        fn prop_capacity_respected(addrs in prop::collection::vec(0u64..0x10_0000, 1..300)) {
            let mut c = Cache::new(CacheConfig {
                capacity: 64 * LINE_BYTES,
                ways: 4,
                latency: Cycles::new(1),
            });
            for &a in &addrs {
                let pa = PhysAddr::new(a);
                c.access(pa);
                prop_assert!(c.probe(pa));
                prop_assert!(c.occupancy() <= 64);
            }
            prop_assert_eq!(c.stats().accesses(), addrs.len() as u64);
        }

        /// Recency-ordered sets agree with the stamp-based reference on
        /// every `access`, `touch` and `probe` result, on occupancy and on
        /// statistics, for 1-, 2-, 8- and 16-way sets and set counts that
        /// are not powers of two (as the LLC's 2.5 MiB-per-core are not).
        #[test]
        fn prop_matches_stamp_lru_reference(
            ways in prop::sample::select(vec![1usize, 2, 8, 16]),
            sets in prop::sample::select(vec![1u64, 3, 5, 12, 40]),
            ops in prop::collection::vec((0u8..3, 0u64..1 << 20, 0u64..LINE_BYTES), 1..600),
        ) {
            let config = CacheConfig {
                capacity: sets * ways as u64 * LINE_BYTES,
                ways,
                latency: Cycles::new(1),
            };
            let (mut cache, mut reference) = (Cache::new(config), Reference::new(config));
            // Three lines per way and set: enough reuse to hit, enough
            // conflict to evict.
            let span = sets * ways as u64 * 3;
            for (op, line, offset) in ops {
                let pa = PhysAddr::new(line % span * LINE_BYTES + offset);
                match op {
                    0 => prop_assert_eq!(cache.access(pa), reference.access(pa)),
                    1 => prop_assert_eq!(cache.touch(pa), reference.touch(pa)),
                    _ => prop_assert_eq!(cache.probe(pa), reference.probe(pa)),
                }
                prop_assert_eq!(cache.occupancy(), reference.occupancy());
            }
            prop_assert_eq!(cache.stats(), reference.stats);
            for line in 0..span {
                let pa = PhysAddr::new(line * LINE_BYTES);
                prop_assert_eq!(cache.probe(pa), reference.probe(pa));
            }
        }

        /// The first-touch layout agrees with the flat one on a sparse
        /// footprint: most sets stay untouched, a probe of one allocates
        /// nothing, and each filled set holds exactly one block.
        #[test]
        fn prop_first_touch_matches_flat(case in sparse_cases()) {
            check_first_touch_against_flat(case)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        #[ignore = "nightly: 2,048 differential cases (ci.sh --nightly)"]
        fn prop_first_touch_matches_flat_nightly(case in sparse_cases()) {
            check_first_touch_against_flat(case)?;
        }
    }

    /// `(ways, sets, hot sets, ops)`: each op is `(kind, hot-set slot,
    /// tag, offset)`. Kinds 0–2 are `access`, `touch` and `probe` of a
    /// line in a hot set; kind 3 probes a line anywhere in the cache.
    type SparseCase = (usize, u64, Vec<u64>, Vec<(u8, usize, u64, u64)>);

    fn sparse_cases() -> impl Strategy<Value = SparseCase> {
        (
            prop::sample::select(vec![1usize, 2, 8, 16]),
            prop::sample::select(vec![7u64, 64, 1000, 4099]),
            prop::collection::vec(0u64..1 << 16, 1..6),
            prop::collection::vec((0u8..4, 0usize..6, 0u64..1 << 16, 0u64..LINE_BYTES), 1..400),
        )
    }

    fn check_first_touch_against_flat(
        (ways, sets, hot, ops): SparseCase,
    ) -> Result<(), TestCaseError> {
        let config = CacheConfig {
            capacity: sets * ways as u64 * LINE_BYTES,
            ways,
            latency: Cycles::new(1),
        };
        let (mut sparse, mut flat) = (Cache::first_touch(config), Cache::new(config));
        let mut filled = BTreeSet::new();
        // Three tags per way: enough reuse to hit, enough conflict to evict.
        let tags = 3 * ways as u64;
        for (kind, slot, tag, offset) in ops {
            let set = hot[slot % hot.len()] % sets;
            let pa = PhysAddr::new(((tag % tags) * sets + set) * LINE_BYTES + offset);
            match kind {
                0 => prop_assert_eq!(sparse.access(pa), flat.access(pa)),
                1 => prop_assert_eq!(sparse.touch(pa), flat.touch(pa)),
                2 => prop_assert_eq!(sparse.probe(pa), flat.probe(pa)),
                _ => {
                    let anywhere = PhysAddr::new(tag % (sets * tags) * LINE_BYTES);
                    prop_assert_eq!(sparse.probe(anywhere), flat.probe(anywhere));
                }
            }
            if kind < 2 {
                filled.insert(set);
            }
            prop_assert_eq!(sparse.occupancy(), flat.occupancy());
            prop_assert_eq!(sparse.blocks(), filled.len());
        }
        prop_assert_eq!(sparse.stats(), flat.stats());
        for &set in &hot {
            for tag in 0..tags {
                let pa = PhysAddr::new((tag * sets + set % sets) * LINE_BYTES);
                prop_assert_eq!(sparse.probe(pa), flat.probe(pa));
            }
        }
        Ok(())
    }

    proptest! {
        /// A working set that fits in one set's ways never misses after warmup.
        #[test]
        fn prop_resident_set_never_misses(seed in 0u64..1000) {
            let mut c = tiny(); // 4 sets, 2 ways
            let a = PhysAddr::new(seed * 4 * LINE_BYTES);
            let b = PhysAddr::new((seed + 1000) * 4 * LINE_BYTES); // same set
            c.access(a);
            c.access(b);
            c.reset_stats();
            for _ in 0..10 {
                c.access(a);
                c.access(b);
            }
            prop_assert_eq!(c.stats().misses(), 0);
        }
    }
}
