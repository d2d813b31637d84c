//! Replacement policies for set-associative arrays.
//!
//! The paper's TLBs use LRU (§III-E); FIFO and a deterministic pseudo-random
//! policy are provided for ablation.

/// Which way of a full set to evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the paper's choice).
    #[default]
    Lru,
    /// Evict the oldest-inserted way regardless of use.
    Fifo,
    /// Evict a pseudo-random way (deterministic xorshift stream).
    Random,
}

/// Per-array replacement state: a monotonic use/insert clock plus the RNG
/// state for [`ReplacementPolicy::Random`].
#[derive(Debug, Clone)]
pub(crate) struct ReplacementState {
    policy: ReplacementPolicy,
    clock: u64,
    rng: u64,
}

impl ReplacementState {
    pub(crate) fn new(policy: ReplacementPolicy) -> Self {
        Self {
            policy,
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub(crate) fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// A fresh timestamp; later calls return strictly larger values.
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Picks the victim way given each way's `(inserted_at, last_used_at)`
    /// stamps, in way order. All ways must be occupied. Ties go to the
    /// lowest way.
    pub(crate) fn victim(&mut self, stamps: impl ExactSizeIterator<Item = (u64, u64)>) -> usize {
        debug_assert!(stamps.len() > 0);
        match self.policy {
            ReplacementPolicy::Lru => {
                stamps
                    .enumerate()
                    .min_by_key(|(_, (_, used))| *used)
                    // nocstar-lint: allow(sim-unwrap): stamps is non-empty, a caller invariant (debug_assert above)
                    .expect("nonempty set")
                    .0
            }
            ReplacementPolicy::Fifo => {
                stamps
                    .enumerate()
                    .min_by_key(|(_, (inserted, _))| *inserted)
                    // nocstar-lint: allow(sim-unwrap): stamps is non-empty, a caller invariant (debug_assert above)
                    .expect("nonempty set")
                    .0
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                self.rng ^= self.rng >> 12;
                self.rng ^= self.rng << 25;
                self.rng ^= self.rng >> 27;
                (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % stamps.len() as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recently_used() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru);
        // way 1 used longest ago
        let stamps = [(1, 10), (2, 3), (3, 7)];
        assert_eq!(st.victim(stamps.into_iter()), 1);
    }

    #[test]
    fn fifo_picks_oldest_insert_even_if_recently_used() {
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo);
        let stamps = [(5, 100), (1, 200), (9, 50)];
        assert_eq!(st.victim(stamps.into_iter()), 1);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random);
        let mut b = ReplacementState::new(ReplacementPolicy::Random);
        let stamps = [(0, 0); 8];
        for _ in 0..100 {
            let va = a.victim(stamps.into_iter());
            assert_eq!(va, b.victim(stamps.into_iter()));
            assert!(va < 8);
        }
    }

    #[test]
    fn tick_is_strictly_monotonic() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru);
        let a = st.tick();
        let b = st.tick();
        assert!(b > a);
    }
}
