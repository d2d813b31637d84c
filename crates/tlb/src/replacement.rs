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

    /// A fresh timestamp; later calls return strictly larger values.
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Whether a hit or a refresh renews a way's stamp. Only LRU's stamp
    /// is the last use; FIFO's is the fill, and Random reads none.
    #[inline]
    pub(crate) fn renews_on_use(&self) -> bool {
        self.policy == ReplacementPolicy::Lru
    }

    /// Picks the victim way given each way's stamp, in way order: the
    /// last use under LRU, the fill under FIFO, ignored under Random. All
    /// ways must be occupied. Ties go to the lowest way.
    #[expect(
        clippy::expect_used,
        reason = "stamps is non-empty, a caller invariant (debug_assert above)"
    )]
    pub(crate) fn victim(&mut self, stamps: impl ExactSizeIterator<Item = u64>) -> usize {
        debug_assert!(stamps.len() > 0);
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                stamps
                    .enumerate()
                    .min_by_key(|&(_, stamp)| stamp)
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
    fn lru_and_fifo_evict_the_smallest_stamp() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let mut st = ReplacementState::new(policy);
            assert_eq!(st.victim([10, 3, 7].into_iter()), 1);
            assert_eq!(
                st.victim([4, 9, 4].into_iter()),
                0,
                "ties go to the lowest way"
            );
        }
    }

    #[test]
    fn only_lru_renews_stamps_on_use() {
        let renews = |policy| ReplacementState::new(policy).renews_on_use();
        assert!(renews(ReplacementPolicy::Lru));
        assert!(!renews(ReplacementPolicy::Fifo));
        assert!(!renews(ReplacementPolicy::Random));
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random);
        let mut b = ReplacementState::new(ReplacementPolicy::Random);
        let stamps = [0; 8];
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
