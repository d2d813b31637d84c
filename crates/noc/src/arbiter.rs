//! NOCSTAR's per-link arbiters (paper §III-B2).
//!
//! Each data link has an arbiter that grants the link to at most one
//! requesting core per cycle. To avoid livelock when two requests each
//! acquire only part of their path, arbiters share a *static priority
//! order* over cores — the globally highest-priority requester is
//! guaranteed to win every link it asks for. To avoid starvation, the
//! static order rotates round-robin every 1000 cycles.

use nocstar_types::time::Cycle;
use nocstar_types::CoreId;

/// The chip-wide rotating static priority order.
///
/// # Examples
///
/// ```
/// use nocstar_noc::arbiter::PriorityRotation;
/// use nocstar_types::{CoreId, Cycle};
///
/// let prio = PriorityRotation::new(4, 1000);
/// // In the first epoch core0 has top priority (rank 0).
/// assert_eq!(prio.rank(CoreId::new(0), Cycle::new(0)), 0);
/// // One epoch later the order has rotated: core1 is on top.
/// assert_eq!(prio.rank(CoreId::new(1), Cycle::new(1000)), 0);
/// assert_eq!(prio.rank(CoreId::new(0), Cycle::new(1000)), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityRotation {
    cores: usize,
    period: u64,
}

impl PriorityRotation {
    /// The paper's rotation period.
    pub const PAPER_PERIOD: u64 = 1000;

    /// A rotation over `cores` cores, rotating every `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `period` is zero.
    pub fn new(cores: usize, period: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(period > 0, "rotation period must be nonzero");
        Self { cores, period }
    }

    /// The rotation epoch containing `now` (increments every `period`
    /// cycles; each increment shifts the whole priority order by one).
    pub fn epoch(&self, now: Cycle) -> u64 {
        now.value() / self.period
    }

    /// The index of the core with rank 0 at time `now`; ranks rise with
    /// the core index from there, wrapping at the last core.
    pub fn rotation(&self, now: Cycle) -> usize {
        (now.value() / self.period) as usize % self.cores
    }

    /// The priority rank of `core` at time `now` — 0 is highest.
    pub fn rank(&self, core: CoreId, now: Cycle) -> usize {
        (core.index() + self.cores - self.rotation(now)) % self.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ranks_are_a_permutation_each_epoch() {
        let prio = PriorityRotation::new(8, 1000);
        for epoch in [0u64, 1, 7, 8, 123] {
            let now = Cycle::new(epoch * 1000);
            let mut ranks: Vec<usize> = (0..8).map(|i| prio.rank(CoreId::new(i), now)).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_core_eventually_gets_top_priority() {
        let prio = PriorityRotation::new(4, 1000);
        let mut topped = vec![false; 4];
        for epoch in 0..4u64 {
            let now = Cycle::new(epoch * 1000);
            for (i, top) in topped.iter_mut().enumerate() {
                if prio.rank(CoreId::new(i), now) == 0 {
                    *top = true;
                }
            }
        }
        assert!(topped.iter().all(|&t| t), "starvation: {topped:?}");
    }

    #[test]
    fn rank_is_stable_within_an_epoch() {
        let prio = PriorityRotation::new(4, 1000);
        let r0 = prio.rank(CoreId::new(2), Cycle::new(0));
        let r999 = prio.rank(CoreId::new(2), Cycle::new(999));
        assert_eq!(r0, r999);
        assert_ne!(r0, prio.rank(CoreId::new(2), Cycle::new(1000)));
    }

    proptest! {
        /// Exactly one core holds rank 0 at any time, and the mapping
        /// rank→core is a rotation of the identity.
        #[test]
        fn prop_single_top_priority(cores in 1usize..128, t in 0u64..1_000_000) {
            let prio = PriorityRotation::new(cores, PriorityRotation::PAPER_PERIOD);
            let now = Cycle::new(t);
            let tops: Vec<usize> = (0..cores)
                .filter(|&i| prio.rank(CoreId::new(i), now) == 0)
                .collect();
            prop_assert_eq!(tops.len(), 1);
        }
    }
}
