//! TLB shootdowns and invalidation-leader policies (paper §III-G).
//!
//! When the OS modifies a page-table entry it shoots down stale TLB copies.
//! In NOCSTAR, naively letting every core relay an invalidation to the home
//! slice can congest the network, so the paper designates *invalidation
//! leaders*: every core invalidates its private L1 locally, but only the
//! leader of its group relays the invalidation to the shared slice.

use nocstar_types::{Asid, CoreId, VirtPageNum};
use std::fmt;

/// One translation to shoot down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Invalidation {
    /// Address space whose mapping changed.
    pub asid: Asid,
    /// The virtual page whose translation is now stale.
    pub vpn: VirtPageNum,
}

impl fmt::Display for Invalidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalidate {} {}", self.asid, self.vpn)
    }
}

/// Who is allowed to relay invalidations to the shared L2 TLB slices.
///
/// Fig 16 (right) sweeps the leader granularity: one leader per 4 cores,
/// per 8 cores, and a single leader for the whole chip, against the
/// baseline of every core relaying its own invalidations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LeaderPolicy {
    /// Every core relays its own invalidations (no leaders). Simple, but
    /// can flood the interconnect when many cores shoot down the same page.
    #[default]
    EveryCore,
    /// One leader per contiguous group of `n` cores: core `c`'s leader is
    /// the first core of its group, `(c / n) * n`.
    PerGroup(
        /// Cores per leader group; must be nonzero.
        usize,
    ),
    /// A single chip-wide leader (core 0).
    Single,
}

impl LeaderPolicy {
    /// The core that relays invalidations on behalf of `core`.
    ///
    /// # Panics
    ///
    /// Panics if a `PerGroup` size is zero.
    pub fn leader_for(self, core: CoreId) -> CoreId {
        match self {
            LeaderPolicy::EveryCore => core,
            LeaderPolicy::PerGroup(n) => {
                assert!(n > 0, "leader group size must be nonzero");
                CoreId::new((core.index() / n) * n)
            }
            LeaderPolicy::Single => CoreId::new(0),
        }
    }
}

impl fmt::Display for LeaderPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaderPolicy::EveryCore => write!(f, "every-core"),
            LeaderPolicy::PerGroup(n) => write!(f, "per-{n}-core"),
            LeaderPolicy::Single => write!(f, "single-leader"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::PageSize;
    use proptest::prelude::*;

    #[test]
    fn every_core_is_its_own_leader() {
        let p = LeaderPolicy::EveryCore;
        for i in 0..8 {
            assert_eq!(p.leader_for(CoreId::new(i)), CoreId::new(i));
        }
    }

    #[test]
    fn per_group_leaders_are_group_heads() {
        let p = LeaderPolicy::PerGroup(4);
        assert_eq!(p.leader_for(CoreId::new(0)), CoreId::new(0));
        assert_eq!(p.leader_for(CoreId::new(3)), CoreId::new(0));
        assert_eq!(p.leader_for(CoreId::new(4)), CoreId::new(4));
        assert_eq!(p.leader_for(CoreId::new(31)), CoreId::new(28));
        assert_eq!(p.leader_for(CoreId::new(29)), CoreId::new(28));
    }

    #[test]
    fn single_leader_is_core_zero() {
        let p = LeaderPolicy::Single;
        assert_eq!(p.leader_for(CoreId::new(17)), CoreId::new(0));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_group_size_rejected() {
        let _ = LeaderPolicy::PerGroup(0).leader_for(CoreId::new(1));
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(LeaderPolicy::PerGroup(4).to_string(), "per-4-core");
        assert_eq!(LeaderPolicy::Single.to_string(), "single-leader");
    }

    #[test]
    fn invalidation_displays_its_target() {
        let inv = Invalidation {
            asid: Asid::new(2),
            vpn: VirtPageNum::new(9, PageSize::Size4K),
        };
        assert!(inv.to_string().contains("asid2"));
    }

    proptest! {
        /// Leaders are idempotent fixed points: the leader of a leader is
        /// itself, and every core's leader is a leader.
        #[test]
        fn prop_leader_is_fixed_point(core in 0usize..512, group in 1usize..64) {
            for policy in [
                LeaderPolicy::EveryCore,
                LeaderPolicy::PerGroup(group),
                LeaderPolicy::Single,
            ] {
                let leader = policy.leader_for(CoreId::new(core));
                prop_assert_eq!(policy.leader_for(leader), leader);
                prop_assert!(leader.index() <= core);
            }
        }
    }
}
