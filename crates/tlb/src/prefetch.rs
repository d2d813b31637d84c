//! Adjacent-virtual-page TLB prefetching (paper Table III).
//!
//! Following the original shared-TLB paper, on an L2 TLB miss the
//! translations for virtual pages at distance ±1, ±2, … ±depth from the
//! missing page are prefetched into the shared L2. The paper finds ±2 most
//! effective, with deeper prefetching polluting the TLB.

use nocstar_types::VirtPageNum;

/// How many adjacent virtual pages to prefetch on each side of a miss.
///
/// # Examples
///
/// ```
/// use nocstar_tlb::prefetch::PrefetchDepth;
/// assert!(!PrefetchDepth::disabled().is_enabled());
/// assert!(PrefetchDepth::new(2).unwrap().is_enabled());
/// assert!(PrefetchDepth::new(4).is_none()); // paper studies up to +/-3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PrefetchDepth(u8);

impl PrefetchDepth {
    /// The deepest prefetch the paper studies (±3).
    pub const MAX: u8 = 3;

    /// No prefetching.
    pub const fn disabled() -> Self {
        Self(0)
    }

    /// A depth of `depth` pages each side; `None` beyond [`Self::MAX`].
    pub fn new(depth: u8) -> Option<Self> {
        (depth <= Self::MAX).then_some(Self(depth))
    }

    /// Whether any prefetching happens.
    pub fn is_enabled(self) -> bool {
        self.0 > 0
    }

    /// The virtual pages to prefetch around a missing page, nearest first
    /// (+1, -1, +2, -2, …). Pages that would underflow page number zero are
    /// skipped; the missing page itself is never included.
    ///
    /// ```
    /// use nocstar_tlb::prefetch::PrefetchDepth;
    /// use nocstar_types::{PageSize, VirtPageNum};
    ///
    /// let miss = VirtPageNum::new(10, PageSize::Size4K);
    /// let picks: Vec<u64> = PrefetchDepth::new(2).unwrap()
    ///     .candidates(miss)
    ///     .map(|v| v.number())
    ///     .collect();
    /// assert_eq!(picks, vec![11, 9, 12, 8]);
    /// ```
    pub fn candidates(self, miss: VirtPageNum) -> impl Iterator<Item = VirtPageNum> {
        (1..=i64::from(self.0)).flat_map(move |d| {
            let forward = Some(miss.stride(d));
            let backward = (miss.number() >= d as u64).then(|| miss.stride(-d));
            forward.into_iter().chain(backward)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::PageSize;

    fn v4k(n: u64) -> VirtPageNum {
        VirtPageNum::new(n, PageSize::Size4K)
    }

    #[test]
    fn disabled_prefetch_yields_nothing() {
        assert_eq!(PrefetchDepth::disabled().candidates(v4k(10)).count(), 0);
        assert!(!PrefetchDepth::disabled().is_enabled());
    }

    #[test]
    fn depth_three_yields_six_neighbours() {
        let picks: Vec<u64> = PrefetchDepth::new(3)
            .unwrap()
            .candidates(v4k(100))
            .map(|v| v.number())
            .collect();
        assert_eq!(picks, vec![101, 99, 102, 98, 103, 97]);
    }

    #[test]
    fn candidates_near_zero_skip_underflow() {
        let picks: Vec<u64> = PrefetchDepth::new(2)
            .unwrap()
            .candidates(v4k(1))
            .map(|v| v.number())
            .collect();
        assert_eq!(picks, vec![2, 0, 3]); // -2 would underflow
    }

    #[test]
    fn candidates_preserve_page_size() {
        let miss = VirtPageNum::new(10, PageSize::Size2M);
        for c in PrefetchDepth::new(1).unwrap().candidates(miss) {
            assert_eq!(c.page_size(), PageSize::Size2M);
        }
    }

    #[test]
    fn depth_beyond_max_is_rejected() {
        assert!(PrefetchDepth::new(PrefetchDepth::MAX).is_some());
        assert!(PrefetchDepth::new(PrefetchDepth::MAX + 1).is_none());
    }
}
