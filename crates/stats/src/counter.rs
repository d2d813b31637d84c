//! Hit/miss counters.

use std::fmt;

/// A paired hit/miss counter for cache-like structures.
///
/// # Examples
///
/// ```
/// use nocstar_stats::counter::HitMiss;
/// let mut tlb = HitMiss::default();
/// for hit in [true, true, false, true] {
///     tlb.record(hit);
/// }
/// assert_eq!(tlb.accesses(), 4);
/// assert_eq!(tlb.misses(), 1);
/// assert!((tlb.miss_rate() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    hits: u64,
    misses: u64,
}

impl HitMiss {
    /// A hit/miss pair starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Records a hit.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Total hits so far.
    pub fn hits(self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(self) -> u64 {
        self.misses
    }

    /// Total accesses (hits + misses).
    pub fn accesses(self) -> u64 {
        self.hits() + self.misses()
    }

    /// Hits / accesses, or 0.0 with no accesses.
    pub fn hit_rate(self) -> f64 {
        fraction(self.hits, self.accesses())
    }

    /// Misses / accesses, or 0.0 with no accesses.
    pub fn miss_rate(self) -> f64 {
        fraction(self.misses, self.accesses())
    }

    /// Merges another pair into this one.
    pub fn merge(&mut self, other: HitMiss) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// `part / total`, or 0.0 when `total` is zero.
fn fraction(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

impl fmt::Display for HitMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.2}% miss)",
            self.hits(),
            self.misses(),
            self.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_rates_are_complementary() {
        let mut hm = HitMiss::new();
        for i in 0..100 {
            hm.record(i % 4 != 0);
        }
        assert_eq!(hm.accesses(), 100);
        assert!((hm.hit_rate() + hm.miss_rate() - 1.0).abs() < 1e-12);
        assert_eq!(hm.misses(), 25);
    }

    #[test]
    fn empty_hit_miss_has_zero_rates() {
        let hm = HitMiss::new();
        assert_eq!(hm.hit_rate(), 0.0);
        assert_eq!(hm.miss_rate(), 0.0);
    }

    #[test]
    fn hit_miss_merge() {
        let mut a = HitMiss::new();
        a.hit();
        a.miss();
        let mut b = HitMiss::new();
        b.hit();
        a.merge(b);
        assert_eq!(a.hits(), 2);
        assert_eq!(a.misses(), 1);
    }

    #[test]
    fn display_mentions_miss_percentage() {
        let mut hm = HitMiss::new();
        hm.hit();
        hm.miss();
        assert!(hm.to_string().contains("50.00% miss"));
    }
}
