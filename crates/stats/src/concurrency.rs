//! Tracking how many shared-L2-TLB accesses are in flight at once.
//!
//! The paper's key enabling observation (§II-E) is that concurrent shared
//! L2 TLB accesses are rare: >40 % of accesses occur in isolation, ~80 %
//! with at most 4 in flight. [`OutstandingTracker`] reproduces that
//! measurement: every access start samples the number of accesses currently
//! outstanding (including the new one) into [`ConcurrencyBins`].

use std::fmt;

/// The paper's concurrent-access bins for Figs 5 and 6: 1, 2–4, 5–8, 9–12,
/// 13–16, 17–20, 21–24, 25–28, and 29+ *concurrent* accesses.
///
/// Samples are "number of accesses in flight including this one", so the
/// minimum meaningful sample is 1 (the access occurred in isolation).
///
/// # Examples
///
/// ```
/// use nocstar_stats::concurrency::ConcurrencyBins;
/// let mut bins = ConcurrencyBins::new();
/// bins.record(1); // isolated access
/// bins.record(3); // 2 others outstanding
/// bins.record(40);
/// let f = bins.fractions();
/// assert!((f[0] - 1.0 / 3.0).abs() < 1e-12); // "1 acc"
/// assert!((f[8] - 1.0 / 3.0).abs() < 1e-12); // "29+ acc"
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcurrencyBins {
    counts: [u64; 9],
}

impl ConcurrencyBins {
    /// The paper's bin upper bounds; the ninth bin holds everything above
    /// the last.
    pub const BOUNDS: [u64; 8] = [1, 4, 8, 12, 16, 20, 24, 28];

    /// The paper's bin labels, lowest first.
    pub const LABELS: [&'static str; 9] = [
        "1 acc",
        "2-4 acc",
        "5-8 acc",
        "9-12 acc",
        "13-16 acc",
        "17-20 acc",
        "21-24 acc",
        "25-28 acc",
        "29+ acc",
    ];

    /// Empty bins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one shared-L2-TLB access that saw `concurrent` total accesses
    /// in flight (including itself).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `concurrent` is zero — the access itself is
    /// always in flight.
    pub fn record(&mut self, concurrent: u64) {
        debug_assert!(concurrent >= 1, "an access is concurrent with itself");
        // Past the first, every bin spans four accesses: 2–4, 5–8, …
        let bin = if concurrent <= 1 {
            0
        } else {
            concurrent.div_ceil(4).min(8) as usize
        };
        self.counts[bin] += 1;
    }

    /// Fraction of accesses in each of the nine bins, lowest bin first
    /// (all zeros when empty).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        self.counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect()
    }

    /// Fraction of accesses that occurred in isolation (the `1 acc` bin).
    pub fn isolated_fraction(&self) -> f64 {
        self.fractions()[0]
    }

    /// Total recorded accesses.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges bins from another tracker (e.g. per-slice into chip-wide).
    pub fn merge(&mut self, other: &ConcurrencyBins) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for ConcurrencyBins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fracs = self.fractions();
        for (i, (label, frac)) in Self::LABELS.iter().zip(fracs).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{label}: {:.1}%", frac * 100.0)?;
        }
        Ok(())
    }
}

/// Tracks the number of outstanding accesses to one structure (the whole
/// shared TLB, or a single slice) and bins each access start by how many
/// accesses it overlapped.
///
/// # Examples
///
/// ```
/// use nocstar_stats::concurrency::OutstandingTracker;
///
/// let mut t = OutstandingTracker::new();
/// t.begin(); // runs alone -> "1 acc"
/// t.begin(); // overlaps the first -> "2-4 acc"
/// t.end();
/// t.end();
/// let f = t.bins().fractions();
/// assert!((f[0] - 0.5).abs() < 1e-12);
/// assert!((f[1] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OutstandingTracker {
    outstanding: u64,
    bins: ConcurrencyBins,
}

impl OutstandingTracker {
    /// A tracker with no accesses in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks an access as starting now; records its concurrency sample.
    pub fn begin(&mut self) {
        self.outstanding += 1;
        self.bins.record(self.outstanding);
    }

    /// Marks an access as complete.
    ///
    /// # Panics
    ///
    /// Panics if no access is outstanding — that is always a simulator bug.
    pub fn end(&mut self) {
        assert!(
            self.outstanding > 0,
            "end() without a matching begin(): outstanding underflow"
        );
        self.outstanding -= 1;
    }

    /// Number of accesses currently in flight.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// The per-access concurrency distribution, in the paper's bins.
    pub fn bins(&self) -> &ConcurrencyBins {
        &self.bins
    }

    /// Clears the recorded distribution (e.g. after warmup) while keeping
    /// the live outstanding count, so in-flight accesses stay balanced.
    pub fn reset_bins(&mut self) {
        self.bins = ConcurrencyBins::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn concurrency_bins_match_paper_layout() {
        assert_eq!(
            ConcurrencyBins::LABELS.len(),
            ConcurrencyBins::BOUNDS.len() + 1
        );
        let mut bins = ConcurrencyBins::new();
        for c in 1..=32 {
            bins.record(c);
        }
        let f = bins.fractions();
        // one sample lands in "1 acc", three in "2-4", four in each middle
        // bin, four in "29+" (29..=32).
        assert!((f[0] - 1.0 / 32.0).abs() < 1e-12);
        assert!((f[1] - 3.0 / 32.0).abs() < 1e-12);
        assert!((f[8] - 4.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn each_concurrency_lands_in_the_first_bin_bounding_it() {
        for c in 1..=64u64 {
            let mut bins = ConcurrencyBins::new();
            bins.record(c);
            let expected = ConcurrencyBins::BOUNDS
                .iter()
                .position(|&b| c <= b)
                .unwrap_or(ConcurrencyBins::BOUNDS.len());
            let mut fractions = vec![0.0; ConcurrencyBins::LABELS.len()];
            fractions[expected] = 1.0;
            assert_eq!(bins.fractions(), fractions, "concurrency {c}");
        }
    }

    #[test]
    fn isolated_fraction_counts_only_singletons() {
        let mut bins = ConcurrencyBins::new();
        bins.record(1);
        bins.record(1);
        bins.record(2);
        assert!((bins.isolated_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bins_are_all_zero() {
        let bins = ConcurrencyBins::new();
        assert_eq!(bins.total(), 0);
        assert_eq!(bins.fractions(), vec![0.0; 9]);
    }

    #[test]
    fn isolated_accesses_land_in_first_bin() {
        let mut t = OutstandingTracker::new();
        for _ in 0..5 {
            t.begin();
            t.end();
        }
        assert_eq!(t.bins().isolated_fraction(), 1.0);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn nested_accesses_raise_concurrency() {
        let mut t = OutstandingTracker::new();
        t.begin();
        t.begin();
        t.begin();
        assert_eq!(t.outstanding(), 3);
        t.end();
        t.end();
        t.end();
        let f = t.bins().fractions();
        // samples were 1, 2, 3 -> one in "1 acc", two in "2-4 acc"
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((f[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn end_without_begin_panics() {
        OutstandingTracker::new().end();
    }

    proptest! {
        #[test]
        fn prop_fractions_sum_to_one_when_nonempty(samples in prop::collection::vec(1u64..200, 1..100)) {
            let mut bins = ConcurrencyBins::new();
            for s in &samples {
                bins.record(*s);
            }
            let sum: f64 = bins.fractions().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert_eq!(bins.total(), samples.len() as u64);
        }

        #[test]
        fn prop_merge_is_commutative_on_counts(
            xs in prop::collection::vec(1u64..64, 0..50),
            ys in prop::collection::vec(1u64..64, 0..50),
        ) {
            let (mut a, mut b) = (ConcurrencyBins::new(), ConcurrencyBins::new());
            for x in &xs { a.record(*x); }
            for y in &ys { b.record(*y); }
            let (mut ab, mut ba) = (ConcurrencyBins::new(), ConcurrencyBins::new());
            ab.merge(&a); ab.merge(&b);
            ba.merge(&b); ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        /// Any begin/end sequence that never underflows leaves the tracker
        /// consistent: samples == begins.
        #[test]
        fn prop_tracker_is_consistent(ops in prop::collection::vec(any::<bool>(), 0..200)) {
            let mut t = OutstandingTracker::new();
            let mut begins = 0u64;
            let mut depth = 0i64;
            for op in ops {
                if op {
                    t.begin();
                    begins += 1;
                    depth += 1;
                } else if depth > 0 {
                    t.end();
                    depth -= 1;
                }
            }
            prop_assert_eq!(t.bins().total(), begins);
            prop_assert_eq!(t.outstanding(), depth as u64);
        }
    }
}
