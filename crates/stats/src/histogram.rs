//! Bucketed distributions, including the paper's concurrency bins.

use std::fmt;

/// A histogram over `u64` samples with caller-chosen bucket upper bounds.
///
/// Bucket `i` holds samples `v` with `v <= bounds[i]` (and greater than
/// `bounds[i-1]`); samples above the last bound land in a final overflow
/// bucket.
///
/// # Examples
///
/// ```
/// use nocstar_stats::histogram::Histogram;
/// let mut h = Histogram::new(&[1, 4, 8]);
/// for v in [0, 1, 2, 5, 9, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.counts(), &[2, 1, 1, 2]); // <=1, 2..=4, 5..=8, >8
/// assert_eq!(h.total(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Builds a histogram with the given strictly increasing bucket upper
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Per-bucket counts; the last element is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bucket fraction of all samples (all zeros when empty).
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

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.sum as f64 / total as f64
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merges another histogram with identical bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Human-readable bucket labels, e.g. `<=1`, `2-4`, `>8`.
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.counts.len());
        let mut lo = 0u64;
        for &b in &self.bounds {
            if lo == b {
                labels.push(format!("{b}"));
            } else {
                labels.push(format!("{lo}-{b}"));
            }
            lo = b + 1;
        }
        #[expect(
            clippy::unwrap_used,
            reason = "bounds is non-empty, asserted in the constructor"
        )]
        labels.push(format!(">{}", self.bounds.last().unwrap()));
        labels
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels = self.labels();
        let fracs = self.fractions();
        for (i, (label, frac)) in labels.iter().zip(fracs).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{label}: {:.1}%", frac * 100.0)?;
        }
        Ok(())
    }
}

/// The paper's concurrent-access bins for Figs 5 and 6: 1, 2–4, 5–8, 9–12,
/// 13–16, 17–20, 21–24, 25–28, and 29+ *concurrent* accesses.
///
/// Samples are "number of accesses in flight including this one", so the
/// minimum meaningful sample is 1 (the access occurred in isolation).
///
/// # Examples
///
/// ```
/// use nocstar_stats::histogram::ConcurrencyBins;
/// let mut bins = ConcurrencyBins::new();
/// bins.record(1); // isolated access
/// bins.record(3); // 2 others outstanding
/// bins.record(40);
/// let f = bins.fractions();
/// assert!((f[0] - 1.0 / 3.0).abs() < 1e-12); // "1 acc"
/// assert!((f[8] - 1.0 / 3.0).abs() < 1e-12); // "29+ acc"
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrencyBins {
    histogram: Histogram,
}

impl ConcurrencyBins {
    /// The paper's bin upper bounds.
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
        Self {
            histogram: Histogram::new(&Self::BOUNDS),
        }
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
        self.histogram.record(concurrent);
    }

    /// Fraction of accesses in each of the nine bins, lowest bin first.
    pub fn fractions(&self) -> Vec<f64> {
        self.histogram.fractions()
    }

    /// Fraction of accesses that occurred in isolation (the `1 acc` bin).
    pub fn isolated_fraction(&self) -> f64 {
        self.fractions()[0]
    }

    /// Total recorded accesses.
    pub fn total(&self) -> u64 {
        self.histogram.total()
    }

    /// Merges bins from another tracker (e.g. per-slice into chip-wide).
    pub fn merge(&mut self, other: &ConcurrencyBins) {
        self.histogram.merge(&other.histogram);
    }
}

impl Default for ConcurrencyBins {
    fn default() -> Self {
        Self::new()
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_partition_the_value_space() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(10);
        h.record(11);
        h.record(20);
        h.record(21);
        assert_eq!(h.counts(), &[1, 2, 1]);
    }

    #[test]
    fn mean_and_max_track_samples() {
        let mut h = Histogram::new(&[100]);
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.max(), 6);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new(&[1]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fractions(), vec![0.0, 0.0]);
    }

    #[test]
    fn labels_cover_all_buckets() {
        let h = Histogram::new(&[1, 4]);
        assert_eq!(h.labels(), vec!["0-1", "2-4", ">4"]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(&[5]);
        a.record(1);
        let mut b = Histogram::new(&[5]);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.max(), 9);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[5]);
        let b = Histogram::new(&[6]);
        a.merge(&b);
    }

    #[test]
    #[should_panic]
    fn non_increasing_bounds_rejected() {
        let _ = Histogram::new(&[3, 3]);
    }

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
    fn isolated_fraction_counts_only_singletons() {
        let mut bins = ConcurrencyBins::new();
        bins.record(1);
        bins.record(1);
        bins.record(2);
        assert!((bins.isolated_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_fractions_sum_to_one_when_nonempty(samples in prop::collection::vec(0u64..200, 1..100)) {
            let mut h = Histogram::new(&[1, 4, 8, 12, 16]);
            for s in &samples {
                h.record(*s);
            }
            let sum: f64 = h.fractions().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert_eq!(h.total(), samples.len() as u64);
        }

        #[test]
        fn prop_merge_is_commutative_on_counts(
            xs in prop::collection::vec(0u64..64, 0..50),
            ys in prop::collection::vec(0u64..64, 0..50),
        ) {
            let bounds = [1u64, 4, 8, 12];
            let mut ab = Histogram::new(&bounds);
            let mut ba = Histogram::new(&bounds);
            let (mut a, mut b) = (Histogram::new(&bounds), Histogram::new(&bounds));
            for x in &xs { a.record(*x); }
            for y in &ys { b.record(*y); }
            ab.merge(&a); ab.merge(&b);
            ba.merge(&b); ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }
    }
}
