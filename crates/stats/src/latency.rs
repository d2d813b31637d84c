//! Latency recorders for messages, lookups and walks.

use nocstar_types::time::Cycles;
use std::fmt;

/// Accumulates a stream of latencies and reports count / min / mean / max.
///
/// # Examples
///
/// ```
/// use nocstar_stats::latency::LatencyRecorder;
/// use nocstar_types::time::Cycles;
///
/// let mut net = LatencyRecorder::default();
/// net.record(Cycles::new(2));
/// net.record(Cycles::new(4));
/// assert_eq!(net.mean(), 3.0);
/// assert_eq!(net.max(), Cycles::new(4));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyRecorder {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Cycles) {
        let v = latency.value();
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> Cycles {
        Cycles::new(self.sum)
    }

    /// Mean latency (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample ([`Cycles::ZERO`] when empty).
    pub fn min(&self) -> Cycles {
        Cycles::new(if self.count == 0 { 0 } else { self.min })
    }

    /// Largest sample ([`Cycles::ZERO`] when empty).
    pub fn max(&self) -> Cycles {
        Cycles::new(self.max)
    }

    /// Merges samples from another recorder.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.2} max={}",
            self.count,
            self.min(),
            self.mean(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tracks_min_mean_max() {
        let mut r = LatencyRecorder::new();
        for v in [5u64, 1, 9] {
            r.record(Cycles::new(v));
        }
        assert_eq!(r.min(), Cycles::new(1));
        assert_eq!(r.max(), Cycles::new(9));
        assert_eq!(r.mean(), 5.0);
        assert_eq!(r.count(), 3);
        assert_eq!(r.total(), Cycles::new(15));
    }

    #[test]
    fn empty_recorder_reports_zeros() {
        let r = LatencyRecorder::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), Cycles::ZERO);
        assert_eq!(r.max(), Cycles::ZERO);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut r = LatencyRecorder::new();
        r.record(Cycles::new(3));
        let before = r;
        r.merge(&LatencyRecorder::new());
        assert_eq!(r, before);

        let mut empty = LatencyRecorder::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_is_informative() {
        let mut r = LatencyRecorder::new();
        r.record(Cycles::new(2));
        assert!(r.to_string().contains("n=1"));
    }

    proptest! {
        #[test]
        fn prop_merge_equals_recording_everything(
            xs in prop::collection::vec(0u64..1000, 0..50),
            ys in prop::collection::vec(0u64..1000, 0..50),
        ) {
            let mut a = LatencyRecorder::new();
            let mut b = LatencyRecorder::new();
            let mut all = LatencyRecorder::new();
            for x in &xs { a.record(Cycles::new(*x)); all.record(Cycles::new(*x)); }
            for y in &ys { b.record(Cycles::new(*y)); all.record(Cycles::new(*y)); }
            a.merge(&b);
            prop_assert_eq!(a, all);
        }

        #[test]
        fn prop_mean_between_min_and_max(xs in prop::collection::vec(0u64..1000, 1..50)) {
            let mut r = LatencyRecorder::new();
            for x in &xs { r.record(Cycles::new(*x)); }
            prop_assert!(r.mean() >= r.min().value() as f64);
            prop_assert!(r.mean() <= r.max().value() as f64);
        }
    }
}
