//! Reductions over per-workload results: min / avg / max.
//!
//! The paper reports speedups as workload averages with min/max whiskers
//! (Fig 14, Table III); [`Summary`] is that reduction.

use std::fmt;

/// Min / arithmetic-mean / max summary of an `f64` series.
///
/// # Examples
///
/// ```
/// use nocstar_stats::summary::Summary;
/// let s = Summary::of([1.0, 2.0, 4.0]);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert!((s.mean() - 7.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    min: f64,
    max: f64,
    mean: f64,
}

impl Summary {
    /// Reduces a series. Returns an all-zero summary for an empty series.
    ///
    /// # Panics
    ///
    /// Panics if any value is non-finite or negative — speedups, rates and
    /// fractions are always finite and non-negative; anything else is a
    /// simulator bug worth failing loudly on.
    pub fn of<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for v in values {
            assert!(
                v.is_finite() && v >= 0.0,
                "summary values must be finite and non-negative, got {v}"
            );
            count += 1;
            min = min.min(v);
            max = max.max(v);
            // Sums in the caller's order: every caller passes a series in
            // fixed workload order.
            sum += v;
        }
        if count == 0 {
            return Self {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        Self {
            count,
            min,
            max,
            mean: sum / count as f64,
        }
    }

    /// Number of values reduced.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Smallest value (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {:.3} / avg {:.3} / max {:.3} (n={})",
            self.min, self.mean, self.max, self.count
        )
    }
}

/// Speedup of a configuration versus a baseline, given cycle counts for the
/// same amount of work: `baseline_cycles / config_cycles`.
///
/// # Panics
///
/// Panics if `config_cycles` is zero.
///
/// # Examples
///
/// ```
/// use nocstar_stats::summary::speedup;
/// assert_eq!(speedup(1200, 1000), 1.2);
/// ```
pub fn speedup(baseline_cycles: u64, config_cycles: u64) -> f64 {
    assert!(config_cycles > 0, "config ran for zero cycles");
    baseline_cycles as f64 / config_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::of([]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_summary_is_that_value() {
        let s = Summary::of([1.5]);
        assert_eq!(s.min(), 1.5);
        assert_eq!(s.max(), 1.5);
        assert_eq!(s.mean(), 1.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_values_rejected() {
        let _ = Summary::of([f64::NAN]);
    }

    #[test]
    fn speedup_is_baseline_over_config() {
        assert!(speedup(1000, 800) > 1.0);
        assert!(speedup(800, 1000) < 1.0);
        assert_eq!(speedup(500, 500), 1.0);
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn speedup_rejects_zero_config() {
        let _ = speedup(10, 0);
    }

    #[test]
    fn display_has_all_three_statistics() {
        let s = Summary::of([1.0, 3.0]).to_string();
        assert!(s.contains("min 1.000"));
        assert!(s.contains("avg 2.000"));
        assert!(s.contains("max 3.000"));
    }

    proptest! {
        #[test]
        fn prop_mean_lies_between_min_and_max(xs in prop::collection::vec(0.0f64..100.0, 1..40)) {
            let s = Summary::of(xs.iter().copied());
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }
    }
}
