//! Interval estimation for sampled replay (normative spec: `SAMPLING.md`
//! at the repository root, §3 and §5).
//!
//! Sampled simulation measures a handful of cycle-accurate windows and
//! reports each per-window rate as a mean with a Student-t 95 %
//! confidence interval. Window counts are small (typically 4–30), so the
//! normal quantile 1.96 would understate the interval badly; [`t975`]
//! carries the exact two-sided 97.5 % quantiles for 1–30 degrees of
//! freedom and falls back to 1.96 beyond.

/// Two-sided Student-t 97.5 % quantiles, `T975[df - 1]` for df 1..=30.
/// Beyond 30 degrees of freedom the normal quantile 1.96 is used.
const T975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The two-sided 97.5 % Student-t quantile for `df` degrees of freedom
/// (so `mean ± t975(df) · stderr` is a 95 % confidence interval).
///
/// # Panics
///
/// Panics if `df` is zero — a variance estimate needs at least two
/// samples.
///
/// # Examples
///
/// ```
/// use nocstar_stats::interval::t975;
/// assert_eq!(t975(5), 2.571);
/// assert_eq!(t975(1000), 1.96);
/// ```
pub fn t975(df: usize) -> f64 {
    assert!(df > 0, "t quantile needs at least one degree of freedom");
    if df <= T975.len() {
        T975[df - 1]
    } else {
        1.96
    }
}

/// A mean with its standard error and 95 % confidence interval, estimated
/// from independent samples (`SAMPLING.md §3`).
///
/// # Examples
///
/// ```
/// use nocstar_stats::interval::Interval;
/// // The SAMPLING.md §5 worked example.
/// let est = Interval::of(&[10.0, 12.0, 11.0, 13.0, 12.0, 14.0]);
/// assert!((est.mean() - 12.0).abs() < 1e-12);
/// assert!((est.stderr() - 0.577350).abs() < 5e-7);
/// assert!((est.lo() - 10.515632).abs() < 5e-7);
/// assert!((est.hi() - 13.484368).abs() < 5e-7);
/// assert!(est.covers(13.0) && !est.covers(14.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    n: usize,
    mean: f64,
    stderr: f64,
    half: f64,
}

impl Interval {
    /// Estimates mean, standard error and 95 % CI from `samples`.
    ///
    /// With a single sample the estimate is *degenerate*
    /// ([`is_degenerate`](Self::is_degenerate)): no variance estimate
    /// exists, so `stderr` and the half-width are reported as zero and
    /// the interval collapses to `[mean, mean]` — it must not be read
    /// as certainty. Zero-variance sample sets also collapse to
    /// `[mean, mean]`, which *is* meaningful (every window agreed).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample is non-finite.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "interval estimation needs samples");
        let n = samples.len();
        for &x in samples {
            assert!(x.is_finite(), "interval samples must be finite, got {x}");
        }
        // nocstar-lint: allow(float-accumulation): offline estimator over a fixed, ordered window-sample slice; SAMPLING.md's worked example pins the result
        let sum: f64 = samples.iter().sum();
        let mean = sum / n as f64;
        if n == 1 {
            return Self {
                n,
                mean,
                stderr: 0.0,
                half: 0.0,
            };
        }
        // nocstar-lint: allow(float-accumulation): same fixed-order offline reduction as above
        let sq: f64 = samples.iter().map(|&x| (x - mean) * (x - mean)).sum();
        let variance = sq / (n - 1) as f64;
        let stderr = (variance / n as f64).sqrt();
        Self {
            n,
            mean,
            stderr,
            half: t975(n - 1) * stderr,
        }
    }

    /// Number of samples the estimate reduces.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard error of the mean, `s / √n` (zero when degenerate).
    pub fn stderr(&self) -> f64 {
        self.stderr
    }

    /// Half the 95 % CI width, `t(0.975, n−1) · stderr`.
    pub fn half_width(&self) -> f64 {
        self.half
    }

    /// Lower bound of the 95 % confidence interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half
    }

    /// Upper bound of the 95 % confidence interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half
    }

    /// Whether the interval carries no uncertainty information (a single
    /// sample — see [`of`](Self::of)).
    pub fn is_degenerate(&self) -> bool {
        self.n < 2
    }

    /// Whether `value` lies inside the 95 % confidence interval
    /// (inclusive).
    pub fn covers(&self, value: f64) -> bool {
        self.lo() <= value && value <= self.hi()
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.6} ± {:.6} [{:.6}, {:.6}] (n={})",
            self.mean,
            self.half,
            self.lo(),
            self.hi(),
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn worked_example_from_sampling_md() {
        // SAMPLING.md §5: the normative worked example. tests/sampled.rs
        // additionally parses the document itself; this pins the
        // estimator against the agreed numbers directly.
        let est = Interval::of(&[10.0, 12.0, 11.0, 13.0, 12.0, 14.0]);
        assert_eq!(est.n(), 6);
        assert!((est.mean() - 12.0).abs() < 1e-12);
        assert!((est.stderr() - 0.577350).abs() < 5e-7);
        assert!((est.half_width() - 1.484368).abs() < 5e-7);
        assert!((est.lo() - 10.515632).abs() < 5e-7);
        assert!((est.hi() - 13.484368).abs() < 5e-7);
        assert!(!est.is_degenerate());
    }

    #[test]
    fn one_sample_is_degenerate() {
        let est = Interval::of(&[7.5]);
        assert!(est.is_degenerate());
        assert_eq!(est.mean(), 7.5);
        assert_eq!(est.stderr(), 0.0);
        assert_eq!(est.lo(), 7.5);
        assert_eq!(est.hi(), 7.5);
        assert!(est.covers(7.5));
        assert!(!est.covers(7.6));
    }

    #[test]
    fn zero_variance_collapses_to_the_mean() {
        let est = Interval::of(&[3.0; 12]);
        assert!(!est.is_degenerate());
        assert_eq!(est.stderr(), 0.0);
        assert_eq!(est.lo(), 3.0);
        assert_eq!(est.hi(), 3.0);
    }

    #[test]
    fn t_table_matches_known_quantiles() {
        assert_eq!(t975(1), 12.706);
        assert_eq!(t975(4), 2.776);
        assert_eq!(t975(30), 2.042);
        assert_eq!(t975(31), 1.96);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_samples_rejected() {
        let _ = Interval::of(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_samples_rejected() {
        let _ = Interval::of(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "degree of freedom")]
    fn t_quantile_rejects_zero_df() {
        let _ = t975(0);
    }

    /// A tiny deterministic generator for the coverage test: splitmix64
    /// into a uniform f64 in [0, 1), summed 12 times and centred for an
    /// approximately normal draw (Irwin–Hall).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn approx_normal(state: &mut u64, mean: f64, sd: f64) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        }
        mean + sd * (s - 6.0)
    }

    #[test]
    fn ci_covers_the_true_mean_about_95_percent_of_the_time() {
        // 400 independent experiments of 8 samples each from a known
        // distribution: the t-interval must cover the true mean at
        // roughly the nominal rate. Bounds are loose (Irwin–Hall tails
        // are light) but catch a mis-sized interval immediately: using
        // 1.96 instead of t(0.975,7)=2.365 drops coverage below 0.93.
        let mut state = 0x5eed_cafe_f00d_0001u64;
        let mut covered = 0;
        let trials = 400;
        for _ in 0..trials {
            let samples: Vec<f64> = (0..8)
                .map(|_| approx_normal(&mut state, 50.0, 9.0))
                .collect();
            if Interval::of(&samples).covers(50.0) {
                covered += 1;
            }
        }
        let rate = f64::from(covered) / f64::from(trials);
        assert!((0.90..=1.0).contains(&rate), "coverage rate {rate}");
    }

    proptest! {
        #[test]
        fn prop_interval_brackets_the_mean(xs in prop::collection::vec(-1e6f64..1e6, 1..40)) {
            let est = Interval::of(&xs);
            prop_assert!(est.lo() <= est.mean() + 1e-9);
            prop_assert!(est.mean() <= est.hi() + 1e-9);
            prop_assert!(est.covers(est.mean()));
            prop_assert!(est.stderr() >= 0.0);
            prop_assert!(est.half_width() >= est.stderr() * 1.95);
        }

        #[test]
        fn prop_shift_invariance(xs in prop::collection::vec(0.0f64..1e3, 2..20), shift in -1e3f64..1e3) {
            // Shifting every sample shifts the interval, not its width.
            let base = Interval::of(&xs);
            let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
            let est = Interval::of(&shifted);
            prop_assert!((est.mean() - (base.mean() + shift)).abs() < 1e-6);
            prop_assert!((est.half_width() - base.half_width()).abs() < 1e-6);
        }

        #[test]
        fn prop_more_samples_never_widen_stderr_on_constant_data(n in 2usize..60) {
            let xs = vec![5.0; n];
            let est = Interval::of(&xs);
            prop_assert_eq!(est.stderr(), 0.0);
            prop_assert_eq!(est.lo(), 5.0);
            prop_assert_eq!(est.hi(), 5.0);
        }
    }
}
