//! A bounded Zipf sampler.
//!
//! Samples `k` in `[0, n)` with probability proportional to `(k+1)^-s`,
//! using the rejection-inversion method of Hörmann & Derflinger, which is
//! O(1) per sample for any `n` — important because power-law workloads
//! (graph500) draw from footprints of hundreds of thousands of pages.

use rand::Rng;

/// A Zipf distribution over `{0, 1, …, n-1}` with exponent `s > 0`,
/// rank 0 being the most popular.
///
/// # Examples
///
/// ```
/// use nocstar_workloads::zipf::Zipf;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let zipf = Zipf::new(1000, 1.0);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut low_ranks = 0;
/// for _ in 0..1000 {
///     if zipf.sample(&mut rng) < 10 {
///         low_ranks += 1;
///     }
/// }
/// // The top-10 ranks of zipf(1.0) carry ~39% of the mass.
/// assert!(low_ranks > 250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed rejection-inversion constants (Apache Commons'
    // RejectionInversionZipfSampler formulation, over ranks 1..=n).
    h_integral_x1: f64,
    h_integral_n: f64,
    threshold: f64,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not finite and positive.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut zipf = Self {
            n,
            s,
            h_integral_x1: 0.0,
            h_integral_n: 0.0,
            threshold: 0.0,
        };
        zipf.h_integral_x1 = zipf.h_integral(1.5) - 1.0;
        zipf.h_integral_n = zipf.h_integral(n as f64 + 0.5);
        zipf.threshold = 2.0 - zipf.h_integral_inverse(zipf.h_integral(2.5) - zipf.h(2.0));
        zipf
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Antiderivative of `h(x) = x^-s`.
    fn h_integral(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn h(&self, x: f64) -> f64 {
        x.powf(-self.s)
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp()
        } else {
            // Clamp to keep the base positive under floating-point error.
            let t = (x * (1.0 - self.s) + 1.0).max(f64::MIN_POSITIVE);
            t.powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_integral_n + rng.gen::<f64>() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inverse(u);
            let k = x.round().clamp(1.0, self.n as f64);
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64 - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn frequencies(n: u64, s: f64, samples: usize, seed: u64) -> Vec<u64> {
        let zipf = Zipf::new(n, s);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn mass_is_monotonically_decreasing_in_rank() {
        let counts = frequencies(16, 1.0, 200_000, 7);
        // Compare coarse groups (per-rank averages) to tolerate noise.
        let head = counts[..4].iter().sum::<u64>() as f64 / 4.0;
        let mid = counts[4..8].iter().sum::<u64>() as f64 / 4.0;
        let tail = counts[8..].iter().sum::<u64>() as f64 / 8.0;
        assert!(head > mid);
        assert!(mid > tail);
    }

    #[test]
    fn rank_zero_probability_matches_theory() {
        // For n=100, s=1.0: p(0) = 1/H(100) ~ 1/5.187 ~ 0.1928.
        let counts = frequencies(100, 1.0, 300_000, 3);
        let p0 = counts[0] as f64 / 300_000.0;
        assert!((p0 - 0.1928).abs() < 0.01, "p0 = {p0}");
    }

    #[test]
    fn non_unit_exponent_is_supported() {
        let counts = frequencies(1000, 0.7, 100_000, 9);
        assert!(counts[0] > counts[500]);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn single_item_always_samples_zero() {
        let zipf = Zipf::new(1, 1.3);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let zipf = Zipf::new(5000, 0.9);
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_exponent_rejected() {
        let _ = Zipf::new(10, 0.0);
    }

    proptest! {
        /// Samples are always in range for arbitrary (n, s).
        #[test]
        fn prop_samples_in_range(n in 1u64..100_000, s in 0.1f64..2.5, seed in any::<u64>()) {
            let zipf = Zipf::new(n, s);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..50 {
                prop_assert!(zipf.sample(&mut rng) < n);
            }
        }
    }
}
