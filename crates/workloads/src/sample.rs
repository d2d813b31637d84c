//! Sample-spec parsing for sampled fast-forward replay.
//!
//! A [`SampleSpec`] describes where cycle-accurate measurement windows
//! fall along a trace: `<period>:<window>:<warmup>[@<seed>]`, all in
//! completed memory accesses per hardware thread. The normative state
//! machine, placement rule, and estimation methodology live in
//! `SAMPLING.md` at the repository root; this module only carries the
//! spec value type so workload drivers and the simulator core agree on
//! the grammar.

use std::fmt;
use std::str::FromStr;

/// Placement of sampled measurement windows along a trace
/// (`SAMPLING.md §1`).
///
/// # Examples
///
/// ```
/// use nocstar_workloads::sample::SampleSpec;
///
/// let spec: SampleSpec = "1000:60:30@7".parse().unwrap();
/// assert_eq!(spec.period(), 1000);
/// assert_eq!(spec.window(), 60);
/// assert_eq!(spec.warmup(), 30);
/// assert_eq!(spec.seed(), 7);
/// assert_eq!(spec.slack(), 910);
/// assert_eq!(spec.to_string(), "1000:60:30@7");
/// // Same seed, same offset — placement never uses entropy.
/// assert_eq!(spec.offset(), "1000:60:30@7".parse::<SampleSpec>().unwrap().offset());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    period: u64,
    window: u64,
    warmup: u64,
    seed: u64,
}

/// Why a sample spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleSpecError {
    /// Not of the form `<period>:<window>:<warmup>[@<seed>]`.
    Shape(String),
    /// A field was present but not a non-negative integer.
    Number(String),
    /// Fields parsed but violate a constraint (window ≥ 1, warmup ≥ 1,
    /// period ≥ window + warmup).
    Constraint(String),
}

impl fmt::Display for SampleSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape(s) => {
                write!(
                    f,
                    "bad sample spec {s:?}: expected <period>:<window>:<warmup>[@<seed>]"
                )
            }
            Self::Number(s) => write!(f, "bad sample spec field {s:?}: expected an integer"),
            Self::Constraint(why) => write!(f, "bad sample spec: {why}"),
        }
    }
}

impl std::error::Error for SampleSpecError {}

/// The splitmix64 finalizer: the repo-standard deterministic mixer
/// (no RNG state, no wall clock).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SampleSpec {
    /// Builds a spec from raw fields, enforcing the `SAMPLING.md §1`
    /// constraints.
    pub fn new(period: u64, window: u64, warmup: u64, seed: u64) -> Result<Self, SampleSpecError> {
        if window == 0 {
            return Err(SampleSpecError::Constraint("window must be >= 1".into()));
        }
        if warmup == 0 {
            return Err(SampleSpecError::Constraint(
                "warmup must be >= 1 (the warmup-boundary statistics reset must fire)".into(),
            ));
        }
        let leg = window.checked_add(warmup).ok_or_else(|| {
            SampleSpecError::Constraint(format!("window {window} + warmup {warmup} overflows u64"))
        })?;
        if period < leg {
            return Err(SampleSpecError::Constraint(format!(
                "period {period} < window {window} + warmup {warmup}"
            )));
        }
        Ok(Self {
            period,
            window,
            warmup,
            seed,
        })
    }

    /// Accesses per thread from one window start to the next.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Measured accesses per thread per window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Detailed-warmup accesses per thread preceding every window.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// The placement seed (moves only the offset).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fast-forward quota of every leg after the first:
    /// `period − window − warmup`.
    pub fn slack(&self) -> u64 {
        self.period - self.window - self.warmup
    }

    /// Fast-forward quota of the first leg:
    /// `splitmix64(seed) mod (slack + 1)`.
    pub fn offset(&self) -> u64 {
        splitmix64(self.seed) % (self.slack() + 1)
    }

    /// How many complete windows fit in a span of `total` accesses per
    /// thread (`SAMPLING.md §1`): legs repeat while a full
    /// fast-forward + warmup + window still fits.
    pub fn windows(&self, total: u64) -> u64 {
        let first = self.offset() + self.warmup + self.window;
        if total < first {
            0
        } else {
            1 + (total - first) / self.period
        }
    }

    /// Total accesses per thread that enter the cycle-accurate core
    /// (warmup + window per leg) for a span of `total`.
    pub fn detailed_accesses(&self, total: u64) -> u64 {
        self.windows(total) * (self.warmup + self.window)
    }
}

impl FromStr for SampleSpec {
    type Err = SampleSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (body, seed) = match s.split_once('@') {
            Some((body, seed)) => {
                let seed = seed
                    .parse::<u64>()
                    .map_err(|_| SampleSpecError::Number(seed.to_string()))?;
                (body, seed)
            }
            None => (s, 0),
        };
        let mut parts = body.split(':');
        let mut field = |name: &str| -> Result<u64, SampleSpecError> {
            let raw = parts
                .next()
                .ok_or_else(|| SampleSpecError::Shape(s.to_string()))?;
            raw.parse::<u64>()
                .map_err(|_| SampleSpecError::Number(format!("{name}={raw}")))
        };
        let period = field("period")?;
        let window = field("window")?;
        let warmup = field("warmup")?;
        if parts.next().is_some() {
            return Err(SampleSpecError::Shape(s.to_string()));
        }
        Self::new(period, window, warmup, seed)
    }
}

impl fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}@{}",
            self.period, self.window, self.warmup, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let spec: SampleSpec = "1000:60:30@7".parse().unwrap();
        assert_eq!(spec, SampleSpec::new(1000, 60, 30, 7).unwrap());
        assert_eq!(spec.slack(), 910);
        assert!(spec.offset() <= spec.slack());
    }

    #[test]
    fn seed_defaults_to_zero() {
        let spec: SampleSpec = "500:40:20".parse().unwrap();
        assert_eq!(spec.seed(), 0);
        assert_eq!(spec.to_string(), "500:40:20@0");
    }

    #[test]
    fn rejects_malformed_shapes() {
        for bad in [
            "",
            "1000",
            "1000:60",
            "1000:60:30:5",
            "a:b:c",
            "1000:60:30@x",
            // window + warmup overflows u64: must not wrap past the
            // period check into a zero-divisor offset.
            "18446744073709551615:18446744073709551615:1",
            "18446744073709551615:1:18446744073709551615",
        ] {
            assert!(
                bad.parse::<SampleSpec>().is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn rejects_constraint_violations() {
        assert!(
            SampleSpec::new(80, 60, 30, 0).is_err(),
            "period < window + warmup"
        );
        assert!(SampleSpec::new(100, 0, 30, 0).is_err(), "zero window");
        assert!(SampleSpec::new(100, 60, 0, 0).is_err(), "zero warmup");
        assert!(
            SampleSpec::new(90, 60, 30, 0).is_ok(),
            "zero slack is legal"
        );
    }

    #[test]
    fn window_count_matches_the_spec_formula() {
        let spec = SampleSpec::new(1000, 60, 30, 0).unwrap();
        let off = spec.offset();
        assert_eq!(spec.windows(off + 89), 0, "not even one full leg");
        assert_eq!(spec.windows(off + 90), 1);
        assert_eq!(spec.windows(off + 90 + 999), 1);
        assert_eq!(spec.windows(off + 90 + 1000), 2);
        assert_eq!(spec.windows(off + 90 + 9 * 1000), 10);
    }

    #[test]
    fn offset_is_deterministic_and_seed_sensitive() {
        let a = SampleSpec::new(1000, 60, 30, 1).unwrap();
        let b = SampleSpec::new(1000, 60, 30, 1).unwrap();
        assert_eq!(a.offset(), b.offset());
        // At least one of a handful of seeds must move the offset.
        let base = SampleSpec::new(1000, 60, 30, 0).unwrap().offset();
        assert!(
            (1..8).any(|s| SampleSpec::new(1000, 60, 30, s).unwrap().offset() != base),
            "offset should depend on the seed"
        );
    }

    #[test]
    fn zero_slack_forces_offset_zero() {
        for seed in 0..16 {
            let spec = SampleSpec::new(90, 60, 30, seed).unwrap();
            assert_eq!(spec.offset(), 0);
        }
    }

    #[test]
    fn detailed_accesses_counts_warmup_and_window() {
        let spec = SampleSpec::new(1000, 60, 30, 0).unwrap();
        let total = spec.offset() + 90 + 4 * 1000;
        assert_eq!(spec.windows(total), 5);
        assert_eq!(spec.detailed_accesses(total), 5 * 90);
    }

    #[test]
    fn display_round_trips() {
        for s in ["1000:60:30@7", "90:60:30@0", "500:40:20@0"] {
            let spec: SampleSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            let again: SampleSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again);
        }
    }
}
