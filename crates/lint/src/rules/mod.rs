//! The rule registry.
//!
//! Each rule is an independent visitor over a [`SourceFile`]'s token
//! stream with an id, a human description, and a fix hint. The driver
//! consults the [`Policy`](crate::policy::Policy) for the file's class to
//! decide whether the rule runs and at what severity; rules themselves
//! are policy-agnostic and only *find* patterns.

mod entropy_rng;
mod event_time;
mod float_accumulation;
mod panic_indexing;
mod sim_unwrap;
mod tainted_event_time;
mod unordered;
mod wall_clock;

use crate::source::SourceFile;

pub use entropy_rng::EntropyRng;
pub use event_time::EventTimeRegression;
pub use float_accumulation::FloatAccumulation;
pub use panic_indexing::PanicIndexing;
pub use sim_unwrap::SimUnwrap;
pub use tainted_event_time::TaintedEventTime;
pub use unordered::UnorderedIteration;
pub use wall_clock::WallClock;

/// A raw match a rule emitted, before policy/suppression filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// What was matched, specifically.
    pub message: String,
}

/// A determinism/invariant rule.
pub trait Rule {
    /// Stable kebab-case id, as used in the policy and in suppressions.
    fn id(&self) -> &'static str;
    /// One-line description of what the rule protects.
    fn description(&self) -> &'static str;
    /// How to fix a finding.
    fn fix_hint(&self) -> &'static str;
    /// Whether `#[cfg(test)]` / `#[test]` regions are exempt. Most rules
    /// exempt them (tests may panic and use hash maps freely); entropy
    /// rules do not (a nondeterministic test is still a flaky test).
    fn exempts_test_code(&self) -> bool {
        true
    }
    /// Scans one file, pushing matches into `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>);
}

/// All shipped rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UnorderedIteration),
        Box::new(WallClock),
        Box::new(EntropyRng),
        Box::new(SimUnwrap),
        Box::new(EventTimeRegression),
        Box::new(FloatAccumulation),
        Box::new(PanicIndexing),
        Box::new(TaintedEventTime),
    ]
}

/// Ids of all shipped rules plus the always-on meta rule.
pub fn rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry().iter().map(|r| r.id()).collect();
    ids.push(INVALID_SUPPRESSION);
    ids
}

/// Id of the meta rule that rejects malformed suppression comments. It is
/// not part of the registry: it cannot be configured down or suppressed —
/// a suppression without a justification must always fail the build.
pub const INVALID_SUPPRESSION: &str = "invalid-suppression";
