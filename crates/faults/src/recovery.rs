//! Reactive fault recovery: the closed-loop counterpart to [`FaultPlan`].
//!
//! A fault plan is an open-loop schedule — it says *what breaks when*.
//! This module adds the deterministic *response*: a [`RecoveryPolicy`]
//! installed next to the plan tells each layer how to route around, re-home
//! past, or escalate out of an active fault, and a [`RecoveryStats`] block
//! accounts for every action taken so recovery latency is a first-class
//! measurement.
//!
//! Determinism: the policy is plain data (a handful of switches and one
//! threshold) and every recovery decision is a pure function of
//! `(plan, policy, cycle, message/slice id)` — the same inputs that drive
//! the faults themselves. No recovery action consults wall-clock time,
//! entropy, or iteration order over unordered containers, so a
//! recovery-enabled run is byte-identical across repeats just like a
//! plain faulted run.
//!
//! [`FaultPlan`]: crate::FaultPlan

use crate::RetryPolicy;
use nocstar_stats::metrics::Log2Histogram;
use std::str::FromStr;

/// Which closed-loop responses are armed, and how aggressively messages
/// escalate off a faulted fast path.
///
/// The default policy is fully open-loop (everything off): installing it
/// is byte-identical to not installing a policy at all, mirroring
/// [`FaultPlan::is_empty`](crate::FaultPlan::is_empty).
///
/// # Examples
///
/// ```
/// use nocstar_faults::recovery::RecoveryPolicy;
///
/// let policy: RecoveryPolicy = "reroute; rehome; escalate=3".parse().unwrap();
/// assert!(policy.reroute && policy.rehome && !policy.failover);
/// assert_eq!(policy.escalate, Some(3));
/// assert!(policy.is_enabled());
/// assert!(!RecoveryPolicy::default().is_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy {
    /// Mesh/SMART/overlay fabrics route blocked flights around dead links
    /// via deterministic BFS detours, reverting to the static XY path as
    /// soon as the outage window ends.
    pub reroute: bool,
    /// Offline slices are re-homed to a deterministic backup slice with a
    /// coherent handoff; lookups follow the backup until the outage window
    /// ends, then home back.
    pub rehome: bool,
    /// Hierarchical clusters re-elect a surviving gateway tile when the
    /// static gateway's tile is offline, reverting when it recovers.
    pub failover: bool,
    /// Escalating retry: a fault-blocked message gives up on the fast
    /// fabric and takes the buffered multi-hop escape path after this many
    /// consecutive blocked attempts, instead of burning the plan's full
    /// retry budget on exponential backoff. `None` leaves the plan's
    /// [`RetryPolicy`] untouched.
    pub escalate: Option<u32>,
}

impl RecoveryPolicy {
    /// A policy with every response armed and a 3-attempt escalation
    /// threshold — the configuration the `recovery` bench measures.
    pub fn all() -> Self {
        Self {
            reroute: true,
            rehome: true,
            failover: true,
            escalate: Some(3),
        }
    }

    /// True when any closed-loop response is armed. Fast paths key off
    /// this so a disabled policy is bit-identical to no policy at all.
    pub fn is_enabled(&self) -> bool {
        self.reroute || self.rehome || self.failover || self.escalate.is_some()
    }

    /// The effective fault-retry bound under this policy: the plan's
    /// budget clamped by the escalation threshold. With escalation armed a
    /// permanent outage can no longer livelock on `retry=inf` — blocked
    /// messages always reach the escape path.
    pub fn effective_max_attempts(&self, retry: RetryPolicy) -> Option<u64> {
        let plan = retry.max_attempts.map(u64::from);
        match (self.escalate.map(u64::from), plan) {
            (Some(k), Some(m)) => Some(k.min(m)),
            (Some(k), None) => Some(k),
            (None, m) => m,
        }
    }

    /// Parses a recovery-policy spec. Clauses are `;`-separated:
    ///
    /// | clause | meaning |
    /// |---|---|
    /// | `reroute` | detour around dead links |
    /// | `rehome` | re-home offline slices to a backup slice |
    /// | `failover` | re-elect cluster gateways |
    /// | `escalate=N` | escape after `N` consecutive blocked attempts |
    /// | `all` | everything above with `escalate=3` |
    ///
    /// # Errors
    ///
    /// Returns the offending clause and its byte offset in the spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = RecoveryPolicy::default();
        let mut offset = 0usize;
        for seg in spec.split(';') {
            let clause = seg.trim();
            if !clause.is_empty() {
                let at = offset + (seg.len() - seg.trim_start().len());
                policy
                    .parse_clause(clause)
                    .map_err(|e| format!("bad recovery clause `{clause}` at byte {at}: {e}"))?;
            }
            offset += seg.len() + 1;
        }
        Ok(policy)
    }

    fn parse_clause(&mut self, clause: &str) -> Result<(), String> {
        match clause {
            "reroute" => self.reroute = true,
            "rehome" => self.rehome = true,
            "failover" => self.failover = true,
            "all" => *self = Self::all(),
            _ => {
                let v = clause
                    .strip_prefix("escalate=")
                    .ok_or_else(|| "unknown clause".to_string())?;
                let n = v
                    .trim()
                    .parse::<u32>()
                    .map_err(|_| format!("`{v}` is not a number"))?;
                if n == 0 {
                    return Err("escalation threshold must be nonzero".to_string());
                }
                self.escalate = Some(n);
            }
        }
        Ok(())
    }
}

impl FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Counters and histograms for every closed-loop recovery action a
/// network model takes. Harvested into the metrics registry only when a
/// policy is armed *and* a fault plan is installed, so recovery-off
/// reports are byte-identical to the existing goldens.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Blocked flights successfully re-routed around a dead link.
    pub reroutes: u64,
    /// Extra hops the detour paths added over the static XY routes.
    pub detour_extra_hops: u64,
    /// Detour searches that found no fault-free path (the flight fell
    /// back to open-loop backoff/escape).
    pub reroute_failed: u64,
    /// Messages escalated to the escape path by the policy threshold
    /// before the plan's retry budget was exhausted.
    pub escalations: u64,
    /// Gateway re-elections performed (hierarchical fabrics).
    pub gateway_failovers: u64,
    /// Cycles from a flight first hitting a dead link to departing on its
    /// detour.
    pub detect_to_reroute: Log2Histogram,
}

impl RecoveryStats {
    /// True when no recovery action was ever taken.
    pub fn is_quiet(&self) -> bool {
        self.reroutes == 0
            && self.detour_extra_hops == 0
            && self.reroute_failed == 0
            && self.escalations == 0
            && self.gateway_failovers == 0
            && self.detect_to_reroute.count() == 0
    }

    /// Zeroes every counter (warmup boundary).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled_and_transparent() {
        let policy = RecoveryPolicy::default();
        assert!(!policy.is_enabled());
        assert_eq!(
            policy.effective_max_attempts(RetryPolicy::default()),
            Some(16),
            "a disabled policy must not perturb the plan's retry budget"
        );
        assert_eq!(
            policy.effective_max_attempts(RetryPolicy { max_attempts: None }),
            None
        );
    }

    #[test]
    fn escalation_clamps_the_retry_budget() {
        let policy: RecoveryPolicy = "escalate=3".parse().unwrap();
        assert_eq!(
            policy.effective_max_attempts(RetryPolicy::default()),
            Some(3)
        );
        // Escalation also bounds an unbounded (retry=inf) plan.
        assert_eq!(
            policy.effective_max_attempts(RetryPolicy { max_attempts: None }),
            Some(3)
        );
        // A plan budget tighter than the threshold wins.
        let loose: RecoveryPolicy = "escalate=30".parse().unwrap();
        assert_eq!(
            loose.effective_max_attempts(RetryPolicy::default()),
            Some(16)
        );
    }

    #[test]
    fn spec_round_trips_every_clause_kind() {
        let policy = RecoveryPolicy::parse("reroute; rehome; failover; escalate=5").unwrap();
        assert!(policy.reroute && policy.rehome && policy.failover);
        assert_eq!(policy.escalate, Some(5));
        assert_eq!(RecoveryPolicy::parse("all").unwrap(), RecoveryPolicy::all());
        assert_eq!(
            RecoveryPolicy::parse("").unwrap(),
            RecoveryPolicy::default()
        );
    }

    #[test]
    fn spec_rejects_malformed_clauses_with_offsets() {
        for bad in ["bogus", "escalate=", "escalate=x", "escalate=0", "rehome!"] {
            assert!(
                RecoveryPolicy::parse(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
        let err = RecoveryPolicy::parse("reroute; bogus").unwrap_err();
        assert!(err.contains("`bogus`"), "names the clause: {err}");
        assert!(err.contains("at byte 9"), "locates the clause: {err}");
    }

    #[test]
    fn stats_quiet_and_reset() {
        let mut a = RecoveryStats::default();
        assert!(a.is_quiet());
        a.reroutes = 2;
        a.detect_to_reroute.record(7);
        assert!(!a.is_quiet());
        a.reset();
        assert!(a.is_quiet());
    }
}
