//! On-chip networks for the NOCSTAR simulator.
//!
//! The paper's contribution is a TLB-specialized interconnect; this crate
//! implements it and the baselines it is compared against (Table I):
//!
//! * [`message`] — single-flit TLB request/response/invalidation messages.
//! * [`topology`] — directed mesh links and XY path-to-link mapping.
//! * [`bus`] — a shared-bus baseline (latency-friendly, bandwidth-starved).
//! * [`mesh`] — a traditional multi-hop mesh (1-cycle router + 1-cycle
//!   link per hop), with per-link contention or the paper's generous
//!   contention-free variant used for the `distributed` baseline.
//! * [`smart`] — the SMART NoC \[48\]: dynamic multi-hop bypass up to
//!   `HPCmax` hops per cycle, falling back to latching under contention.
//!   It is the contended mesh's flit engine with longer runs.
//! * [`arbiter`] — NOCSTAR's per-link arbiters: static priority, rotated
//!   round-robin every 1000 cycles to prevent starvation (§III-B2).
//! * [`hier`] — a two-level hierarchical fabric for 1000+ tiles: per-cluster
//!   bus/crossbar fabrics stitched together by a mesh or SMART overlay
//!   between cluster gateways.
//! * [`circuit`] — the NOCSTAR fabric itself: latchless switches,
//!   same-cycle full-path acquisition (AND of per-link grants), retry on
//!   partial failure, single-cycle traversal up to `HPCmax` hops, and
//!   one-way vs. round-trip acquire modes (Fig 16 left).
//! * [`traffic`] — the uniform-random synthetic-traffic harness of Fig 11(c).
//! * [`latency`] — the analytical per-hop latency model behind Fig 11(a).
//!
//! All network models implement [`Interconnect`], a cycle-batch API: the
//! simulator submits messages, then advances the network one active cycle
//! at a time, collecting deliveries. Same-cycle arbitration is resolved for
//! all competing messages together, which is what makes NOCSTAR's
//! "all links in one cycle or retry" semantics exact.
//!
//! The plumbing around arbitration exists once. A private `arrivals`
//! module holds the two delivery disciplines: circuit, mesh and SMART pop
//! one arrival queue in `(arrival cycle, push order)` order, while bus and
//! crossbar land their local lane before the medium's same-cycle arrival.
//! Mesh, SMART, circuit and bus keep their fault plan, recovery policy and
//! the counters of both in one [`FaultState`]; the hierarchical fabric
//! uses its overlay's block and counts its gateway failovers there.
//!
//! # Examples
//!
//! ```
//! use nocstar_noc::circuit::{AcquireMode, CircuitFabric};
//! use nocstar_noc::message::{Message, MsgKind};
//! use nocstar_noc::Interconnect;
//! use nocstar_types::{CoreId, Cycle, MeshShape};
//!
//! let mut fabric = CircuitFabric::new(MeshShape::square_for(16), 16, AcquireMode::OneWay);
//! let msg = Message::new(1, CoreId::new(0), CoreId::new(15), MsgKind::TlbRequest);
//! fabric.submit(Cycle::new(10), msg);
//! assert!(fabric.advance(Cycle::new(10)).is_empty()); // path setup at cycle 10
//! let deliveries = fabric.advance(Cycle::new(11));
//! // 1 cycle of path setup + 1 cycle traversal: arrives at cycle 11.
//! assert_eq!(deliveries[0].at(), Cycle::new(11));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arbiter;
mod arrivals;
pub mod bus;
pub mod circuit;
pub mod hier;
pub mod latency;
pub mod mesh;
pub mod message;
pub mod smart;
pub mod topology;
pub mod traffic;

pub use bus::BusNoc;
pub use circuit::CircuitFabric;
pub use hier::{HierNoc, InterKind, IntraKind, XbarNoc};
pub use mesh::MeshNoc;
pub use message::{Delivery, Message, MsgKind};
pub use smart::SmartNoc;

use nocstar_faults::{
    DiagSnapshot, FaultPlan, FaultStats, LinkState, PendingMessage, RecoveryPolicy, RecoveryStats,
    SimError,
};
use nocstar_stats::latency::LatencyRecorder;
use nocstar_types::time::{Cycle, Cycles};

/// Cycle-batch interface shared by every network model.
///
/// Contract: `advance(c)` must be called with non-decreasing cycles, and a
/// message must be submitted with `now` no later than the next `advance`
/// cycle. `next_activity` tells the event-driven simulator the earliest
/// cycle at which calling `advance` can make progress, so idle stretches
/// are skipped.
pub trait Interconnect: std::fmt::Debug {
    /// Submits a message that wants to depart at `now` (or as soon after
    /// as arbitration allows).
    fn submit(&mut self, now: Cycle, msg: Message);

    /// Resolves one cycle of network activity; returns messages delivered
    /// at or before `cycle` (local messages deliver in the same cycle).
    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery>;

    /// The earliest cycle at which the network has work to do, if any.
    fn next_activity(&self) -> Option<Cycle>;

    /// Aggregate network statistics.
    fn stats(&self) -> &NocStats;

    /// Clears aggregate statistics (e.g. after simulation warmup).
    fn reset_stats(&mut self);

    /// The model's fault block, if it models injected faults (the
    /// default has none).
    fn fault_state(&self) -> Option<&FaultState> {
        None
    }

    /// Mutable access to [`fault_state`](Self::fault_state).
    fn fault_state_mut(&mut self) -> Option<&mut FaultState> {
        None
    }

    /// How many directed links an installed plan's `link:L` clauses can
    /// name, `0..fault_links()` (the default, for models that take no
    /// link faults, is none).
    fn fault_links(&self) -> usize {
        0
    }

    /// Installs a deterministic fault plan. Models without a fault block
    /// ignore it.
    fn install_faults(&mut self, plan: FaultPlan) {
        if let Some(f) = self.fault_state_mut() {
            f.plan = plan;
        }
    }

    /// Fault-action statistics, if this model tracks them.
    fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault_state().map(|f| &f.stats)
    }

    /// Installs a closed-loop recovery policy to act on the installed
    /// fault plan (detour re-routing, escalating retry, gateway
    /// failover). Models without a fault block ignore it, and a policy
    /// without a non-empty plan never changes behaviour.
    fn install_recovery(&mut self, policy: RecoveryPolicy) {
        if let Some(f) = self.fault_state_mut() {
            f.policy = policy;
        }
    }

    /// Recovery-action statistics, if this model tracks them.
    fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.fault_state().map(|f| &f.recovery)
    }

    /// A diagnostic snapshot of the network's internal state at `cycle`
    /// (pending messages, per-link occupancy). The default reports only
    /// the cycle; fault-aware models override with full state.
    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        DiagSnapshot {
            cycle: cycle.value(),
            ..DiagSnapshot::default()
        }
    }
}

/// Drives a network until it quiesces, collecting deliveries in arrival
/// order. Returns [`SimError::Livelock`] with the model's diagnostic
/// snapshot if the network is still active after `max_iters` advance
/// calls — the structured replacement for the old
/// `panic!("... did not quiesce")` test helpers.
///
/// # Errors
///
/// [`SimError::Livelock`] when the network does not quiesce in time.
pub fn drain_until_idle<N: Interconnect + ?Sized>(
    noc: &mut N,
    from: Cycle,
    max_iters: u64,
) -> Result<Vec<Delivery>, Box<SimError>> {
    let mut out = Vec::new();
    let mut cycle = from;
    for _ in 0..max_iters {
        match noc.next_activity() {
            None => return Ok(out),
            Some(next) => {
                cycle = cycle.max(next);
                out.extend(noc.advance(cycle));
                cycle += Cycles::ONE;
            }
        }
    }
    let mut snapshot = noc.diagnostics(cycle);
    snapshot.pending_messages.truncate(32);
    Err(Box::new(SimError::Livelock {
        stalled_for: cycle.value().saturating_sub(from.value()),
        snapshot,
    }))
}

/// A fabric's fault block: the installed plan and recovery policy, and
/// the actions each caused since the last reset.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// Injected fault schedule (empty by default: zero perturbation).
    pub(crate) plan: FaultPlan,
    /// Closed-loop recovery policy (disabled by default).
    pub(crate) policy: RecoveryPolicy,
    /// Fault actions taken so far.
    pub(crate) stats: FaultStats,
    /// Recovery actions taken so far.
    pub(crate) recovery: RecoveryStats,
}

impl FaultState {
    /// Zeroes both counter blocks (warmup boundary); plan and policy stay.
    pub(crate) fn reset_stats(&mut self) {
        self.stats.reset();
        self.recovery.reset();
    }

    /// Books a message's `attempts`-th fault-blocked try. Returns the
    /// backoff to wait before the next one, or `None` once the retry
    /// budget is spent and the message must escape. The budget is the
    /// plan's, clamped by the policy's escalation threshold; an escape
    /// the threshold caused counts as an escalation.
    pub(crate) fn backoff_or_escape(&mut self, attempts: u64, id: u64) -> Option<u64> {
        let budget = self.plan.retry.max_attempts;
        if self
            .policy
            .effective_max_attempts(self.plan.retry)
            .is_some_and(|m| attempts >= m)
        {
            if budget.is_none_or(|b| attempts < u64::from(b)) {
                self.recovery.escalations += 1;
            }
            self.stats.fallbacks += 1;
            self.stats.retries_per_fallback.record(attempts);
            return None;
        }
        let wait = self.plan.backoff(attempts, id);
        self.stats.backoff_cycles += wait;
        Some(wait)
    }

    /// A snapshot at `cycle` of `pending_messages` and `links` directed
    /// links, where `link(l)` gives link `l`'s `(busy_until, reserved_by)`
    /// and the plan gives its outage flag and the active clauses.
    pub(crate) fn snapshot(
        &self,
        cycle: Cycle,
        pending_messages: Vec<PendingMessage>,
        links: usize,
        link: impl Fn(usize) -> (u64, Option<u64>),
    ) -> DiagSnapshot {
        let now = cycle.value();
        let links = (0..links)
            .map(|l| {
                let (busy_until, reserved_by) = link(l);
                LinkState {
                    link: l,
                    busy_until,
                    reserved_by,
                    faulted: self.plan.link_outage(l, now),
                }
            })
            .collect();
        DiagSnapshot {
            cycle: now,
            pending_messages,
            links,
            active_faults: self.plan.active_at(now),
            ..DiagSnapshot::default()
        }
    }
}

/// Statistics common to all network models.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// End-to-end network latency per delivered message (submit → arrival).
    pub latency: LatencyRecorder,
    /// Messages that were granted their full path on the first attempt
    /// with no buffering anywhere (NOCSTAR / SMART) or that never stalled
    /// (mesh).
    pub no_contention: u64,
    /// Total delivered messages.
    pub delivered: u64,
    /// Path-setup retries (NOCSTAR) or per-hop stalls (mesh / SMART).
    pub retries: u64,
    /// Arbitration grants: full-path acquisitions (NOCSTAR), claimed hops
    /// (mesh / SMART), or bus ownership grants.
    pub grants: u64,
    /// Priority-rotation epochs crossed while advancing (NOCSTAR only).
    pub rotations: u64,
    /// Busy cycles per directed link, indexed by `LinkId` (the bus models
    /// its single shared medium as link 0). A link's utilization over a
    /// measurement window is `link_busy[l] / window`.
    pub link_busy: Vec<u64>,
}

impl NocStats {
    /// Stats for a network with `links` directed links, all counters zero.
    pub fn with_links(links: usize) -> Self {
        Self {
            link_busy: vec![0; links],
            ..Self::default()
        }
    }

    /// Zeroes every counter while keeping the per-link vector's length
    /// (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        let links = self.link_busy.len();
        *self = Self::with_links(links);
    }

    /// Accumulates another window's counters into this one (used when
    /// sampled replay merges per-window network statistics,
    /// `SAMPLING.md §4`). Link-busy vectors are summed elementwise; if
    /// the lengths differ (e.g. one side defaulted to zero links) the
    /// longer vector wins and the shorter one is added into its prefix.
    pub fn merge(&mut self, other: &Self) {
        self.latency.merge(&other.latency);
        self.no_contention += other.no_contention;
        self.delivered += other.delivered;
        self.retries += other.retries;
        self.grants += other.grants;
        self.rotations += other.rotations;
        if self.link_busy.len() < other.link_busy.len() {
            self.link_busy.resize(other.link_busy.len(), 0);
        }
        for (mine, theirs) in self.link_busy.iter_mut().zip(&other.link_busy) {
            *mine += theirs;
        }
    }

    /// Fraction of messages that experienced no contention at all.
    pub fn no_contention_fraction(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.no_contention as f64 / self.delivered as f64
        }
    }

    /// Per-link utilization over a measurement window of `window` cycles
    /// (empty when the window is zero).
    pub fn link_utilization(&self, window: u64) -> Vec<f64> {
        if window == 0 {
            return Vec::new();
        }
        self.link_busy
            .iter()
            .map(|&b| b as f64 / window as f64)
            .collect()
    }
}
