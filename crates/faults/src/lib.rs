//! Deterministic fault injection and structured simulation errors.
//!
//! NOCSTAR's claim rests on the interconnect staying near-single-cycle
//! under contention, so the simulator must be able to *stress* the fabric
//! — degrade links, deny circuit setups, spike walk latency, take slices
//! offline, storm shootdowns — and survive with a report instead of a
//! `panic!` or a hang. This crate defines:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic schedule of fault
//!   windows, queried by cycle. An empty plan is guaranteed zero-cost and
//!   bit-identical to a fault-free run.
//! * [`SimError`] — the structured error a simulation returns instead of
//!   panicking: livelock/deadlock/budget/protocol failures, each carrying
//!   a [`DiagSnapshot`] of pending messages, per-link state and
//!   event-queue depth at the moment of failure.
//! * [`FaultStats`] — counters and histograms every fault and recovery
//!   action feeds (denied setups, blocked links, escape fallbacks,
//!   retry/backoff accounting), harvested into the metrics registry.
//! * [`recovery`] — the closed-loop response layer: a [`RecoveryPolicy`]
//!   arms adaptive re-routing, slice re-homing, gateway failover and
//!   escalating retry against an installed plan, with every action
//!   accounted in [`RecoveryStats`].
//!
//! Determinism: every decision is a pure function of `(plan, cycle,
//! message id)`. The same plan and seed always produce byte-identical
//! reports; the plan holds no RNG state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod recovery;

pub use recovery::{RecoveryPolicy, RecoveryStats};

use nocstar_stats::metrics::Log2Histogram;
use std::fmt;
use std::str::FromStr;

/// A half-open window of simulated cycles `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleWindow {
    /// First cycle the window covers.
    pub start: u64,
    /// First cycle *after* the window.
    pub end: u64,
}

impl CycleWindow {
    /// Builds a window; `end <= start` yields an empty window.
    pub const fn new(start: u64, end: u64) -> Self {
        Self { start, end }
    }

    /// Whether `cycle` falls inside the window.
    #[inline]
    pub const fn contains(&self, cycle: u64) -> bool {
        self.start <= cycle && cycle < self.end
    }

    /// The number of cycles covered.
    pub const fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the window covers no cycles.
    pub const fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl fmt::Display for CycleWindow {
    /// The window as a spec writes it, `start-end`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.start, self.end)
    }
}

/// What an injected link fault does to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// The link is unusable: no flit may be granted across it.
    Outage,
    /// The link still works but each traversal costs this many extra
    /// cycles (marginal voltage, re-timed repeater, partial lane failure).
    Degrade(u64),
}

impl fmt::Display for LinkFaultKind {
    /// The effect as a spec writes it, `off` or `+N`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Outage => f.write_str("off"),
            Self::Degrade(extra) => write!(f, "+{extra}"),
        }
    }
}

/// One link fault: a kind applied to a link (or all links) over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// Directed link index, or `None` for every link.
    pub link: Option<usize>,
    /// When the fault is active.
    pub window: CycleWindow,
    /// What the fault does.
    pub kind: LinkFaultKind,
}

impl LinkFault {
    #[inline]
    fn applies(&self, link: usize, cycle: u64) -> bool {
        self.window.contains(cycle) && self.link.is_none_or(|l| l == link)
    }
}

/// A page-walk latency spike: every walk started inside the window costs
/// `multiplier` times its modelled latency (DRAM refresh storms, thermal
/// throttling of the memory controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkSpike {
    /// When walks are slow.
    pub window: CycleWindow,
    /// Latency multiplier (`>= 1`; `1` is a no-op).
    pub multiplier: u64,
}

/// A slice-offline window: the L2 structure serves no lookups and accepts
/// no inserts (miss-only degraded mode); translations fall back to the
/// page walker. Invalidations still apply, so correctness is preserved
/// when the slice comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOffline {
    /// Structure index (slice or bank).
    pub slice: usize,
    /// When the slice is offline.
    pub window: CycleWindow,
}

/// A whole-cluster-offline window for hierarchical organizations: every
/// slice of cluster `cluster` (under clusters of `size` contiguous
/// tiles) is offline, miss-only, over the window. Self-contained — the
/// clause carries its own cluster size, so parsing stays order-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterOffline {
    /// Cluster index.
    pub cluster: usize,
    /// Tiles per cluster the index refers to.
    pub size: usize,
    /// When the cluster is offline.
    pub window: CycleWindow,
}

/// How a fault-blocked message retries before escaping to the slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Fault-caused attempts before a message gives up on the fast fabric
    /// and is delivered over the buffered multi-hop escape path. `None`
    /// retries forever (a permanent outage then livelocks — which the
    /// simulator's watchdog reports as [`SimError::Livelock`]).
    pub max_attempts: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: Some(16),
        }
    }
}

/// A deterministic, seeded schedule of injected faults.
///
/// All queries are pure functions of the plan and the cycle, so a plan
/// can be shared (cloned) between the simulator core and the network
/// models without coordination.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Jitter seed for retry backoff (not an RNG: backoff is a hash of
    /// `(seed, message id, attempt)`).
    pub seed: u64,
    /// Link outages and degradations.
    pub link_faults: Vec<LinkFault>,
    /// Windows during which *all* circuit-setup arbitration is denied
    /// (control-network brownout): every full-path acquisition fails and
    /// messages fall back to retry-with-backoff, then the escape path.
    pub setup_denials: Vec<CycleWindow>,
    /// Page-walk latency spikes.
    pub walk_spikes: Vec<WalkSpike>,
    /// Slice-offline (miss-only) windows.
    pub slice_offline: Vec<SliceOffline>,
    /// Whole-cluster-offline windows (hierarchical organizations).
    pub cluster_offline: Vec<ClusterOffline>,
    /// Shootdown storms: every shootdown initiated inside a storm window
    /// is escalated to a full IPI broadcast, layering relay traffic on
    /// the configured leader policy.
    pub shootdown_storms: Vec<CycleWindow>,
    /// Retry bound for fault-blocked messages.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// True when the plan can never perturb a run. Fast paths key off
    /// this so an empty plan is bit-identical to no plan at all.
    pub fn is_empty(&self) -> bool {
        self.link_faults.iter().all(|f| f.window.is_empty())
            && self.setup_denials.iter().all(|w| w.is_empty())
            && self
                .walk_spikes
                .iter()
                .all(|s| s.window.is_empty() || s.multiplier <= 1)
            && self.slice_offline.iter().all(|s| s.window.is_empty())
            && self.cluster_offline.iter().all(|c| c.window.is_empty())
            && self.shootdown_storms.iter().all(|w| w.is_empty())
    }

    /// Whether directed link `link` is in outage at `cycle`.
    #[inline]
    pub fn link_outage(&self, link: usize, cycle: u64) -> bool {
        self.link_faults
            .iter()
            .any(|f| f.kind == LinkFaultKind::Outage && f.applies(link, cycle))
    }

    /// Extra traversal cycles for `link` at `cycle` (0 when healthy).
    /// Overlapping degradations add up.
    #[inline]
    pub fn link_degrade(&self, link: usize, cycle: u64) -> u64 {
        self.link_faults
            .iter()
            .filter(|f| f.applies(link, cycle))
            .map(|f| match f.kind {
                LinkFaultKind::Degrade(extra) => extra,
                LinkFaultKind::Outage => 0,
            })
            .sum()
    }

    /// The earliest cycle at or after `cycle` at which `link` is not in
    /// outage (chains overlapping windows; `cycle` itself if healthy).
    pub fn outage_clear_at(&self, link: usize, cycle: u64) -> u64 {
        let mut c = cycle;
        // Each iteration ends at least one window, so this terminates.
        for _ in 0..=self.link_faults.len() {
            let blocking = self
                .link_faults
                .iter()
                .filter(|f| f.kind == LinkFaultKind::Outage && f.applies(link, c))
                .map(|f| f.window.end)
                .max();
            match blocking {
                Some(end) => c = end,
                None => break,
            }
        }
        c
    }

    /// Whether circuit-setup arbitration is denied at `cycle`.
    #[inline]
    pub fn setup_denied(&self, cycle: u64) -> bool {
        self.setup_denials.iter().any(|w| w.contains(cycle))
    }

    /// Walk-latency multiplier at `cycle` (`1` when no spike is active;
    /// overlapping spikes take the largest multiplier).
    #[inline]
    pub fn walk_multiplier(&self, cycle: u64) -> u64 {
        self.walk_spikes
            .iter()
            .filter(|s| s.window.contains(cycle))
            .map(|s| s.multiplier)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Whether structure `slice` is offline (miss-only) at `cycle`,
    /// either individually or because its whole cluster is.
    #[inline]
    pub fn slice_offline(&self, slice: usize, cycle: u64) -> bool {
        self.slice_offline
            .iter()
            .any(|s| s.slice == slice && s.window.contains(cycle))
            || self
                .cluster_offline
                .iter()
                .any(|c| slice / c.size == c.cluster && c.window.contains(cycle))
    }

    /// Whether a shootdown storm is active at `cycle`.
    #[inline]
    pub fn storm_active(&self, cycle: u64) -> bool {
        self.shootdown_storms.iter().any(|w| w.contains(cycle))
    }

    /// Deterministic backoff (in cycles) before retry number `attempt` of
    /// message `id`: capped exponential plus a seeded jitter that breaks
    /// up convoys of messages blocked by the same fault.
    #[inline]
    pub fn backoff(&self, attempt: u64, id: u64) -> u64 {
        let exp = 1u64 << attempt.min(6);
        let hash = (self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(attempt)
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
        exp + (hash >> 61)
    }

    /// Human-readable labels of every fault class active at `cycle`, for
    /// diagnostic snapshots.
    pub fn active_at(&self, cycle: u64) -> Vec<String> {
        let mut out = Vec::new();
        for f in &self.link_faults {
            if f.window.contains(cycle) {
                let link = f.link.map_or_else(|| "*".to_string(), |l| l.to_string());
                out.push(format!("link:{link}={}", f.kind));
            }
        }
        if self.setup_denied(cycle) {
            out.push("setup-denial".to_string());
        }
        let mult = self.walk_multiplier(cycle);
        if mult > 1 {
            out.push(format!("walk=x{mult}"));
        }
        for s in &self.slice_offline {
            if s.window.contains(cycle) {
                out.push(format!("slice:{}=offline", s.slice));
            }
        }
        for c in &self.cluster_offline {
            if c.window.contains(cycle) {
                out.push(format!("cluster:{}/{}=offline", c.cluster, c.size));
            }
        }
        if self.storm_active(cycle) {
            out.push("shootdown-storm".to_string());
        }
        out.sort();
        out.dedup();
        out
    }

    /// Checks the plan against the system it is installed in: one with
    /// `links` directed links that link faults can name and `slices` L2
    /// structures (slices or banks). Every `link:L` clause must name a
    /// link below `links` (`link:*` always fits), every `slice:I` clause a
    /// structure below `slices`, and every `cluster:K/S` clause a cluster
    /// holding at least one structure (`K * S < slices`). A clause that
    /// fits nothing would silently inject nothing. A system without
    /// fault-injectable links (`links == 0`: no network) takes no link
    /// faults at all, so its link clauses are not checked, just as `deny`
    /// clauses are not checked against fabrics without circuit setup.
    ///
    /// # Errors
    ///
    /// Names the first clause that is out of range, link clauses first,
    /// then slice and cluster clauses, each kind in spec order.
    pub fn validate(&self, links: usize, slices: usize) -> Result<(), String> {
        // `None` (`link:*`) orders below every `Some`, so it always fits.
        let out_of_range = |f: &&LinkFault| links > 0 && f.link >= Some(links);
        if let Some(f) = self.link_faults.iter().find(out_of_range) {
            let link = f.link.unwrap_or_default();
            return Err(format!(
                "fault clause `link:{link}@{}={}` names link {link}, \
                 but the system has {links} fault-injectable links",
                f.window, f.kind
            ));
        }
        if let Some(s) = self.slice_offline.iter().find(|s| s.slice >= slices) {
            return Err(format!(
                "fault clause `slice:{}@{}` names structure {}, but the system has {slices}",
                s.slice, s.window, s.slice
            ));
        }
        if let Some(c) = self
            .cluster_offline
            .iter()
            .find(|c| c.cluster.saturating_mul(c.size) >= slices)
        {
            return Err(format!(
                "fault clause `cluster:{}/{}@{}` names cluster {}, \
                 but {slices} structures form {} clusters of {}",
                c.cluster,
                c.size,
                c.window,
                c.cluster,
                slices.div_ceil(c.size),
                c.size
            ));
        }
        Ok(())
    }

    /// Parses a fault-plan spec. Clauses are `;`-separated:
    ///
    /// | clause | meaning |
    /// |---|---|
    /// | `seed=N` | backoff-jitter seed |
    /// | `retry=N` \| `retry=inf` | escape after N fault retries / never |
    /// | `deny@S-E` | setup denial over cycles `[S, E)` |
    /// | `link:L@S-E=off` | outage of link `L` (or `*` = all links) |
    /// | `link:L@S-E=+N` | `N` extra cycles per traversal of link `L` |
    /// | `walk@S-E=xM` | walks started in `[S, E)` cost `M`x latency |
    /// | `slice:I@S-E` | structure `I` offline (miss-only) over `[S, E)` |
    /// | `cluster:K/S@A-B` | every slice of cluster `K` (size `S` tiles) offline over `[A, B)` |
    /// | `storm@S-E` | shootdowns in `[S, E)` escalate to IPI broadcast |
    ///
    /// # Errors
    ///
    /// Returns the first malformed clause together with its byte offset in
    /// the spec, so a typo inside a long plan is locatable at a glance.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        let mut offset = 0usize;
        for seg in spec.split(';') {
            let clause = seg.trim();
            if !clause.is_empty() {
                let at = offset + (seg.len() - seg.trim_start().len());
                plan.parse_clause(clause)
                    .map_err(|e| format!("bad fault clause `{clause}` at byte {at}: {e}"))?;
            }
            offset += seg.len() + 1;
        }
        Ok(plan)
    }

    fn parse_clause(&mut self, clause: &str) -> Result<(), String> {
        if let Some(v) = clause.strip_prefix("seed=") {
            self.seed = parse_u64(v)?;
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("retry=") {
            self.retry.max_attempts = if v == "inf" {
                None
            } else {
                let n = parse_u64(v)?;
                Some(
                    u32::try_from(n)
                        .map_err(|_| format!("retry count {n} exceeds {}", u32::MAX))?,
                )
            };
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("deny@") {
            self.setup_denials.push(parse_window(v)?);
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("storm@") {
            self.shootdown_storms.push(parse_window(v)?);
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("walk@") {
            let (win, eff) = v
                .split_once('=')
                .ok_or_else(|| "expected `walk@S-E=xM`".to_string())?;
            let mult = eff
                .strip_prefix('x')
                .ok_or_else(|| "walk effect must be `xM`".to_string())?;
            self.walk_spikes.push(WalkSpike {
                window: parse_window(win)?,
                multiplier: parse_u64(mult)?.max(1),
            });
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("cluster:") {
            let (sel, win) = v
                .split_once('@')
                .ok_or_else(|| "expected `cluster:K/S@A-B`".to_string())?;
            let (cluster, size) = sel
                .split_once('/')
                .ok_or_else(|| "expected cluster selector `K/S`".to_string())?;
            let size = parse_u64(size)? as usize;
            if size == 0 {
                return Err("cluster size must be nonzero".to_string());
            }
            self.cluster_offline.push(ClusterOffline {
                cluster: parse_u64(cluster)? as usize,
                size,
                window: parse_window(win)?,
            });
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("slice:") {
            let (idx, win) = v
                .split_once('@')
                .ok_or_else(|| "expected `slice:I@S-E`".to_string())?;
            self.slice_offline.push(SliceOffline {
                slice: parse_u64(idx)? as usize,
                window: parse_window(win)?,
            });
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("link:") {
            let (sel, rest) = v
                .split_once('@')
                .ok_or_else(|| "expected `link:L@S-E=off|+N`".to_string())?;
            let link = if sel == "*" {
                None
            } else {
                Some(parse_u64(sel)? as usize)
            };
            let (win, eff) = rest
                .split_once('=')
                .ok_or_else(|| "expected `link:L@S-E=off|+N`".to_string())?;
            let kind = if eff == "off" {
                LinkFaultKind::Outage
            } else if let Some(extra) = eff.strip_prefix('+') {
                LinkFaultKind::Degrade(parse_u64(extra)?)
            } else {
                return Err("link effect must be `off` or `+N`".to_string());
            };
            self.link_faults.push(LinkFault {
                link,
                window: parse_window(win)?,
                kind,
            });
            return Ok(());
        }
        Err("unknown clause".to_string())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| format!("`{s}` is not a number"))
}

fn parse_window(s: &str) -> Result<CycleWindow, String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("`{s}` is not a `start-end` window"))?;
    let (start, end) = (parse_u64(a)?, parse_u64(b)?);
    if end <= start {
        return Err(format!("window `{s}` is empty (end <= start)"));
    }
    Ok(CycleWindow::new(start, end))
}

/// Counters and histograms for every fault and recovery action a network
/// model takes. Harvested into the metrics registry when a fault plan is
/// installed (and only then, so fault-free reports are byte-identical).
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Full-path setups denied by an injected setup-denial window.
    pub denied_setups: u64,
    /// Per-attempt blocks caused by a link outage.
    pub link_blocked: u64,
    /// Messages that exhausted their fault-retry budget and were
    /// delivered over the buffered multi-hop escape path.
    pub fallbacks: u64,
    /// Traversals that crossed at least one degraded link.
    pub degraded_traversals: u64,
    /// Total cycles messages spent in injected retry backoff.
    pub backoff_cycles: u64,
    /// Distribution of fault-caused retries per escaped message.
    pub retries_per_fallback: Log2Histogram,
}

impl FaultStats {
    /// True when no fault action was ever taken.
    pub fn is_quiet(&self) -> bool {
        self.denied_setups == 0
            && self.link_blocked == 0
            && self.fallbacks == 0
            && self.degraded_traversals == 0
            && self.backoff_cycles == 0
    }

    /// Zeroes every counter (warmup boundary).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// One in-flight message at the moment a snapshot was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingMessage {
    /// Message (transaction) id.
    pub id: u64,
    /// Source tile index.
    pub src: usize,
    /// Destination tile index.
    pub dst: usize,
    /// Message kind label (e.g. `TlbRequest`).
    pub kind: String,
    /// Cycle the message was submitted.
    pub submitted_at: u64,
    /// Fault-caused retry attempts so far.
    pub attempts: u64,
}

/// One directed link's state at the moment a snapshot was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkState {
    /// Directed link index.
    pub link: usize,
    /// Last cycle the link carries a flit (inclusive).
    pub busy_until: u64,
    /// Message id holding a round-trip reservation, if any.
    pub reserved_by: Option<u64>,
    /// Whether an injected outage covers the link right now.
    pub faulted: bool,
}

/// A diagnostic snapshot attached to every [`SimError`]: enough state to
/// see *why* the simulation failed without re-running it under a
/// debugger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagSnapshot {
    /// Simulated cycle at the failure.
    pub cycle: u64,
    /// Events still queued in the simulation's event queue.
    pub event_queue_depth: usize,
    /// Transactions (lookups, inserts, invalidations) still in flight.
    pub inflight_transactions: usize,
    /// Hardware threads that had not finished their access quota.
    pub unfinished_threads: usize,
    /// Messages waiting inside the network model.
    pub pending_messages: Vec<PendingMessage>,
    /// Per-link occupancy/reservation/fault state.
    pub links: Vec<LinkState>,
    /// Fault classes active at the failure cycle.
    pub active_faults: Vec<String>,
}

impl fmt::Display for DiagSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{}: {} queued events, {} in-flight transactions, \
             {} unfinished threads, {} pending messages",
            self.cycle,
            self.event_queue_depth,
            self.inflight_transactions,
            self.unfinished_threads,
            self.pending_messages.len()
        )?;
        if !self.active_faults.is_empty() {
            write!(f, "; active faults: {}", self.active_faults.join(", "))?;
        }
        let busy = self
            .links
            .iter()
            .filter(|l| l.busy_until > self.cycle)
            .count();
        let reserved = self
            .links
            .iter()
            .filter(|l| l.reserved_by.is_some())
            .count();
        if busy + reserved > 0 {
            write!(f, "; links: {busy} busy, {reserved} reserved")?;
        }
        Ok(())
    }
}

/// A structured simulation failure. Replaces the old quiesce/reservation
/// panics and the event-loop stall panic: callers get a typed error with
/// a [`DiagSnapshot`] and (from the simulator) a partial report.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The simulation kept processing events but made no forward progress
    /// (no access completed) for `stalled_for` cycles — e.g. a permanent
    /// outage with an unbounded retry policy.
    Livelock {
        /// Cycles since the last completed access.
        stalled_for: u64,
        /// State at detection.
        snapshot: DiagSnapshot,
    },
    /// No pending events and no network activity while threads are
    /// unfinished: nothing can ever happen again.
    Deadlock {
        /// State at detection.
        snapshot: DiagSnapshot,
    },
    /// An injected fault forced the run to abort.
    FaultAborted {
        /// Why the run could not degrade gracefully.
        reason: String,
        /// State at the abort.
        snapshot: DiagSnapshot,
    },
    /// The configured cycle budget ([`max_cycles`]) was exhausted.
    ///
    /// [`max_cycles`]: SimError::CycleBudgetExceeded::budget
    CycleBudgetExceeded {
        /// The configured budget.
        budget: u64,
        /// State when the budget ran out.
        snapshot: DiagSnapshot,
    },
    /// An internal protocol invariant was violated (e.g. a response over
    /// a round-trip fabric with no reservation, or an event naming an
    /// unknown transaction).
    Protocol {
        /// What was violated.
        context: String,
        /// State at the violation.
        snapshot: DiagSnapshot,
    },
}

impl SimError {
    /// The diagnostic snapshot carried by every variant.
    pub fn snapshot(&self) -> &DiagSnapshot {
        match self {
            SimError::Livelock { snapshot, .. }
            | SimError::Deadlock { snapshot }
            | SimError::FaultAborted { snapshot, .. }
            | SimError::CycleBudgetExceeded { snapshot, .. }
            | SimError::Protocol { snapshot, .. } => snapshot,
        }
    }

    /// A stable short name for the variant (metrics labels, test
    /// assertions).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Livelock { .. } => "livelock",
            SimError::Deadlock { .. } => "deadlock",
            SimError::FaultAborted { .. } => "fault-aborted",
            SimError::CycleBudgetExceeded { .. } => "cycle-budget-exceeded",
            SimError::Protocol { .. } => "protocol",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Livelock {
                stalled_for,
                snapshot,
            } => write!(
                f,
                "livelock: no forward progress for {stalled_for} cycles ({snapshot})"
            ),
            SimError::Deadlock { snapshot } => {
                write!(
                    f,
                    "deadlock: no pending events or network activity ({snapshot})"
                )
            }
            SimError::FaultAborted { reason, snapshot } => {
                write!(f, "aborted by injected fault: {reason} ({snapshot})")
            }
            SimError::CycleBudgetExceeded { budget, snapshot } => {
                write!(f, "cycle budget of {budget} exceeded ({snapshot})")
            }
            SimError::Protocol { context, snapshot } => {
                write!(f, "protocol violation: {context} ({snapshot})")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.link_outage(0, 100));
        assert_eq!(plan.link_degrade(3, 100), 0);
        assert!(!plan.setup_denied(0));
        assert_eq!(plan.walk_multiplier(50), 1);
        assert!(!plan.slice_offline(2, 10));
        assert!(!plan.storm_active(10));
        assert!(plan.active_at(0).is_empty());
    }

    #[test]
    fn windows_are_half_open() {
        let w = CycleWindow::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert_eq!(w.len(), 10);
        assert!(CycleWindow::new(5, 5).is_empty());
    }

    #[test]
    fn link_queries_respect_selector_and_window() {
        let plan = FaultPlan {
            link_faults: vec![
                LinkFault {
                    link: Some(2),
                    window: CycleWindow::new(100, 200),
                    kind: LinkFaultKind::Outage,
                },
                LinkFault {
                    link: None,
                    window: CycleWindow::new(150, 160),
                    kind: LinkFaultKind::Degrade(3),
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.link_outage(2, 150));
        assert!(!plan.link_outage(1, 150));
        assert!(!plan.link_outage(2, 200));
        assert_eq!(plan.link_degrade(7, 155), 3);
        assert_eq!(plan.link_degrade(7, 160), 0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn outage_clear_at_chains_overlapping_windows() {
        let out = |s, e| LinkFault {
            link: Some(0),
            window: CycleWindow::new(s, e),
            kind: LinkFaultKind::Outage,
        };
        let plan = FaultPlan {
            link_faults: vec![out(10, 20), out(18, 30)],
            ..FaultPlan::default()
        };
        assert_eq!(plan.outage_clear_at(0, 5), 5);
        assert_eq!(plan.outage_clear_at(0, 12), 30);
        assert_eq!(plan.outage_clear_at(1, 12), 12);
    }

    #[test]
    fn walk_multiplier_takes_the_max_active_spike() {
        let plan = FaultPlan {
            walk_spikes: vec![
                WalkSpike {
                    window: CycleWindow::new(0, 100),
                    multiplier: 4,
                },
                WalkSpike {
                    window: CycleWindow::new(50, 60),
                    multiplier: 8,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.walk_multiplier(10), 4);
        assert_eq!(plan.walk_multiplier(55), 8);
        assert_eq!(plan.walk_multiplier(100), 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let plan = FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        };
        for attempt in 0..20u64 {
            let a = plan.backoff(attempt, 7);
            let b = plan.backoff(attempt, 7);
            assert_eq!(a, b, "backoff must be deterministic");
            assert!(a >= 1);
            assert!(a <= 64 + 7, "capped exponential plus 3-bit jitter");
        }
        assert!(plan.backoff(6, 1) > plan.backoff(0, 1));
    }

    #[test]
    fn spec_round_trips_every_clause_kind() {
        let plan = FaultPlan::parse(
            "seed=9; retry=4; deny@100-200; link:*@50-80=off; link:3@10-20=+2; \
             walk@0-1000=x8; slice:1@300-400; cluster:2/16@700-800; storm@500-600",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.retry.max_attempts, Some(4));
        assert!(plan.setup_denied(150));
        assert!(plan.link_outage(11, 60));
        assert_eq!(plan.link_degrade(3, 15), 2);
        assert_eq!(plan.walk_multiplier(500), 8);
        assert!(plan.slice_offline(1, 350));
        assert!(plan.storm_active(550));
        // Cluster 2 of size 16 covers slices 32..48, only inside its window.
        assert!(plan.slice_offline(32, 750));
        assert!(plan.slice_offline(47, 750));
        assert!(!plan.slice_offline(48, 750));
        assert!(!plan.slice_offline(32, 800));
        let inf: FaultPlan = "retry=inf".parse().unwrap();
        assert_eq!(inf.retry.max_attempts, None);
        assert!(inf.is_empty());
    }

    #[test]
    fn retry_counts_beyond_u32_are_rejected_not_truncated() {
        let max = FaultPlan::parse("retry=4294967295").unwrap();
        assert_eq!(max.retry.max_attempts, Some(u32::MAX));
        // 2^32 used to wrap to `Some(0)`: escape on the first fault.
        let err = FaultPlan::parse("retry=4294967296").unwrap_err();
        assert!(
            err.contains("`retry=4294967296`"),
            "names the clause: {err}"
        );
        assert!(err.contains("exceeds"), "explains the cause: {err}");
    }

    #[test]
    fn spec_rejects_malformed_clauses() {
        for bad in [
            "bogus",
            "deny@10",
            "deny@20-10",
            "link:x@0-5=off",
            "link:1@0-5=slow",
            "walk@0-5=8",
            "slice:@0-5",
            "seed=abc",
            "cluster:2@0-5",
            "cluster:2/0@0-5",
            "cluster:x/16@0-5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn parse_errors_name_the_clause_and_byte_offset() {
        // The second clause is the bad one; its `c` sits at byte 12.
        let err = FaultPlan::parse("deny@10-20; cluster:2@0-5; storm@0-5").unwrap_err();
        assert!(err.contains("`cluster:2@0-5`"), "names the clause: {err}");
        assert!(err.contains("at byte 12"), "locates the clause: {err}");
        assert!(err.contains("K/S"), "explains the expected shape: {err}");

        // A malformed slice clause deeper in the spec reports its own
        // offset, not the spec start.
        let spec = "seed=7; link:*@0-9=off; slice:x@0-5";
        let err = FaultPlan::parse(spec).unwrap_err();
        assert!(err.contains("`slice:x@0-5`"), "names the clause: {err}");
        let at = spec.find("slice:").unwrap();
        assert!(err.contains(&format!("at byte {at}")), "offset: {err}");
        assert!(err.contains("not a number"), "explains the cause: {err}");

        // Leading whitespace counts toward the offset of the clause body.
        let err = FaultPlan::parse("   slice:@0-5").unwrap_err();
        assert!(err.contains("at byte 3"), "skips leading spaces: {err}");

        // Cluster selectors with a zero size are named too.
        let err = FaultPlan::parse("cluster:1/0@0-5").unwrap_err();
        assert!(err.contains("`cluster:1/0@0-5`"), "{err}");
        assert!(err.contains("at byte 0"), "{err}");
        assert!(err.contains("nonzero"), "{err}");
    }

    #[test]
    fn validate_accepts_clauses_inside_the_system() {
        let plan = FaultPlan::parse(
            "link:*@0-10=off; link:47@0-10=+2; slice:15@0-10; cluster:3/4@0-10; \
             cluster:1/12@0-10; deny@0-10; walk@0-10=x2; storm@0-10",
        )
        .unwrap();
        assert_eq!(plan.validate(48, 16), Ok(()));
        // No links at all (no network): link clauses do not apply.
        let none = FaultPlan::parse("link:*@0-10=off; link:7@0-10=off; slice:0@0-10").unwrap();
        assert_eq!(none.validate(0, 1), Ok(()));
    }

    #[test]
    fn validate_names_the_first_out_of_range_clause() {
        let err = |spec: &str| {
            FaultPlan::parse(spec)
                .unwrap()
                .validate(48, 16)
                .unwrap_err()
        };
        let e = err("link:3@0-9=off; link:99999@0-100000=off; link:48@5-6=+2");
        assert!(e.contains("`link:99999@0-100000=off`"), "{e}");
        assert!(e.contains("48 fault-injectable links"), "{e}");
        let e = err("link:48@5-6=+2");
        assert!(e.contains("`link:48@5-6=+2`"), "{e}");
        let e = err("slice:2@0-5; slice:16@0-5");
        assert!(e.contains("`slice:16@0-5`"), "{e}");
        assert!(e.contains("has 16"), "{e}");
        let e = err("slice:99999@0-100000");
        assert!(e.contains("`slice:99999@0-100000`"), "{e}");
        let e = err("cluster:4/4@0-5");
        assert!(e.contains("`cluster:4/4@0-5`"), "{e}");
        assert!(e.contains("form 4 clusters of 4"), "{e}");
        // A cluster clause that overflows the index arithmetic is out of
        // range, not wrapped into range.
        let e = err("cluster:18446744073709551615/2@0-5");
        assert!(e.contains("cluster 18446744073709551615"), "{e}");
        // The one link of a bus is link 0.
        let bus = FaultPlan::parse("link:1@0-5=off").unwrap().validate(1, 4);
        assert!(bus.unwrap_err().contains("has 1 fault-injectable links"));
    }

    #[test]
    fn active_faults_are_labelled() {
        let plan =
            FaultPlan::parse("deny@0-10; slice:2@0-10; cluster:1/8@0-10; walk@0-10=x4").unwrap();
        let active = plan.active_at(5);
        assert!(active.contains(&"setup-denial".to_string()));
        assert!(active.contains(&"slice:2=offline".to_string()));
        assert!(active.contains(&"cluster:1/8=offline".to_string()));
        assert!(active.contains(&"walk=x4".to_string()));
        assert!(plan.active_at(10).is_empty());
    }

    #[test]
    fn sim_error_exposes_kind_and_snapshot() {
        let snap = DiagSnapshot {
            cycle: 123,
            unfinished_threads: 2,
            ..DiagSnapshot::default()
        };
        let e = SimError::Livelock {
            stalled_for: 999,
            snapshot: snap.clone(),
        };
        assert_eq!(e.kind(), "livelock");
        assert_eq!(e.snapshot(), &snap);
        let text = e.to_string();
        assert!(text.contains("999"));
        assert!(text.contains("@123"));
    }

    #[test]
    fn fault_stats_quiet_and_reset() {
        let mut s = FaultStats::default();
        assert!(s.is_quiet());
        s.denied_setups = 3;
        s.retries_per_fallback.record(4);
        assert!(!s.is_quiet());
        s.reset();
        assert!(s.is_quiet());
        assert_eq!(s.retries_per_fallback.count(), 0);
    }
}
