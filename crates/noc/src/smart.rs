//! The SMART NoC baseline (Krishna et al., HPCA 2013; paper Table I).
//!
//! SMART lets a flit dynamically construct a multi-hop bypass over a mesh:
//! after a one-cycle setup (SA-G), the flit covers up to `HPCmax` hops per
//! cycle as long as the routers along the run are not claimed by another
//! flit that cycle; on contention it latches at the blocking router and
//! continues next cycle. Unlike NOCSTAR, bypass runs are opportunistic —
//! partial progress is made rather than retrying the whole path.

use crate::message::{Delivery, Message};
use crate::topology::Links;
use crate::{Interconnect, NocStats};
use nocstar_faults::{
    DiagSnapshot, FaultPlan, FaultStats, LinkState, PendingMessage, RecoveryPolicy, RecoveryStats,
};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Coord, MeshShape};
use std::collections::{BTreeSet, BinaryHeap};

#[derive(Debug, Clone)]
struct Flight {
    msg: Message,
    tiles: Vec<Coord>,
    pos: usize,
    ready_at: Cycle,
    submitted_at: Cycle,
    injected: bool,
    stalled: bool,
    fault_attempts: u64,
    // First cycle an outage blocked this flit (recovery's detect time);
    // cleared once a detour departs.
    blocked_at: Option<Cycle>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: Cycle,
    seq: u64,
    msg: Message,
    submitted_at: Cycle,
    stalled: bool,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The SMART network model.
///
/// # Examples
///
/// ```
/// use nocstar_noc::smart::SmartNoc;
/// use nocstar_noc::message::{Message, MsgKind};
/// use nocstar_noc::Interconnect;
/// use nocstar_types::{CoreId, Cycle, MeshShape};
///
/// let mut smart = SmartNoc::new(MeshShape::new(8, 8), 8);
/// smart.submit(Cycle::ZERO, Message::new(1, CoreId::new(0), CoreId::new(63), MsgKind::TlbRequest));
/// let mut d = Vec::new();
/// for c in 0..4 {
///     d.extend(smart.advance(Cycle::new(c)));
/// }
/// // 14 hops at HPCmax=8: 1 setup + 2 bypass cycles.
/// assert_eq!(d[0].at, Cycle::new(3));
/// ```
#[derive(Debug, Clone)]
pub struct SmartNoc {
    links: Links,
    hpc_max: usize,
    flights: Vec<Flight>,
    scheduled: BinaryHeap<Scheduled>,
    seq: u64,
    stats: NocStats,
    faults: FaultPlan,
    fstats: FaultStats,
    recovery: RecoveryPolicy,
    rstats: RecoveryStats,
}

impl SmartNoc {
    /// Builds a SMART network with the given maximum hops per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `hpc_max` is zero.
    pub fn new(mesh: MeshShape, hpc_max: usize) -> Self {
        assert!(hpc_max > 0, "HPCmax must be at least 1");
        let links = Links::new(mesh);
        Self {
            stats: NocStats::with_links(links.count()),
            links,
            hpc_max,
            flights: Vec::new(),
            scheduled: BinaryHeap::new(),
            seq: 0,
            faults: FaultPlan::default(),
            fstats: FaultStats::default(),
            recovery: RecoveryPolicy::default(),
            rstats: RecoveryStats::default(),
        }
    }

    /// The configured maximum hops per cycle.
    pub fn hpc_max(&self) -> usize {
        self.hpc_max
    }

    fn schedule(&mut self, msg: Message, at: Cycle, submitted_at: Cycle, stalled: bool) {
        self.seq += 1;
        self.scheduled.push(Scheduled {
            at,
            seq: self.seq,
            msg,
            submitted_at,
            stalled,
        });
    }

    fn step_flights(&mut self, cycle: Cycle) {
        if self.flights.is_empty() {
            return;
        }
        let mut order: Vec<usize> = (0..self.flights.len())
            .filter(|&i| self.flights[i].ready_at <= cycle)
            .collect();
        // Oldest flit wins bypass arbitration.
        order.sort_by_key(|&i| (self.flights[i].submitted_at, self.flights[i].msg.id));

        let mut claimed: BTreeSet<usize> = BTreeSet::new();
        let mut done: Vec<usize> = Vec::new();
        for &i in &order {
            if !self.flights[i].injected {
                // SA-G: the setup request propagates this cycle.
                let f = &mut self.flights[i];
                f.injected = true;
                f.ready_at = cycle + Cycles::ONE;
                continue;
            }
            // Claim as many consecutive free, non-outaged links as
            // possible, up to HPCmax. Degraded links stay claimable but
            // add their penalty to this cycle's run.
            let now = cycle.value();
            let (run, links_to_claim, penalty, first_outaged) = {
                let f = &self.flights[i];
                let remaining = f.tiles.len() - 1 - f.pos;
                let mut run = 0usize;
                let mut to_claim = Vec::new();
                let mut penalty = 0u64;
                let mut first_outaged = false;
                while run < remaining && run < self.hpc_max {
                    let from = f.tiles[f.pos + run];
                    let to = f.tiles[f.pos + run + 1];
                    let link = self.links.link_between(from, to).index();
                    if claimed.contains(&link) {
                        break;
                    }
                    if !self.faults.is_empty() && self.faults.link_outage(link, now) {
                        first_outaged = run == 0;
                        break;
                    }
                    if !self.faults.is_empty() {
                        penalty += self.faults.link_degrade(link, now);
                    }
                    to_claim.push(link);
                    run += 1;
                }
                (run, to_claim, penalty, first_outaged)
            };
            if run == 0 && first_outaged {
                // Blocked by an injected outage, not by traffic: with a
                // re-routing policy, detour around the dead link; else
                // back off deterministically, and once the (possibly
                // escalation-clamped) retry budget is spent escape over
                // the buffered service path so the flit is never lost.
                {
                    let f = &mut self.flights[i];
                    f.fault_attempts += 1;
                    f.stalled = true;
                    if f.blocked_at.is_none() {
                        f.blocked_at = Some(cycle);
                    }
                }
                self.stats.retries += 1;
                self.fstats.link_blocked += 1;
                if self.recovery.reroute {
                    let (pos, cur, dst, old_remaining) = {
                        let f = &self.flights[i];
                        let last = f.tiles[f.tiles.len() - 1];
                        (f.pos, f.tiles[f.pos], last, f.tiles.len() - 1 - f.pos)
                    };
                    let detour = self
                        .links
                        .detour(cur, dst, |l| self.faults.link_outage(l.index(), now));
                    if let Some(path) = detour {
                        self.rstats.reroutes += 1;
                        self.rstats.detour_extra_hops +=
                            (path.len() - 1).saturating_sub(old_remaining) as u64;
                        let f = &mut self.flights[i];
                        f.tiles.truncate(pos + 1);
                        f.tiles.extend(path.into_iter().skip(1));
                        // Picking the detour costs one decision cycle.
                        f.ready_at = cycle + Cycles::ONE;
                        if let Some(b) = f.blocked_at.take() {
                            self.rstats
                                .detect_to_reroute
                                .record((f.ready_at - b).value());
                        }
                        continue;
                    }
                    self.rstats.reroute_failed += 1;
                }
                let max = self.recovery.effective_max_attempts(self.faults.retry);
                let f = &mut self.flights[i];
                if max.is_some_and(|m| f.fault_attempts >= m) {
                    let remaining = (f.tiles.len() - 1 - f.pos) as u64;
                    let arrival = cycle + Cycles::new(2 * remaining + 1);
                    let (msg, submitted_at, attempts) = (f.msg, f.submitted_at, f.fault_attempts);
                    done.push(i);
                    self.fstats.fallbacks += 1;
                    self.fstats.retries_per_fallback.record(attempts);
                    if self
                        .faults
                        .retry
                        .max_attempts
                        .is_none_or(|pm| attempts < u64::from(pm))
                    {
                        self.rstats.escalations += 1;
                    }
                    self.schedule(msg, arrival, submitted_at, true);
                } else {
                    let wait = self.faults.backoff(f.fault_attempts, f.msg.id);
                    f.ready_at = cycle + Cycles::new(wait);
                    self.fstats.backoff_cycles += wait;
                }
                continue;
            }
            if run == 0 {
                let f = &mut self.flights[i];
                f.ready_at = cycle + Cycles::ONE;
                f.stalled = true;
                self.stats.retries += 1;
                continue;
            }
            for &link in &links_to_claim {
                self.stats.link_busy[link] += 1;
            }
            self.stats.grants += run as u64;
            claimed.extend(links_to_claim);
            if penalty > 0 {
                self.fstats.degraded_traversals += 1;
            }
            let f = &mut self.flights[i];
            f.pos += run;
            if f.pos + 1 == f.tiles.len() {
                let arrival = cycle + Cycles::ONE + Cycles::new(penalty);
                let (msg, submitted_at, stalled) = (f.msg, f.submitted_at, f.stalled);
                done.push(i);
                self.schedule(msg, arrival, submitted_at, stalled);
            } else {
                f.stalled = true; // latched mid-path
                f.ready_at = cycle + Cycles::ONE + Cycles::new(penalty);
            }
        }
        let mut index = 0usize;
        self.flights.retain(|_| {
            let keep = !done.contains(&index);
            index += 1;
            keep
        });
    }
}

impl Interconnect for SmartNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.schedule(msg, now, now, false);
            return;
        }
        let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
        self.flights.push(Flight {
            msg,
            tiles,
            pos: 0,
            ready_at: now,
            submitted_at: now,
            injected: false,
            stalled: false,
            fault_attempts: 0,
            blocked_at: None,
        });
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        self.step_flights(cycle);
        let mut out = Vec::new();
        while self.scheduled.peek().is_some_and(|top| top.at <= cycle) {
            let Some(s) = self.scheduled.pop() else { break };
            self.stats.delivered += 1;
            self.stats.latency.record(s.at - s.submitted_at);
            if !s.stalled {
                self.stats.no_contention += 1;
            }
            out.push(Delivery {
                msg: s.msg,
                at: s.at,
            });
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flight_min = self.flights.iter().map(|f| f.ready_at).min();
        let sched_min = self.scheduled.peek().map(|s| s.at);
        match (flight_min, sched_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.fstats.reset();
        self.rstats.reset();
    }

    fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fstats)
    }

    fn install_recovery(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    fn recovery_stats(&self) -> Option<&RecoveryStats> {
        Some(&self.rstats)
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let now = cycle.value();
        let pending_messages = self
            .flights
            .iter()
            .map(|f| PendingMessage {
                id: f.msg.id,
                src: f.msg.src.index(),
                dst: f.msg.dst.index(),
                kind: format!("{:?}", f.msg.kind),
                submitted_at: f.submitted_at.value(),
                attempts: f.fault_attempts,
            })
            .collect();
        let links = (0..self.links.count())
            .map(|l| LinkState {
                link: l,
                busy_until: 0,
                reserved_by: None,
                faulted: self.faults.link_outage(l, now),
            })
            .collect();
        DiagSnapshot {
            cycle: now,
            pending_messages,
            links,
            active_faults: self.faults.active_at(now),
            ..DiagSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use nocstar_types::CoreId;

    fn msg(id: u64, src: usize, dst: usize) -> Message {
        Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest)
    }

    fn drain(noc: &mut SmartNoc) -> Vec<Delivery> {
        crate::drain_until_idle(noc, Cycle::ZERO, 100_000).expect("smart did not quiesce")
    }

    #[test]
    fn outage_blocks_then_recovers_without_losing_the_flit() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.install_faults("link:*@0-50=off".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        assert!(d[0].at >= Cycle::new(50));
        assert!(noc.fault_stats().unwrap().link_blocked > 0);
    }

    #[test]
    fn permanent_outage_escapes_after_retry_budget() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.install_faults("link:*@0-1000000=off; retry=3".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1, "escape path must deliver the flit");
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn reroute_detours_around_a_partial_outage() {
        // 4x4 mesh, first east link dead: the flit detours through the
        // next row instead of backing off.
        let mut noc = SmartNoc::new(MeshShape::new(4, 4), 8);
        noc.install_faults("link:0@0-1000000=off".parse().unwrap());
        noc.install_recovery("reroute".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.reroutes, 1);
        assert_eq!(rs.detour_extra_hops, 2);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 0);
        // Setup (1) + blocked detect (1) + 5-hop bypass run (1).
        assert_eq!(d[0].at, Cycle::new(3));
    }

    #[test]
    fn escalation_escapes_faster_than_the_plan_budget() {
        let shape = MeshShape::new(4, 1);
        let open = {
            let mut noc = SmartNoc::new(shape, 8);
            noc.install_faults("link:*@0-1000000=off".parse().unwrap());
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at
        };
        let mut noc = SmartNoc::new(shape, 8);
        noc.install_faults("link:*@0-1000000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let closed = drain(&mut noc)[0].at;
        assert!(closed < open, "{closed:?} vs {open:?}");
        assert_eq!(noc.recovery_stats().unwrap().escalations, 1);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn uncontended_latency_is_setup_plus_bypass_runs() {
        // 6 hops at HPCmax=8: 1 setup + 1 bypass cycle.
        let mut noc = SmartNoc::new(MeshShape::new(4, 4), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(2));
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn hpc_limits_bypass_length() {
        // 14 hops at HPCmax=4: 1 setup + ceil(14/4)=4 cycles.
        let mut noc = SmartNoc::new(MeshShape::new(8, 8), 4);
        noc.submit(Cycle::ZERO, msg(1, 0, 63));
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(5));
    }

    #[test]
    fn contention_latches_the_younger_flit_mid_path() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 2);
        let first = d.iter().find(|d| d.msg.id == 1).unwrap();
        let second = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert_eq!(first.at, Cycle::new(2));
        assert!(second.at > first.at);
        assert!(noc.stats().retries > 0);
    }

    #[test]
    fn partial_progress_beats_full_retry() {
        // Unlike NOCSTAR, a SMART flit blocked ahead still advances up to
        // the blocked router. Message 2's first link (1->2) conflicts with
        // message 1's run, but 2 advances as soon as 1's claim expires.
        let mut noc = SmartNoc::new(MeshShape::new(8, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 7));
        noc.submit(Cycle::ZERO, msg(2, 1, 7));
        let d = drain(&mut noc);
        let second = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert_eq!(second.at, Cycle::new(3)); // setup, blocked cycle 1, bypass cycle 2
    }

    #[test]
    fn local_messages_skip_setup() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 4), 8);
        noc.submit(Cycle::new(9), msg(1, 2, 2));
        let d = noc.advance(Cycle::new(9));
        assert_eq!(d[0].at, Cycle::new(9));
    }

    proptest::proptest! {
        /// No message is lost or duplicated under arbitrary traffic.
        #[test]
        fn prop_smart_delivers_everything(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 0u64..30), 1..50),
            contended in proptest::prelude::any::<bool>(),
        ) {
            let shape = MeshShape::square_for(16);
            let hpc = if contended { 2 } else { 8 };
            let mut noc = SmartNoc::new(shape, hpc);
            for (i, &(src, dst, at)) in sends.iter().enumerate() {
                noc.submit(Cycle::new(at), msg(i as u64, src, dst));
            }
            let mut seen = std::collections::HashSet::new();
            let mut cycle = Cycle::ZERO;
            for _ in 0..100_000 {
                match noc.next_activity() {
                    None => break,
                    Some(next) => {
                        cycle = cycle.max(next);
                        for d in noc.advance(cycle) {
                            proptest::prop_assert!(seen.insert(d.msg.id), "duplicate");
                        }
                        cycle += Cycles::ONE;
                    }
                }
            }
            proptest::prop_assert_eq!(seen.len(), sends.len());
            proptest::prop_assert_eq!(noc.next_activity(), None);
        }
    }
}
