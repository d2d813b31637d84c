//! A traditional multi-hop mesh NoC (Table I's "Mesh" row).
//!
//! Each hop costs one router cycle plus one link cycle. In `contended`
//! mode, flits arbitrate per directed link each cycle (oldest first) and
//! stall on loss — this is the mesh that Fig 11(c) loads with synthetic
//! traffic. In `contention_free` mode every message sails through at
//! 2 cycles/hop, which is the generous baseline the paper grants the
//! `distributed` configuration ("we place enough buffers and links in the
//! system to prevent link contention", §IV).

use crate::message::{Delivery, Message};
use crate::topology::Links;
use crate::{Interconnect, NocStats};
use nocstar_faults::{
    DiagSnapshot, FaultPlan, FaultStats, LinkState, PendingMessage, RecoveryPolicy, RecoveryStats,
};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Coord, MeshShape};
use std::collections::{BTreeSet, BinaryHeap};

/// Cycles per hop: one for the router, one for the link.
pub const CYCLES_PER_HOP: u64 = 2;

#[derive(Debug, Clone)]
struct Flight {
    msg: Message,
    tiles: Vec<Coord>,
    pos: usize,
    ready_at: Cycle,
    submitted_at: Cycle,
    stalled: bool,
    fault_attempts: u64,
    // First cycle an outage blocked this flight (recovery's detect time);
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

/// The mesh network model.
///
/// # Examples
///
/// ```
/// use nocstar_noc::mesh::{MeshNoc, CYCLES_PER_HOP};
/// use nocstar_noc::message::{Message, MsgKind};
/// use nocstar_noc::Interconnect;
/// use nocstar_types::{CoreId, Cycle, MeshShape};
///
/// let mut mesh = MeshNoc::contention_free(MeshShape::new(4, 4));
/// mesh.submit(Cycle::ZERO, Message::new(1, CoreId::new(0), CoreId::new(15), MsgKind::TlbRequest));
/// let d = mesh.advance(Cycle::new(12));
/// assert_eq!(d[0].at, Cycle::new(6 * CYCLES_PER_HOP)); // 6 hops
/// ```
#[derive(Debug, Clone)]
pub struct MeshNoc {
    links: Links,
    contention_free: bool,
    flights: Vec<Flight>,
    scheduled: BinaryHeap<Scheduled>,
    seq: u64,
    stats: NocStats,
    faults: FaultPlan,
    fstats: FaultStats,
    recovery: RecoveryPolicy,
    rstats: RecoveryStats,
}

impl MeshNoc {
    /// A mesh with per-link contention (used under synthetic load).
    pub fn contended(mesh: MeshShape) -> Self {
        let links = Links::new(mesh);
        Self {
            stats: NocStats::with_links(links.count()),
            links,
            contention_free: false,
            flights: Vec::new(),
            scheduled: BinaryHeap::new(),
            seq: 0,
            faults: FaultPlan::default(),
            fstats: FaultStats::default(),
            recovery: RecoveryPolicy::default(),
            rstats: RecoveryStats::default(),
        }
    }

    /// The paper's idealized mesh: enough buffering that no message ever
    /// stalls; latency is purely `2 x hops`.
    pub fn contention_free(mesh: MeshShape) -> Self {
        let mut noc = Self::contended(mesh);
        noc.contention_free = true;
        noc
    }

    /// The mesh shape this network spans.
    pub fn mesh(&self) -> MeshShape {
        self.links.mesh()
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
        // Oldest-first arbitration per directed link.
        let mut order: Vec<usize> = (0..self.flights.len())
            .filter(|&i| self.flights[i].ready_at <= cycle)
            .collect();
        order.sort_by_key(|&i| (self.flights[i].submitted_at, self.flights[i].msg.id));

        let mut claimed: BTreeSet<usize> = BTreeSet::new();
        let mut done: Vec<usize> = Vec::new();
        let now = cycle.value();
        for &i in &order {
            let (from, to) = {
                let f = &self.flights[i];
                (f.tiles[f.pos], f.tiles[f.pos + 1])
            };
            let link = self.links.link_between(from, to).index();
            if !self.faults.is_empty() && self.faults.link_outage(link, now) {
                // The next hop is down: with a re-routing policy, detour
                // around the outage; otherwise back off, then escape over
                // the maintenance path once the retry budget is spent.
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
                    let arrival = cycle + Cycles::new(CYCLES_PER_HOP * remaining + 1);
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
                        // The policy's threshold, not the plan's budget,
                        // triggered the escape.
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
            if claimed.contains(&link) {
                let f = &mut self.flights[i];
                f.ready_at = cycle + Cycles::ONE;
                f.stalled = true;
                self.stats.retries += 1;
                continue;
            }
            claimed.insert(link);
            let extra = if self.faults.is_empty() {
                0
            } else {
                self.faults.link_degrade(link, now)
            };
            if extra > 0 {
                self.fstats.degraded_traversals += 1;
            }
            self.stats.grants += 1;
            self.stats.link_busy[link] += CYCLES_PER_HOP + extra;
            let f = &mut self.flights[i];
            f.pos += 1;
            if f.pos + 1 == f.tiles.len() {
                let arrival = cycle + Cycles::new(CYCLES_PER_HOP + extra);
                let (msg, submitted_at, stalled) = (f.msg, f.submitted_at, f.stalled);
                done.push(i);
                self.schedule(msg, arrival, submitted_at, stalled);
            } else {
                f.ready_at = cycle + Cycles::new(CYCLES_PER_HOP + extra);
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

impl Interconnect for MeshNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.schedule(msg, now, now, false);
            return;
        }
        if self.contention_free {
            if self.faults.is_empty() {
                let hops = self.links.mesh().hops(msg.src, msg.dst) as u64;
                self.schedule(msg, now + Cycles::new(hops * CYCLES_PER_HOP), now, false);
                return;
            }
            // Even the idealized mesh honors injected faults: departure
            // waits out any outage on the path, and degraded links add
            // their per-traversal penalty.
            let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
            let now_v = now.value();
            let statically_blocked = (self.recovery.reroute || self.recovery.escalate.is_some())
                && tiles.windows(2).any(|pair| {
                    let link = self.links.link_between(pair[0], pair[1]).index();
                    self.faults.link_outage(link, now_v)
                });
            if statically_blocked {
                // Closed loop: instead of waiting out the outage window,
                // detour around it (one decision cycle), or escalate to
                // the buffered escape path after a bounded backoff.
                let static_hops = tiles.len() - 1;
                if self.recovery.reroute {
                    let detour = self.links.detour(tiles[0], tiles[static_hops], |l| {
                        self.faults.link_outage(l.index(), now_v)
                    });
                    if let Some(path) = detour {
                        let hops = path.len() - 1;
                        let mut extra = 0u64;
                        let mut degraded = false;
                        for pair in path.windows(2) {
                            let link = self.links.link_between(pair[0], pair[1]).index();
                            let d = self.faults.link_degrade(link, now_v + 1);
                            degraded |= d > 0;
                            extra += d;
                        }
                        if degraded {
                            self.fstats.degraded_traversals += 1;
                        }
                        self.fstats.link_blocked += 1;
                        self.rstats.reroutes += 1;
                        self.rstats.detour_extra_hops += (hops - static_hops) as u64;
                        self.rstats.detect_to_reroute.record(1);
                        let arrival = now + Cycles::new(1 + hops as u64 * CYCLES_PER_HOP + extra);
                        self.schedule(msg, arrival, now, true);
                        return;
                    }
                    self.rstats.reroute_failed += 1;
                }
                if self.recovery.escalate.is_some() {
                    // No fault-free path exists: emulate the bounded retry
                    // ladder, then deliver over the buffered escape path.
                    let k = self
                        .recovery
                        .effective_max_attempts(self.faults.retry)
                        .unwrap_or(1);
                    let mut wait = 0u64;
                    for attempt in 1..=k {
                        wait += self.faults.backoff(attempt, msg.id);
                    }
                    self.fstats.link_blocked += 1;
                    self.fstats.backoff_cycles += wait;
                    self.fstats.fallbacks += 1;
                    self.fstats.retries_per_fallback.record(k);
                    self.rstats.escalations += 1;
                    let arrival = now + Cycles::new(wait + static_hops as u64 * CYCLES_PER_HOP + 1);
                    self.schedule(msg, arrival, now, true);
                    return;
                }
                // Re-routing armed but the mesh is disconnected and no
                // escalation: fall through to the open-loop wait.
            }
            let hops = tiles.len().saturating_sub(1) as u64;
            let mut start = now.value();
            let mut extra = 0u64;
            let mut blocked = false;
            let mut degraded = false;
            for pair in tiles.windows(2) {
                let link = self.links.link_between(pair[0], pair[1]).index();
                let clear = self.faults.outage_clear_at(link, start);
                if clear > start {
                    blocked = true;
                    start = clear;
                }
                let d = self.faults.link_degrade(link, start);
                degraded |= d > 0;
                extra += d;
            }
            if blocked {
                self.fstats.link_blocked += 1;
            }
            if degraded {
                self.fstats.degraded_traversals += 1;
            }
            let arrival = Cycle::new(start) + Cycles::new(hops * CYCLES_PER_HOP + extra);
            self.schedule(msg, arrival, now, blocked);
            return;
        }
        let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
        self.flights.push(Flight {
            msg,
            tiles,
            pos: 0,
            ready_at: now,
            submitted_at: now,
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

    fn drain(noc: &mut MeshNoc) -> Vec<Delivery> {
        crate::drain_until_idle(noc, Cycle::ZERO, 100_000).expect("mesh did not quiesce")
    }

    #[test]
    fn contended_outage_delays_and_escape_delivers() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.install_faults("link:*@0-1000000=off; retry=3".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1, "escape path must deliver");
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn contention_free_waits_out_outages_and_pays_degradation() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(4, 1));
        noc.install_faults("link:*@0-40=off; link:*@0-100=+1".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3)); // 3 hops
        let d = drain(&mut noc);
        // Departs at 40 (outage clear), 3 hops x 2 cycles + 3 x 1 extra.
        assert_eq!(d[0].at, Cycle::new(40 + 6 + 3));
        let fs = noc.fault_stats().unwrap();
        assert_eq!(fs.link_blocked, 1);
        assert_eq!(fs.degraded_traversals, 1);
    }

    #[test]
    fn reroute_detours_a_contended_flight_around_an_outage() {
        // 4x4 mesh, single dead link on the XY route: the detour adds two
        // hops instead of burning the whole retry budget.
        let mut noc = MeshNoc::contended(MeshShape::new(4, 4));
        noc.install_faults("link:0@0-1000000=off".parse().unwrap());
        noc.install_recovery("reroute".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.reroutes, 1);
        assert_eq!(rs.detour_extra_hops, 2);
        assert_eq!(rs.detect_to_reroute.count(), 1);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 0);
        // 1 detect cycle + 5 detour hops x 2 cycles.
        assert_eq!(d[0].at, Cycle::new(1 + 10));
    }

    #[test]
    fn escalation_beats_the_full_retry_ladder_when_disconnected() {
        // Whole-fabric outage: no detour exists, so recovery escalates to
        // the escape path after 3 attempts instead of 16.
        let shape = MeshShape::new(4, 1);
        let open = {
            let mut noc = MeshNoc::contended(shape);
            noc.install_faults("link:*@0-1000000=off".parse().unwrap());
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at
        };
        let mut noc = MeshNoc::contended(shape);
        noc.install_faults("link:*@0-1000000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let closed = drain(&mut noc)[0].at;
        assert!(
            closed < open,
            "escalation must beat the open loop: {closed:?} vs {open:?}"
        );
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.escalations, 1);
        assert_eq!(rs.reroutes, 0);
        assert!(rs.reroute_failed > 0);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn contention_free_recovery_avoids_waiting_out_the_window() {
        // The faultsweep plan: every link down for a long window. Open
        // loop waits until cycle 1000; escalation escapes in tens of
        // cycles; with a partial outage, the detour wins instead.
        let shape = MeshShape::new(4, 4);
        let mut noc = MeshNoc::contention_free(shape);
        noc.install_faults("link:*@0-1000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert!(d[0].at < Cycle::new(1000), "must not wait out the outage");
        assert_eq!(noc.recovery_stats().unwrap().escalations, 1);

        let mut noc = MeshNoc::contention_free(shape);
        noc.install_faults("link:0@0-1000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(2, 0, 3));
        let d = drain(&mut noc);
        // 1 detect cycle + 5-hop detour x 2 cycles.
        assert_eq!(d[0].at, Cycle::new(1 + 10));
        assert_eq!(noc.recovery_stats().unwrap().reroutes, 1);
    }

    #[test]
    fn disabled_recovery_changes_nothing() {
        let run = |recover: bool| {
            let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
            noc.install_faults("link:*@0-40=off".parse().unwrap());
            if recover {
                noc.install_recovery(RecoveryPolicy::default());
            }
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn contention_free_latency_is_two_cycles_per_hop() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(8, 4));
        noc.submit(Cycle::new(10), msg(1, 0, 31)); // 7 + 3 = 10 hops
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(10 + 20));
    }

    #[test]
    fn contended_uncongested_matches_contention_free() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(6)); // 3 hops x 2 cycles
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn shared_link_causes_a_stall() {
        // Both messages start by crossing link 1->2 in the same cycle.
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 1, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].at, Cycle::new(4)); // 2 hops * 2
        assert!(d[1].at > d[0].at);
        assert!(noc.stats().retries > 0);
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn local_messages_deliver_immediately() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 4));
        noc.submit(Cycle::new(2), msg(1, 5, 5));
        let d = noc.advance(Cycle::new(2));
        assert_eq!(d[0].at, Cycle::new(2));
    }

    #[test]
    fn stats_record_latency() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(4, 4));
        noc.submit(Cycle::ZERO, msg(1, 0, 1));
        drain(&mut noc);
        assert_eq!(noc.stats().latency.mean(), 2.0);
        assert_eq!(noc.stats().delivered, 1);
    }

    proptest::proptest! {
        /// No message is lost or duplicated under arbitrary traffic.
        #[test]
        fn prop_mesh_delivers_everything(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 0u64..30), 1..50),
            contended in proptest::prelude::any::<bool>(),
        ) {
            let shape = MeshShape::square_for(16);
            let mut noc = if contended {
                MeshNoc::contended(shape)
            } else {
                MeshNoc::contention_free(shape)
            };
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
