//! The flit-mesh engine behind Table I's "Mesh" and "SMART" rows.
//!
//! [`MeshNoc`] steps single-flit messages over the mesh one cycle at a
//! time. Each cycle the ready flights arbitrate oldest first, by
//! `(submitted_at, id)`: a flight claims consecutive free directed links
//! up to its run limit and stalls when it loses the first one. The same
//! stepper is both baselines:
//!
//! * the **contended mesh** ([`MeshNoc::contended`]): one router cycle
//!   plus one link cycle per hop. This is the mesh that Fig 11(c) loads
//!   with synthetic traffic.
//! * **SMART** ([`MeshNoc::new`], alias [`SmartNoc`](crate::smart::SmartNoc)):
//!   single-cycle bypass runs of up to `HPCmax` hops; see [`crate::smart`].
//!
//! | | contended mesh | SMART |
//! | --- | --- | --- |
//! | SA-G setup cycle before the first run | no | yes |
//! | links claimed per run | 1 | up to `HPCmax` |
//! | cycles per run | 2 + that link's degradation | 1 + the run's summed degradation |
//! | `link_busy` per link crossed | 2 + its degradation | 1 |
//! | a run that ends before the destination | a normal hop | latches: the flit counts as stalled |
//!
//! Injected outages, detours, backoff and the escape path are the same
//! for both. In `contention_free` mode every message instead sails
//! through at 2 cycles/hop, in closed form: the generous baseline the
//! paper grants the `distributed` configuration ("we place enough
//! buffers and links in the system to prevent link contention", §IV).

use crate::message::{Delivery, Message};
use crate::topology::Links;
use crate::{FaultState, Interconnect, NocStats};
use nocstar_faults::DiagSnapshot;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Calendar, Coord, MeshShape};

/// Cycles per hop: one for the router, one for the link.
pub const CYCLES_PER_HOP: u64 = 2;

#[derive(Debug, Clone)]
struct Flight {
    msg: Message,
    tiles: Vec<Coord>,
    // The router the flit sits at; it has left the network once
    // `pos + 1 == tiles.len()`.
    pos: usize,
    ready_at: Cycle,
    submitted_at: Cycle,
    // False until SMART's SA-G setup cycle has passed.
    injected: bool,
    stalled: bool,
    fault_attempts: u64,
    // First cycle an outage blocked this flight (recovery's detect time);
    // cleared once a detour departs.
    blocked_at: Option<Cycle>,
}

/// The mesh network model: contended, contention-free, or SMART.
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
/// assert_eq!(d[0].at(), Cycle::new(6 * CYCLES_PER_HOP)); // 6 hops
/// ```
#[derive(Debug, Clone)]
pub struct MeshNoc {
    links: Links,
    contention_free: bool,
    /// Links one run may claim: 1 on the contended mesh, `HPCmax` on SMART.
    hpc_max: usize,
    /// SMART's setup cycle and single-cycle bypass runs (the module
    /// table's right column) instead of buffered 2-cycle hops.
    bypass: bool,
    flights: Vec<Flight>,
    /// Per-link round stamp: a link is claimed this cycle iff its stamp
    /// equals `round`, so nothing is cleared between cycles.
    claimed: Vec<u64>,
    round: u64,
    /// This cycle's ready flights, oldest first (reused across cycles).
    order: Vec<usize>,
    /// Scheduled `(message, submitted_at, stalled)`: latency and
    /// `no_contention` are recorded at delivery.
    arrivals: Calendar<(Message, Cycle, bool)>,
    stats: NocStats,
    /// Also the hierarchical fabric's block when this is its overlay.
    pub(crate) faults: FaultState,
}

impl MeshNoc {
    fn build(mesh: MeshShape, hpc_max: usize, bypass: bool) -> Self {
        let links = Links::new(mesh);
        Self {
            stats: NocStats::with_links(links.count()),
            claimed: vec![0; links.count()],
            links,
            contention_free: false,
            hpc_max,
            bypass,
            flights: Vec::new(),
            round: 0,
            order: Vec::new(),
            arrivals: Calendar::new(),
            faults: FaultState::default(),
        }
    }

    /// A mesh with per-link contention (used under synthetic load).
    pub fn contended(mesh: MeshShape) -> Self {
        Self::build(mesh, 1, false)
    }

    /// The paper's idealized mesh: enough buffering that no message ever
    /// stalls; latency is purely `2 x hops`.
    pub fn contention_free(mesh: MeshShape) -> Self {
        let mut noc = Self::contended(mesh);
        noc.contention_free = true;
        noc
    }

    /// A SMART bypass mesh with the given maximum hops per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `hpc_max` is zero.
    pub fn new(mesh: MeshShape, hpc_max: usize) -> Self {
        assert!(hpc_max > 0, "HPCmax must be at least 1");
        Self::build(mesh, hpc_max, true)
    }

    /// The mesh shape this network spans.
    pub fn mesh(&self) -> MeshShape {
        self.links.mesh()
    }

    /// Cycles a lone message on an idle, fault-free network takes to
    /// cross `hops` links: 2 per hop on the mesh; on SMART, the SA-G setup
    /// cycle plus `ceil(hops / HPCmax)` bypass runs.
    pub fn uncontended_latency(&self, hops: u64) -> Cycles {
        Cycles::new(match (hops, self.bypass) {
            (0, _) => 0,
            (_, true) => 1 + hops.div_ceil(self.hpc_max as u64),
            (_, false) => CYCLES_PER_HOP * hops,
        })
    }

    fn step_flights(&mut self, cycle: Cycle) {
        if self.flights.is_empty() {
            return;
        }
        // Oldest-first arbitration per directed link.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..self.flights.len()).filter(|&i| self.flights[i].ready_at <= cycle));
        order.sort_by_key(|&i| (self.flights[i].submitted_at, self.flights[i].msg.id));
        self.round += 1;
        let now = cycle.value();
        let run_cycles = if self.bypass { 1 } else { CYCLES_PER_HOP };
        for &i in &order {
            let f = &mut self.flights[i];
            if !f.injected {
                // SA-G: the setup request propagates this cycle.
                f.injected = true;
                f.ready_at = cycle + Cycles::ONE;
                continue;
            }
            // Claim consecutive free, live links up to the run limit;
            // degraded links stay claimable but add their penalty to the
            // run. Testing the claim before the outage is the same as the
            // reverse: a link is claimed only after passing the outage
            // test this cycle, and `link_outage` depends only on
            // (link, cycle).
            let limit = self.hpc_max.min(f.tiles.len() - 1 - f.pos);
            let (mut run, mut penalty, mut outaged) = (0, 0u64, false);
            while run < limit {
                let hop = f.pos + run;
                let link = self
                    .links
                    .link_between(f.tiles[hop], f.tiles[hop + 1])
                    .index();
                if self.claimed[link] == self.round {
                    break;
                }
                if self.faults.plan.link_outage(link, now) {
                    outaged = run == 0;
                    break;
                }
                let extra = self.faults.plan.link_degrade(link, now);
                self.claimed[link] = self.round;
                let busy = if self.bypass {
                    1
                } else {
                    extra.saturating_add(CYCLES_PER_HOP)
                };
                self.stats.link_busy[link] = self.stats.link_busy[link].saturating_add(busy);
                penalty = penalty.saturating_add(extra);
                run += 1;
            }
            if outaged {
                self.blocked_by_outage(i, cycle);
                continue;
            }
            if run == 0 {
                // An older flight holds the first link: retry next cycle.
                f.ready_at = cycle + Cycles::ONE;
                f.stalled = true;
                self.stats.retries += 1;
                continue;
            }
            self.stats.grants += run as u64;
            if penalty > 0 {
                self.faults.stats.degraded_traversals += 1;
            }
            f.pos += run;
            let at = cycle.saturating_add(Cycles::new(penalty.saturating_add(run_cycles)));
            if f.pos + 1 == f.tiles.len() {
                self.arrivals.push(at, (f.msg, f.submitted_at, f.stalled));
            } else {
                // A bypass run cut short latches at the blocking router.
                f.stalled |= self.bypass;
                f.ready_at = at;
            }
        }
        self.order = order;
        self.flights.retain(|f| f.pos + 1 < f.tiles.len());
    }

    /// Flight `i`'s next link is down at `cycle`. With a re-routing
    /// policy it detours around the outage; otherwise it backs off, and
    /// once the (possibly escalation-clamped) retry budget is spent it
    /// escapes over the buffered maintenance path, so it is never lost.
    fn blocked_by_outage(&mut self, i: usize, cycle: Cycle) {
        let now = cycle.value();
        let f = &mut self.flights[i];
        f.fault_attempts += 1;
        f.stalled = true;
        f.blocked_at.get_or_insert(cycle);
        self.stats.retries += 1;
        let faults = &mut self.faults;
        faults.stats.link_blocked += 1;
        let remaining = f.tiles.len() - 1 - f.pos;
        if faults.policy.reroute {
            let (cur, dst) = (f.tiles[f.pos], f.tiles[f.tiles.len() - 1]);
            let plan = &faults.plan;
            if let Some(path) = self
                .links
                .detour(cur, dst, |l| plan.link_outage(l.index(), now))
            {
                let rs = &mut faults.recovery;
                rs.reroutes += 1;
                rs.detour_extra_hops += (path.len() - 1).saturating_sub(remaining) as u64;
                f.tiles.truncate(f.pos + 1);
                f.tiles.extend(path.into_iter().skip(1));
                // Picking the detour costs one decision cycle.
                f.ready_at = cycle + Cycles::ONE;
                if let Some(b) = f.blocked_at.take() {
                    rs.detect_to_reroute.record((f.ready_at - b).value());
                }
                return;
            }
            faults.recovery.reroute_failed += 1;
        }
        if let Some(wait) = faults.backoff_or_escape(f.fault_attempts, f.msg.id) {
            f.ready_at = cycle + Cycles::new(wait);
        } else {
            let arrival = cycle + Cycles::new(CYCLES_PER_HOP * remaining as u64 + 1);
            // The escape path delivers it; the flight leaves the mesh.
            f.pos = f.tiles.len() - 1;
            self.arrivals.push(arrival, (f.msg, f.submitted_at, true));
        }
    }
}

impl Interconnect for MeshNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.arrivals.push(now, (msg, now, false));
            return;
        }
        if self.contention_free {
            let (plan, policy) = (&self.faults.plan, self.faults.policy);
            if plan.is_empty() {
                let hops = self.links.mesh().hops(msg.src, msg.dst) as u64;
                let at = now + Cycles::new(hops * CYCLES_PER_HOP);
                self.arrivals.push(at, (msg, now, false));
                return;
            }
            // Even the idealized mesh honors injected faults: departure
            // waits out any outage on the path, and degraded links add
            // their per-traversal penalty.
            let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
            let now_v = now.value();
            let statically_blocked = (policy.reroute || policy.escalate.is_some())
                && tiles.windows(2).any(|pair| {
                    let link = self.links.link_between(pair[0], pair[1]).index();
                    plan.link_outage(link, now_v)
                });
            if statically_blocked {
                // Closed loop: instead of waiting out the outage window,
                // detour around it (one decision cycle), or escalate to
                // the buffered escape path after a bounded backoff.
                let static_hops = tiles.len() - 1;
                if policy.reroute {
                    let detour = self.links.detour(tiles[0], tiles[static_hops], |l| {
                        plan.link_outage(l.index(), now_v)
                    });
                    if let Some(path) = detour {
                        let hops = path.len() - 1;
                        let mut extra = 0u64;
                        let mut degraded = false;
                        for pair in path.windows(2) {
                            let link = self.links.link_between(pair[0], pair[1]).index();
                            let d = plan.link_degrade(link, now_v.saturating_add(1));
                            degraded |= d > 0;
                            extra = extra.saturating_add(d);
                        }
                        let (fs, rs) = (&mut self.faults.stats, &mut self.faults.recovery);
                        if degraded {
                            fs.degraded_traversals += 1;
                        }
                        fs.link_blocked += 1;
                        rs.reroutes += 1;
                        rs.detour_extra_hops += (hops - static_hops) as u64;
                        rs.detect_to_reroute.record(1);
                        let travel = extra.saturating_add(1 + hops as u64 * CYCLES_PER_HOP);
                        let arrival = now.saturating_add(Cycles::new(travel));
                        self.arrivals.push(arrival, (msg, now, true));
                        return;
                    }
                    self.faults.recovery.reroute_failed += 1;
                }
                if policy.escalate.is_some() {
                    // No fault-free path exists: emulate the bounded retry
                    // ladder, then deliver over the buffered escape path.
                    let faults = &mut self.faults;
                    let k = policy
                        .effective_max_attempts(faults.plan.retry)
                        .unwrap_or(1);
                    let mut wait = 0u64;
                    for attempt in 1..=k {
                        wait += faults.plan.backoff(attempt, msg.id);
                    }
                    faults.stats.link_blocked += 1;
                    faults.stats.backoff_cycles += wait;
                    faults.stats.fallbacks += 1;
                    faults.stats.retries_per_fallback.record(k);
                    faults.recovery.escalations += 1;
                    let arrival = now + Cycles::new(wait + static_hops as u64 * CYCLES_PER_HOP + 1);
                    self.arrivals.push(arrival, (msg, now, true));
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
                let clear = self.faults.plan.outage_clear_at(link, start);
                if clear > start {
                    blocked = true;
                    start = clear;
                }
                let d = self.faults.plan.link_degrade(link, start);
                degraded |= d > 0;
                extra = extra.saturating_add(d);
            }
            if blocked {
                self.faults.stats.link_blocked += 1;
            }
            if degraded {
                self.faults.stats.degraded_traversals += 1;
            }
            let travel = extra.saturating_add(hops * CYCLES_PER_HOP);
            let arrival = Cycle::new(start).saturating_add(Cycles::new(travel));
            self.arrivals.push(arrival, (msg, now, blocked));
            return;
        }
        let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
        self.flights.push(Flight {
            msg,
            tiles,
            pos: 0,
            ready_at: now,
            submitted_at: now,
            injected: !self.bypass,
            stalled: false,
            fault_attempts: 0,
            blocked_at: None,
        });
    }

    fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
        self.step_flights(cycle);
        while let Some((at, (msg, submitted_at, stalled))) = self.arrivals.pop_due(cycle) {
            self.stats.delivered += 1;
            self.stats.latency.record(at - submitted_at);
            if !stalled {
                self.stats.no_contention += 1;
            }
            out.push(Delivery::new(msg, at));
        }
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flight_min = self.flights.iter().map(|f| f.ready_at).min();
        flight_min
            .into_iter()
            .chain(self.arrivals.next_time())
            .min()
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.faults.reset_stats();
    }

    fn fault_state(&self) -> Option<&FaultState> {
        Some(&self.faults)
    }

    fn fault_state_mut(&mut self) -> Option<&mut FaultState> {
        Some(&mut self.faults)
    }

    fn fault_links(&self) -> usize {
        self.links.count()
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let pending_messages = self
            .flights
            .iter()
            .map(|f| f.msg.pending(f.submitted_at, f.fault_attempts))
            .collect();
        self.faults
            .snapshot(cycle, pending_messages, self.links.count(), |_| (0, None))
    }
}

mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use nocstar_faults::RecoveryPolicy;
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
        assert_eq!(d[0].at(), Cycle::new(40 + 6 + 3));
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
        assert_eq!(d[0].at(), Cycle::new(1 + 10));
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
            drain(&mut noc)[0].at()
        };
        let mut noc = MeshNoc::contended(shape);
        noc.install_faults("link:*@0-1000000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let closed = drain(&mut noc)[0].at();
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
        assert!(d[0].at() < Cycle::new(1000), "must not wait out the outage");
        assert_eq!(noc.recovery_stats().unwrap().escalations, 1);

        let mut noc = MeshNoc::contention_free(shape);
        noc.install_faults("link:0@0-1000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(2, 0, 3));
        let d = drain(&mut noc);
        // 1 detect cycle + 5-hop detour x 2 cycles.
        assert_eq!(d[0].at(), Cycle::new(1 + 10));
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
            drain(&mut noc)[0].at()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn contention_free_latency_is_two_cycles_per_hop() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(8, 4));
        noc.submit(Cycle::new(10), msg(1, 0, 31)); // 7 + 3 = 10 hops
        let d = drain(&mut noc);
        assert_eq!(d[0].at(), Cycle::new(10 + 20));
    }

    #[test]
    fn contended_uncongested_matches_contention_free() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d[0].at(), Cycle::new(6)); // 3 hops x 2 cycles
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn a_lone_message_takes_exactly_the_uncontended_latency() {
        // Every hop count on an 8x8 mesh (0..=14 from corner 0), on the
        // contended mesh and on SMART at three run limits.
        let shape = MeshShape::new(8, 8);
        let engines: [fn(MeshShape) -> MeshNoc; 4] = [
            MeshNoc::contended,
            |m| MeshNoc::new(m, 1),
            |m| MeshNoc::new(m, 2),
            |m| MeshNoc::new(m, 8),
        ];
        for engine in engines {
            for dst in 0..64 {
                let mut noc = engine(shape);
                noc.submit(Cycle::new(5), msg(1, 0, dst));
                let d = drain(&mut noc);
                let hops = shape.hops(CoreId::new(0), CoreId::new(dst)) as u64;
                assert_eq!(d[0].at(), Cycle::new(5) + noc.uncontended_latency(hops));
            }
        }
    }

    #[test]
    fn shared_link_causes_a_stall() {
        // Both messages start by crossing link 1->2 in the same cycle.
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 1, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].at(), Cycle::new(4)); // 2 hops * 2
        assert!(d[1].at() > d[0].at());
        assert!(noc.stats().retries > 0);
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn same_cycle_deliveries_come_in_push_order() {
        // The remote flit is scheduled at cycle 0 for cycle 2; the local
        // one is pushed at cycle 2, after it.
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 0, 1));
        assert!(noc.advance(Cycle::ZERO).is_empty());
        assert!(noc.advance(Cycle::new(1)).is_empty());
        noc.submit(Cycle::new(2), msg(2, 3, 3));
        let d = noc.advance(Cycle::new(2));
        let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at().value())).collect();
        assert_eq!(order, [(1, 2), (2, 2)]);
    }

    #[test]
    fn local_messages_deliver_immediately() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 4));
        noc.submit(Cycle::new(2), msg(1, 5, 5));
        let d = noc.advance(Cycle::new(2));
        assert_eq!(d[0].at(), Cycle::new(2));
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
            let mut seen = std::collections::BTreeSet::new();
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
