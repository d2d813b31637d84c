//! The NOCSTAR circuit-switched interconnect (paper §III-B).
//!
//! Datapath: latchless mux switches let a flit traverse up to `HPCmax`
//! hops in a single cycle; a message is latched only at its destination.
//! Control path: before traversing, a core requests *every* link arbiter on
//! its XY path in the same cycle; the per-link grants are ANDed, and on any
//! partial failure the whole path is retried next cycle, so no packet ever
//! occupies a partial path. Arbiters share a static priority that rotates
//! every 1000 cycles ([`crate::arbiter::PriorityRotation`]), which makes
//! the fabric livelock-free (the top-priority requester wins all its links)
//! and starvation-free (everyone is eventually top priority).
//!
//! Fig 16 (left) compares two link-reservation modes, both implemented
//! here: [`AcquireMode::OneWay`] arbitrates request and response
//! separately; [`AcquireMode::RoundTrip`] acquires the forward *and*
//! reverse paths at request time and holds them until the response lands.

use crate::arbiter::PriorityRotation;
use crate::arrivals::Arrivals;
use crate::message::{Delivery, Message, MsgKind};
use crate::topology::{LinkId, Links};
use crate::{FaultState, Interconnect, NocStats};
use nocstar_faults::{DiagSnapshot, SimError};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::MeshShape;
use std::collections::BTreeMap;
use std::mem;

/// Link-reservation policy (Fig 16 left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcquireMode {
    /// Each message (request *and* response) arbitrates for its own
    /// one-way path. The paper finds this performs better.
    #[default]
    OneWay,
    /// The request acquires forward and reverse paths together and holds
    /// them until the response completes; the response needs no setup.
    RoundTrip,
}

#[derive(Debug, Clone)]
struct Pending {
    msg: Message,
    path: Vec<LinkId>,
    reverse_path: Vec<LinkId>,
    depart_at: Cycle,
    submitted_at: Cycle,
    attempts: u64,
    /// Retries caused by an injected fault (setup denial or link outage),
    /// counted against the plan's [`nocstar_faults::RetryPolicy`].
    fault_attempts: u64,
}

/// A round-trip transaction's links, held from request grant until its
/// response lands.
#[derive(Debug, Clone)]
struct Reservation {
    path: Vec<LinkId>,
    reverse_path: Vec<LinkId>,
}

/// Where a pending message stands in the current arbitration cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arb {
    /// Not yet due, or due but beyond the arbitration window.
    Idle,
    /// Requested its links this cycle.
    Active,
    /// Due, but an injected fault kept it from the arbiters.
    FaultBlocked,
    /// Won every link on its path this cycle.
    Proceeded,
}

/// The NOCSTAR fabric.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct CircuitFabric {
    links: Links,
    hpc_max: usize,
    mode: AcquireMode,
    prio: PriorityRotation,
    /// Per link: the arrival cycle of the last flit granted it. The link
    /// is free again *at* that cycle, since a setup in cycle `c` first
    /// traverses in `c + 1`.
    busy_until: Vec<Cycle>,
    /// Per link: message id holding a round-trip reservation, if any.
    reserved_by: Vec<Option<u64>>,
    reservations: BTreeMap<u64, Reservation>,
    pending: Vec<Pending>,
    /// Earliest `depart_at` in `pending` (`None` when it is empty).
    next_depart: Option<Cycle>,
    /// Arbitration cycles run so far. A link's `grant` entry is live only
    /// while its `grant_round` equals `round`, so no per-cycle reset.
    round: u64,
    grant_round: Vec<u64>,
    /// Per link: `(rank, message id, pending index)` of the requester it
    /// grants this round.
    grant: Vec<(usize, u64, usize)>,
    /// Scratch: each pending message's [`Arb`] state this cycle.
    arb: Vec<Arb>,
    /// Latency and `no_contention` are recorded at commit, so arrivals
    /// carry no tag.
    arrivals: Arrivals<()>,
    stats: NocStats,
    /// Last priority-rotation epoch seen by `advance` (for the rotation
    /// counter in [`NocStats`]).
    last_epoch: u64,
    /// When true, arbitration always succeeds (the `NOCSTAR (ideal)`
    /// series of Fig 15: zero contention, real setup + traversal cycles).
    contention_free: bool,
    faults: FaultState,
}

impl CircuitFabric {
    /// Builds a fabric over `mesh` with the given maximum hops per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `hpc_max` is zero.
    pub fn new(mesh: MeshShape, hpc_max: usize, mode: AcquireMode) -> Self {
        Self::with_rotation_period(mesh, hpc_max, mode, PriorityRotation::PAPER_PERIOD)
    }

    /// [`new`](Self::new) with an explicit priority-rotation period
    /// (ablation of the paper's 1000-cycle choice).
    ///
    /// # Panics
    ///
    /// Panics if `hpc_max` or `rotation_period` is zero.
    pub fn with_rotation_period(
        mesh: MeshShape,
        hpc_max: usize,
        mode: AcquireMode,
        rotation_period: u64,
    ) -> Self {
        assert!(hpc_max > 0, "HPCmax must be at least 1");
        let links = Links::new(mesh);
        let n = links.count().max(1);
        Self {
            prio: PriorityRotation::new(mesh.tiles(), rotation_period),
            stats: NocStats::with_links(links.count()),
            links,
            hpc_max,
            mode,
            busy_until: vec![Cycle::ZERO; n],
            reserved_by: vec![None; n],
            reservations: BTreeMap::new(),
            pending: Vec::new(),
            next_depart: None,
            round: 0,
            grant_round: vec![0; n],
            grant: vec![(0, 0, 0); n],
            arb: Vec::new(),
            arrivals: Arrivals::default(),
            last_epoch: 0,
            contention_free: false,
            faults: FaultState::default(),
        }
    }

    /// A contention-free variant: the `NOCSTAR (ideal)` bars of Fig 15.
    pub fn ideal(mesh: MeshShape, hpc_max: usize) -> Self {
        let mut fabric = Self::new(mesh, hpc_max, AcquireMode::OneWay);
        fabric.contention_free = true;
        fabric
    }

    /// The configured maximum hops per cycle.
    pub fn hpc_max(&self) -> usize {
        self.hpc_max
    }

    /// The configured acquire mode.
    pub fn mode(&self) -> AcquireMode {
        self.mode
    }

    /// Cycles a granted flit needs to traverse `hops` hops.
    pub fn traversal_cycles(&self, hops: usize) -> Cycles {
        Cycles::new(hops.div_ceil(self.hpc_max) as u64)
    }

    fn link_free(&self, link: LinkId, now: Cycle) -> bool {
        self.busy_until[link.index()] <= now && self.reserved_by[link.index()].is_none()
    }

    /// Sends the response of a round-trip transaction over its reserved
    /// path: no arbitration, departs at `depart_at`, and releases the
    /// reservation when it lands.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `msg.id` holds no reservation (the
    /// request must have been submitted in [`AcquireMode::RoundTrip`] and
    /// already delivered).
    pub fn send_response(&mut self, msg: Message, depart_at: Cycle) -> Result<(), Box<SimError>> {
        let Some(reservation) = self.reservations.remove(&msg.id) else {
            return Err(Box::new(SimError::Protocol {
                context: format!("no round-trip reservation for message {}", msg.id),
                snapshot: self.diagnostics(depart_at),
            }));
        };
        let arrival = depart_at + self.traversal_cycles(reservation.reverse_path.len());
        self.stats.latency.record(arrival - depart_at);
        let held = (arrival - depart_at).value();
        for link in reservation.path.iter().chain(&reservation.reverse_path) {
            self.reserved_by[link.index()] = None;
            self.busy_until[link.index()] = arrival;
            self.stats.link_busy[link.index()] += held;
        }
        self.arrivals.push(arrival, msg, ());
        Ok(())
    }

    /// True when a round-trip reservation for `id` is outstanding.
    pub fn has_reservation(&self, id: u64) -> bool {
        self.reservations.contains_key(&id)
    }

    /// How many waiting path requests arbitrate in one cycle. Hardware
    /// exposes only a bounded number of simultaneous requesters to the
    /// link arbiters (each core holds a handful of MSHR-like slots);
    /// bounding the window also keeps deeply-saturated synthetic runs
    /// (far beyond TLB-like load) from degenerating into quadratic work.
    /// Requests beyond the window wait in FIFO order.
    const ARBITRATION_WINDOW: usize = 1024;

    /// One arbitration cycle, in four passes over `pending`: per-link
    /// grants, the AND of each requester's grants, the commit of winners
    /// in pending order, then retry bookkeeping while compacting.
    fn arbitrate(&mut self, cycle: Cycle) {
        if self.next_depart.is_none_or(|d| d > cycle) {
            return;
        }
        self.round += 1;
        let round = self.round;
        let now = cycle.value();
        let plan = &self.faults.plan;
        let denied = plan.setup_denied(now);
        let faulty = !plan.is_empty();
        let mut arb = mem::take(&mut self.arb);
        arb.clear();
        arb.resize(self.pending.len(), Arb::Idle);

        // Per-link grants: each requested arbiter grants its
        // highest-priority requester, provided the link is free this cycle.
        // Ties (one core with several outstanding messages) break by
        // message id, oldest first.
        let mut active = 0;
        for (i, p) in self.pending.iter().enumerate() {
            if p.depart_at > cycle {
                continue;
            }
            if active >= Self::ARBITRATION_WINDOW {
                break;
            }
            active += 1;
            let outaged = faulty
                && p.path
                    .iter()
                    .chain(&p.reverse_path)
                    .any(|l| plan.link_outage(l.index(), now));
            if denied || outaged {
                // A fault-blocked message does not even reach the link
                // arbiters, so it cannot deny grants to healthy traffic.
                arb[i] = Arb::FaultBlocked;
                if denied {
                    self.faults.stats.denied_setups += 1;
                } else {
                    self.faults.stats.link_blocked += 1;
                }
                continue;
            }
            arb[i] = Arb::Active;
            if self.contention_free {
                continue;
            }
            let rank = self.prio.rank(p.msg.src, cycle);
            for link in p.path.iter().chain(&p.reverse_path) {
                if !self.link_free(*link, cycle) {
                    continue;
                }
                let l = link.index();
                let g = &mut self.grant[l];
                if self.grant_round[l] != round || (rank, p.msg.id) < (g.0, g.1) {
                    *g = (rank, p.msg.id, i);
                    self.grant_round[l] = round;
                }
            }
        }

        // A requester proceeds only if it won every link it asked for.
        for (i, (p, state)) in self.pending.iter().zip(&mut arb).enumerate() {
            if *state != Arb::Active {
                continue;
            }
            let all_granted = self.contention_free
                || p.path
                    .iter()
                    .chain(&p.reverse_path)
                    .all(|l| self.grant_round[l.index()] == round && self.grant[l.index()].2 == i);
            if all_granted {
                *state = Arb::Proceeded;
            }
        }

        for (i, state) in arb.iter().enumerate() {
            if *state == Arb::Proceeded {
                self.commit(i, cycle);
            }
        }

        // Remove proceeded messages; bump the rest to retry. Contention
        // losers retry next cycle (the paper's behavior); fault-blocked
        // messages back off deterministically and, once they exhaust the
        // retry budget — the plan's, or the tighter escalation threshold
        // when a recovery policy is armed — escape over the buffered
        // multi-hop service path so no translation is ever lost.
        let mut next_depart: Option<Cycle> = None;
        let mut states = arb.iter();
        self.pending.retain_mut(|p| {
            let state = states.next().copied().unwrap_or(Arb::Idle);
            match state {
                Arb::Proceeded => return false,
                Arb::Idle => {}
                Arb::Active => {
                    p.attempts += 1;
                    self.stats.retries += 1;
                    p.depart_at = cycle + Cycles::ONE;
                }
                Arb::FaultBlocked => {
                    p.attempts += 1;
                    self.stats.retries += 1;
                    p.fault_attempts += 1;
                    let Some(wait) = self.faults.backoff_or_escape(p.fault_attempts, p.msg.id)
                    else {
                        // Escape: deliver over the (slow) buffered fallback
                        // at ~2 cycles/hop, releasing the fast fabric. No
                        // reservation is made, so round-trip responses to
                        // an escaped request arbitrate as one-way traffic.
                        let hops = p.path.len() as u64;
                        let arrival = cycle + Cycles::new(2 * hops + 1);
                        self.stats.latency.record(arrival - p.submitted_at);
                        self.arrivals.push(arrival, p.msg, ());
                        return false;
                    };
                    p.depart_at = cycle + Cycles::new(wait);
                }
            }
            next_depart = Some(next_depart.map_or(p.depart_at, |d| d.min(p.depart_at)));
            true
        });
        self.next_depart = next_depart;
        self.arb = arb;
    }

    /// Grants pending message `i` its whole path in `cycle`: occupies the
    /// links, reserves the round trip if any, and schedules the arrival.
    /// Its paths move out, since the message leaves `pending`.
    fn commit(&mut self, i: usize, cycle: Cycle) {
        let p = &mut self.pending[i];
        let path = mem::take(&mut p.path);
        let reverse_path = mem::take(&mut p.reverse_path);
        let (msg, first_try, submitted_at) = (p.msg, p.attempts == 0, p.submitted_at);
        let hops = path.len();
        // Injected link degradation stretches the traversal.
        let degrade = path
            .iter()
            .map(|l| self.faults.plan.link_degrade(l.index(), cycle.value()))
            .fold(0, u64::saturating_add);
        let arrival = cycle
            .saturating_add(self.traversal_cycles(hops))
            .saturating_add(Cycles::new(degrade));
        self.stats.latency.record(arrival - submitted_at);
        let traversal = (arrival - cycle).value();
        if degrade > 0 {
            self.faults.stats.degraded_traversals += 1;
        }
        for link in &path {
            let l = link.index();
            self.busy_until[l] = arrival;
            self.stats.link_busy[l] = self.stats.link_busy[l].saturating_add(traversal);
        }
        self.stats.grants += 1;
        if self.mode == AcquireMode::RoundTrip && !reverse_path.is_empty() {
            for link in path.iter().chain(&reverse_path) {
                self.reserved_by[link.index()] = Some(msg.id);
            }
            self.reservations
                .insert(msg.id, Reservation { path, reverse_path });
        }
        if first_try {
            self.stats.no_contention += 1;
        }
        self.arrivals.push(arrival, msg, ());
    }
}

impl Interconnect for CircuitFabric {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.arrivals.push(now, msg, ());
            self.stats.no_contention += 1;
            return;
        }
        let path = self.links.path(msg.src, msg.dst);
        // Only lookup requests reserve a round trip: they are the only
        // messages with a guaranteed response. One-way traffic (inserts,
        // invalidations, one-way-mode responses) must not hold links open.
        let reverse_path = if self.mode == AcquireMode::RoundTrip && msg.kind == MsgKind::TlbRequest
        {
            self.links.path(msg.dst, msg.src)
        } else {
            Vec::new()
        };
        self.pending.push(Pending {
            msg,
            path,
            reverse_path,
            depart_at: now,
            submitted_at: now,
            attempts: 0,
            fault_attempts: 0,
        });
        self.next_depart = Some(self.next_depart.map_or(now, |d| d.min(now)));
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        let epoch = self.prio.epoch(cycle);
        if epoch > self.last_epoch {
            self.stats.rotations += epoch - self.last_epoch;
            self.last_epoch = epoch;
        }
        self.arbitrate(cycle);
        let mut out = Vec::new();
        while let Some((d, ())) = self.arrivals.pop_due(cycle) {
            self.stats.delivered += 1;
            out.push(d);
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        [self.next_depart, self.arrivals.next_at()]
            .into_iter()
            .flatten()
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
            .pending
            .iter()
            .map(|p| p.msg.pending(p.submitted_at, p.fault_attempts))
            .collect();
        self.faults
            .snapshot(cycle, pending_messages, self.links.count(), |l| {
                (self.busy_until[l].value(), self.reserved_by[l])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use nocstar_faults::RecoveryPolicy;
    use nocstar_types::CoreId;
    use proptest::prelude::*;

    fn fabric(tiles: usize, hpc: usize) -> CircuitFabric {
        CircuitFabric::new(MeshShape::square_for(tiles), hpc, AcquireMode::OneWay)
    }

    fn msg(id: u64, src: usize, dst: usize) -> Message {
        Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest)
    }

    /// Drives the fabric until quiescent; returns deliveries in order.
    fn run_until_idle(fabric: &mut CircuitFabric, from: Cycle) -> Vec<Delivery> {
        crate::drain_until_idle(fabric, from, 10_000).expect("fabric did not quiesce")
    }

    #[test]
    fn uncontended_remote_access_takes_setup_plus_one_cycle() {
        let mut f = fabric(16, 16);
        f.submit(Cycle::new(5), msg(1, 0, 15));
        let d = run_until_idle(&mut f, Cycle::new(5));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at(), Cycle::new(6)); // setup at 5, traverse during 6
        assert_eq!(f.stats().no_contention, 1);
        assert_eq!(f.stats().retries, 0);
    }

    #[test]
    fn local_messages_skip_the_network() {
        let mut f = fabric(16, 16);
        f.submit(Cycle::new(3), msg(1, 4, 4));
        let d = f.advance(Cycle::new(3));
        assert_eq!(d[0].at(), Cycle::new(3));
    }

    #[test]
    fn same_cycle_deliveries_come_in_push_order() {
        // The remote arrival is pushed at its cycle-0 commit; the local
        // message is pushed at cycle 1, after it.
        let mut f = fabric(16, 16);
        f.submit(Cycle::ZERO, msg(1, 0, 1));
        assert!(f.advance(Cycle::ZERO).is_empty());
        f.submit(Cycle::new(1), msg(2, 3, 3));
        let d = f.advance(Cycle::new(1));
        let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at().value())).collect();
        assert_eq!(order, [(1, 1), (2, 1)]);
    }

    #[test]
    fn hpc_max_pipelines_long_paths() {
        // 64 tiles = 8x8: corner-to-corner is 14 hops.
        let mut f = fabric(64, 4);
        f.submit(Cycle::new(0), msg(1, 0, 63));
        let d = run_until_idle(&mut f, Cycle::ZERO);
        // ceil(14/4) = 4 traversal cycles after the cycle-0 setup.
        assert_eq!(d[0].at(), Cycle::new(4));
        assert_eq!(f.traversal_cycles(14), Cycles::new(4));
    }

    #[test]
    fn conflicting_paths_serialize_by_priority() {
        // Cores 0 and 1 both target core 3 on a 4x1 chain: paths share
        // the link 1->2 (and 2->3).
        let mesh = MeshShape::new(4, 1);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        f.submit(Cycle::ZERO, msg(1, 0, 3));
        f.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert_eq!(d.len(), 2);
        // Core 0 has top priority in epoch 0: it wins cycle 0 (arrives 1);
        // core 1 retries and wins cycle 1 (arrives 2).
        assert_eq!(d[0].msg.id, 1);
        assert_eq!(d[0].at(), Cycle::new(1));
        assert_eq!(d[1].msg.id, 2);
        assert_eq!(d[1].at(), Cycle::new(2));
        assert_eq!(f.stats().retries, 1);
        assert_eq!(f.stats().no_contention, 1);
    }

    #[test]
    fn disjoint_paths_proceed_in_the_same_cycle() {
        let mesh = MeshShape::new(4, 4);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        f.submit(Cycle::ZERO, msg(1, 0, 3)); // top row, eastbound
        f.submit(Cycle::ZERO, msg(2, 12, 15)); // bottom row, eastbound
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert!(d.iter().all(|d| d.at() == Cycle::new(1)));
        assert_eq!(f.stats().retries, 0);
    }

    #[test]
    fn partial_grants_never_traverse() {
        // A(0->2) needs links 0->1,1->2; B(1->3) needs 1->2,2->3. They
        // share 1->2, so exactly one proceeds per cycle even though B's
        // link 2->3 is free.
        let mesh = MeshShape::new(4, 1);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        f.submit(Cycle::ZERO, msg(1, 0, 2));
        f.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = run_until_idle(&mut f, Cycle::ZERO);
        let by_id: std::collections::BTreeMap<u64, Cycle> =
            d.iter().map(|d| (d.msg.id, d.at())).collect();
        assert_eq!(by_id[&1], Cycle::new(1));
        assert_eq!(by_id[&2], Cycle::new(2));
    }

    #[test]
    fn priority_rotation_prevents_starvation() {
        // Core 1's path is a strict subset of core 0's; core 0 (top
        // priority in epoch 0) re-submits every cycle. In epoch 0 core 1
        // loses, but after rotation at cycle 1000 it wins.
        let mesh = MeshShape::new(4, 1);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        let mut victim_delivery = None;
        f.submit(Cycle::new(998), msg(1_000_000, 1, 3));
        let mut id = 0u64;
        for t in 998..1003u64 {
            id += 1;
            f.submit(Cycle::new(t), msg(id, 0, 3));
            for d in f.advance(Cycle::new(t)) {
                if d.msg.id == 1_000_000 {
                    victim_delivery = Some(d.at());
                }
            }
        }
        let _ = run_until_idle(&mut f, Cycle::new(1003));
        let delivered_at = victim_delivery.expect("victim starved");
        assert!(
            delivered_at >= Cycle::new(1000),
            "victim should lose the pre-rotation cycles"
        );
        assert!(delivered_at <= Cycle::new(1002));
    }

    #[test]
    fn round_trip_reserves_and_releases_links() {
        let mesh = MeshShape::new(4, 1);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::RoundTrip);
        f.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = f.advance(Cycle::ZERO);
        assert!(d.is_empty());
        let d = f.advance(Cycle::new(1));
        assert_eq!(d[0].at(), Cycle::new(1));
        assert!(f.has_reservation(1));

        // While reserved, another core cannot use the shared links.
        f.submit(Cycle::new(2), msg(2, 1, 3));
        assert!(f.advance(Cycle::new(2)).is_empty());
        assert!(f.advance(Cycle::new(3)).is_empty());

        // Slice answers at cycle 10; response needs no arbitration.
        let resp = Message::new(1, CoreId::new(3), CoreId::new(0), MsgKind::TlbResponse);
        f.send_response(resp, Cycle::new(10)).unwrap();
        assert!(!f.has_reservation(1));
        let d = run_until_idle(&mut f, Cycle::new(4));
        let resp_at = d
            .iter()
            .find(|d| d.msg.kind == MsgKind::TlbResponse)
            .unwrap()
            .at();
        assert_eq!(resp_at, Cycle::new(11));
        // The blocked message finally proceeds after the response lands.
        let late = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert!(late.at() > Cycle::new(10));
    }

    #[test]
    fn one_way_kinds_never_reserve_in_round_trip_mode() {
        // Regression test: inserts and invalidations have no response, so
        // they must not hold a round-trip reservation open (that deadlocks
        // the fabric: the links would never be released).
        let mesh = MeshShape::new(4, 1);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::RoundTrip);
        for (id, kind) in [(1u64, MsgKind::Insert), (2, MsgKind::Invalidation)] {
            f.submit(
                Cycle::ZERO,
                Message::new(id, CoreId::new(0), CoreId::new(3), kind),
            );
        }
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert_eq!(d.len(), 2, "one-way messages must deliver and release");
        assert!(!f.has_reservation(1));
        assert!(!f.has_reservation(2));
        // The links are free again: a fresh request proceeds immediately.
        f.submit(Cycle::new(100), msg(3, 0, 3));
        let d = run_until_idle(&mut f, Cycle::new(100));
        assert_eq!(d[0].at(), Cycle::new(101));
    }

    #[test]
    fn response_without_reservation_is_a_protocol_error() {
        let mut f = fabric(16, 16);
        let err = f
            .send_response(msg(9, 1, 0), Cycle::new(5))
            .expect_err("must reject a response with no reservation");
        assert_eq!(err.kind(), "protocol");
        assert!(err.to_string().contains("no round-trip reservation"));
        assert_eq!(err.snapshot().cycle, 5);
        // The fabric stays usable after the rejected call.
        f.submit(Cycle::new(6), msg(10, 0, 5));
        let d = run_until_idle(&mut f, Cycle::new(6));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ideal_fabric_never_retries() {
        let mesh = MeshShape::new(4, 1);
        let mut f = CircuitFabric::ideal(mesh, 16);
        for i in 0..8 {
            f.submit(Cycle::ZERO, msg(i, 0, 3));
        }
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert_eq!(d.len(), 8);
        assert!(d.iter().all(|d| d.at() == Cycle::new(1)));
        assert_eq!(f.stats().retries, 0);
    }

    #[test]
    fn arbitration_window_caps_the_requesters_of_one_cycle() {
        // 1,100 requests due in the same cycle: only the first
        // ARBITRATION_WINDOW arbitrate (and the losers among them retry);
        // the rest wait, unretried, for a later cycle.
        const N: u64 = 1_100;
        let mut f = fabric(256, 16);
        for id in 0..N {
            let src = (id * 37 % 256) as usize;
            let dst = (src + 1 + (id * 13 % 255) as usize) % 256;
            f.submit(Cycle::ZERO, msg(id, src, dst));
        }
        assert!(f.advance(Cycle::ZERO).is_empty());
        let granted = f.stats().grants;
        let window = CircuitFabric::ARBITRATION_WINDOW as u64;
        assert!(granted > 0 && granted < window);
        assert_eq!(f.stats().retries, window - granted);

        let d = run_until_idle(&mut f, Cycle::new(1));
        let ids: std::collections::BTreeSet<u64> = d.iter().map(|d| d.msg.id).collect();
        assert_eq!(d.len() as u64, N, "every request delivered once");
        assert_eq!(ids.len() as u64, N);
        // Pinned grant order: the head and tail of the delivery sequence
        // and the total retry count.
        let key = |d: &Delivery| (d.at().value(), d.msg.id);
        let head: Vec<(u64, u64)> = d.iter().take(20).map(key).collect();
        assert_eq!(
            head,
            [
                (1, 0),
                (1, 17),
                (1, 38),
                (1, 39),
                (1, 98),
                (1, 136),
                (1, 174),
                (1, 176),
                (1, 180),
                (1, 234),
                (1, 293),
                (1, 353),
                (1, 391),
                (1, 429),
                (1, 548),
                (1, 999),
                (2, 256),
                (2, 432),
                (2, 609),
                (2, 858),
            ]
        );
        assert_eq!(d.last().map(key), Some((647, 851)));
        assert_eq!(f.stats().retries, 342_923);
    }

    #[test]
    fn next_activity_tracks_pending_and_scheduled() {
        let mut f = fabric(16, 16);
        assert_eq!(f.next_activity(), None);
        f.submit(Cycle::new(7), msg(1, 0, 5));
        assert_eq!(f.next_activity(), Some(Cycle::new(7)));
        f.advance(Cycle::new(7));
        assert_eq!(f.next_activity(), Some(Cycle::new(8))); // delivery
        f.advance(Cycle::new(8));
        assert_eq!(f.next_activity(), None);
    }

    #[test]
    fn setup_denial_delays_but_never_loses_messages() {
        let mut f = fabric(16, 16);
        f.install_faults("deny@0-20".parse().unwrap());
        f.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        assert!(d[0].at() >= Cycle::new(20), "denied setups cannot proceed");
        let fs = f.fault_stats().unwrap();
        assert!(fs.denied_setups > 0);
        assert!(fs.backoff_cycles > 0);
    }

    #[test]
    fn degraded_links_stretch_traversal() {
        let mut f = fabric(16, 16);
        f.install_faults("link:*@0-100=+3".parse().unwrap());
        f.submit(Cycle::ZERO, msg(1, 0, 1)); // 1 hop
        let d = run_until_idle(&mut f, Cycle::ZERO);
        // 1 traversal cycle + 3 extra on the single degraded link.
        assert_eq!(d[0].at(), Cycle::new(4));
        assert_eq!(f.fault_stats().unwrap().degraded_traversals, 1);
    }

    #[test]
    fn permanent_outage_escapes_after_retry_budget() {
        let mut f = fabric(16, 16);
        f.install_faults("link:*@0-1000000=off; retry=4".parse().unwrap());
        f.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert_eq!(d.len(), 1, "escape path must deliver the message");
        let fs = f.fault_stats().unwrap();
        assert_eq!(fs.fallbacks, 1);
        assert_eq!(fs.retries_per_fallback.count(), 1);
        assert!(fs.link_blocked >= 4);
    }

    #[test]
    fn escalation_clamps_setup_retry_and_unwedges_unbounded_plans() {
        // Escalation escapes after 3 attempts instead of the plan's 16.
        let open = {
            let mut f = fabric(16, 16);
            f.install_faults("link:*@0-1000000=off".parse().unwrap());
            f.submit(Cycle::ZERO, msg(1, 0, 15));
            run_until_idle(&mut f, Cycle::ZERO)[0].at()
        };
        let mut f = fabric(16, 16);
        f.install_faults("link:*@0-1000000=off".parse().unwrap());
        f.install_recovery(RecoveryPolicy::all());
        f.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = run_until_idle(&mut f, Cycle::ZERO);
        assert!(d[0].at() < open, "{:?} vs {open:?}", d[0].at());
        assert_eq!(f.recovery_stats().unwrap().escalations, 1);
        assert_eq!(f.fault_stats().unwrap().fallbacks, 1);

        // Even `retry=inf` cannot wedge an escalating fabric.
        let mut f = fabric(16, 16);
        f.install_faults("link:*@0-1000000000=off; retry=inf".parse().unwrap());
        f.install_recovery(RecoveryPolicy::all());
        f.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = crate::drain_until_idle(&mut f, Cycle::ZERO, 2_000)
            .expect("escalation must bound the retry ladder");
        assert_eq!(d.len(), 1);
        assert_eq!(f.recovery_stats().unwrap().escalations, 1);
    }

    #[test]
    fn unbounded_retry_under_permanent_outage_livelocks_with_diagnostics() {
        let mut f = fabric(16, 16);
        f.install_faults("link:*@0-1000000000=off; retry=inf".parse().unwrap());
        f.submit(Cycle::ZERO, msg(1, 0, 15));
        let err = crate::drain_until_idle(&mut f, Cycle::ZERO, 2_000)
            .expect_err("a wedged fabric must report livelock, not hang");
        assert_eq!(err.kind(), "livelock");
        let snap = err.snapshot();
        assert_eq!(snap.pending_messages.len(), 1);
        assert_eq!(snap.pending_messages[0].id, 1);
        assert!(snap.pending_messages[0].attempts > 0);
        assert!(snap.links.iter().all(|l| l.faulted));
        assert!(!snap.active_faults.is_empty());
    }

    #[test]
    fn empty_plan_is_identical_to_no_plan() {
        let mut plain = fabric(16, 8);
        let mut planned = fabric(16, 8);
        planned.install_faults(FaultPlan::default());
        for f in [&mut plain, &mut planned] {
            for i in 0..12u64 {
                f.submit(
                    Cycle::new(i / 3),
                    msg(i, (i % 7) as usize, (11 - i % 5) as usize),
                );
            }
        }
        let a = run_until_idle(&mut plain, Cycle::ZERO);
        let b = run_until_idle(&mut planned, Cycle::ZERO);
        let key = |d: &Delivery| (d.at(), d.msg.id);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        assert!(planned.fault_stats().unwrap().is_quiet());
    }

    use nocstar_faults::FaultPlan;

    proptest! {
        /// No message is ever lost or deadlocked: every submission is
        /// delivered exactly once, regardless of traffic pattern, in both
        /// acquire modes (responses are fired immediately for round-trip).
        #[test]
        fn prop_all_messages_delivered(
            sends in prop::collection::vec((0usize..16, 0usize..16, 0u64..20), 1..60),
            one_way in any::<bool>(),
        ) {
            let mode = if one_way { AcquireMode::OneWay } else { AcquireMode::RoundTrip };
            let mut f = CircuitFabric::new(MeshShape::square_for(16), 8, mode);
            for (i, &(src, dst, at)) in sends.iter().enumerate() {
                f.submit(Cycle::new(at), msg(i as u64, src, dst));
            }
            let mut delivered = std::collections::BTreeSet::new();
            let mut cycle = Cycle::ZERO;
            for _ in 0..100_000 {
                match f.next_activity() {
                    None => break,
                    Some(next) => {
                        cycle = cycle.max(next);
                        for d in f.advance(cycle) {
                            if d.msg.kind == MsgKind::TlbRequest {
                                prop_assert!(delivered.insert(d.msg.id), "duplicate delivery");
                                if mode == AcquireMode::RoundTrip && !d.msg.is_local() {
                                    // Answer instantly so reservations drain.
                                    let resp = Message::new(
                                        d.msg.id, d.msg.dst, d.msg.src, MsgKind::TlbResponse,
                                    );
                                    if f.has_reservation(d.msg.id) {
                                        f.send_response(resp, d.at() + Cycles::ONE).unwrap();
                                    } else {
                                        // The request escaped the fast fabric
                                        // (fault fallback): answer one-way.
                                        f.submit(d.at() + Cycles::ONE, resp);
                                    }
                                }
                            }
                        }
                        cycle += Cycles::ONE;
                    }
                }
            }
            prop_assert_eq!(delivered.len() as u64, sends.len() as u64);
            prop_assert_eq!(f.next_activity(), None, "fabric must quiesce");
        }
    }
}
