//! The circuit fabric's per-link arbiter, kept verbatim from before
//! arbitration moved onto segment bitboards, minus its unit tests and its
//! `mode` accessor, and with the removed `Links::path` inlined as
//! `xy_links`. Each due message probes every link on its path; each link
//! grants its lowest `(rank, id)` requester, and a message proceeds when
//! it won all of its links. The board arbiter in
//! [`CircuitFabric`](super::CircuitFabric) must match it delivery for
//! delivery, counter for counter and snapshot for snapshot; see the
//! differential property tests below.

#![cfg(test)]

use super::AcquireMode;
use crate::arbiter::PriorityRotation;
use crate::message::{Delivery, Message, MsgKind};
use crate::topology::{LinkId, Links};
use crate::{FaultState, Interconnect, NocStats};
use nocstar_faults::{DiagSnapshot, SimError};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Calendar, CoreId, MeshShape};
use std::collections::BTreeMap;
use std::mem;

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
    /// carry only the message.
    arrivals: Calendar<Message>,
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
            arrivals: Calendar::new(),
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
        self.arrivals.push(arrival, msg);
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
                        self.arrivals.push(arrival, p.msg);
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
        self.arrivals.push(arrival, msg);
    }
}

impl Interconnect for CircuitFabric {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.arrivals.push(now, msg);
            self.stats.no_contention += 1;
            return;
        }
        let path = xy_links(&self.links, msg.src, msg.dst);
        // Only lookup requests reserve a round trip: they are the only
        // messages with a guaranteed response. One-way traffic (inserts,
        // invalidations, one-way-mode responses) must not hold links open.
        let reverse_path = if self.mode == AcquireMode::RoundTrip && msg.kind == MsgKind::TlbRequest
        {
            xy_links(&self.links, msg.dst, msg.src)
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

    fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
        let epoch = self.prio.epoch(cycle);
        if epoch > self.last_epoch {
            self.stats.rotations += epoch - self.last_epoch;
            self.last_epoch = epoch;
        }
        self.arbitrate(cycle);
        while let Some((at, msg)) = self.arrivals.pop_due(cycle) {
            self.stats.delivered += 1;
            out.push(Delivery::new(msg, at));
        }
    }

    fn next_activity(&self) -> Option<Cycle> {
        [self.next_depart, self.arrivals.next_time()]
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

/// The directed links along the XY route from `src` to `dst` (empty
/// when `src == dst`), one `Vec` per message as before.
fn xy_links(links: &Links, src: CoreId, dst: CoreId) -> Vec<LinkId> {
    let mut path = Vec::with_capacity(links.mesh().hops(src, dst));
    let mut tiles = links.mesh().xy_path(src, dst);
    if let Some(mut from) = tiles.next() {
        for to in tiles {
            path.push(links.link_between(from, to));
            from = to;
        }
    }
    path
}

mod differential {
    use super::CircuitFabric as Reference;
    use crate::arbiter::PriorityRotation;
    use crate::circuit::{AcquireMode, CircuitFabric};
    use crate::message::{Message, MsgKind};
    use crate::topology::Links;
    use crate::Interconnect;
    use nocstar_faults::{DiagSnapshot, FaultPlan, RecoveryPolicy, SimError};
    use nocstar_types::time::Cycle;
    use nocstar_types::{CoreId, MeshShape};
    use proptest::collection::vec;
    use proptest::sample::select;
    use proptest::strategy::Strategy;
    use proptest::test_runner::{ProptestConfig, TestCaseError};

    /// What `drive` calls on either arbiter beyond [`Interconnect`].
    trait Fabric: Interconnect {
        fn has_reservation(&self, id: u64) -> bool;
        fn send_response(&mut self, msg: Message, depart_at: Cycle) -> Result<(), Box<SimError>>;
    }

    impl Fabric for CircuitFabric {
        fn has_reservation(&self, id: u64) -> bool {
            CircuitFabric::has_reservation(self, id)
        }
        fn send_response(&mut self, msg: Message, depart_at: Cycle) -> Result<(), Box<SimError>> {
            CircuitFabric::send_response(self, msg, depart_at)
        }
    }

    impl Fabric for Reference {
        fn has_reservation(&self, id: u64) -> bool {
            Reference::has_reservation(self, id)
        }
        fn send_response(&mut self, msg: Message, depart_at: Cycle) -> Result<(), Box<SimError>> {
            Reference::send_response(self, msg, depart_at)
        }
    }

    /// Mesh shapes: square, 1×N and N×1 chains, and rows and columns of
    /// more than 64 links (several board words per line).
    const SHAPES: [(usize, usize); 7] = [(4, 4), (8, 1), (1, 7), (5, 3), (6, 6), (70, 2), (2, 67)];

    /// `(shape index, mode: 0 one-way, 1 round-trip, 2 ideal, HPCmax,
    /// rotation period)`.
    type Setup = (usize, u8, usize, u64);
    /// `(src, dst, submit cycle, kind: 0-5 request, 6 insert, 7
    /// invalidation)` per message.
    type Sends = Vec<(usize, usize, u64, u8)>;
    /// `(clause: 0 outage, 1 degradation, 2 setup denial; link, or None
    /// for every link; (window start, window length); extra cycles)`.
    type Clauses = Vec<(u8, Option<usize>, (u64, u64), u64)>;
    /// `((id multiplier, id modulus), response delay, (retry clause,
    /// recovery policy), burst past the arbitration window)`.
    type Knobs = ((u64, u64), u64, (&'static str, &'static str), bool);

    fn cases() -> impl Strategy<Value = (Setup, Sends, Clauses, Knobs)> {
        (
            (
                0..SHAPES.len(),
                0u8..3,
                select(vec![1usize, 2, 4, 16]),
                select(vec![PriorityRotation::PAPER_PERIOD, 5, 40]),
            ),
            vec((0usize..4096, 0usize..4096, 0u64..60, 0u8..8), 1..80),
            vec(
                (
                    0u8..3,
                    select(vec![None, Some(0), Some(3), Some(9), Some(17), Some(140)]),
                    (0u64..120, 1u64..150),
                    1u64..4,
                ),
                0..4,
            ),
            (
                // Modulus 7 repeats ids (ties break in pending order);
                // multiplier 3 submits them out of id order.
                select(vec![(1u64, 1u64 << 40), (3, 1u64 << 40), (1, 7)]),
                0u64..6,
                (
                    select(vec!["", "retry=1", "retry=3", "retry=inf"]),
                    select(vec!["", "escalate=2", "all"]),
                ),
                select(vec![false, false, false, true]),
            ),
        )
    }

    /// Everything one run observes: each delivery as `(id, cycle, src,
    /// dst, kind)` in delivery order, diagnostics snapshots taken along
    /// the way, and the network, fault and recovery counters.
    type Observed = (
        Vec<(u64, u64, usize, usize, MsgKind)>,
        Vec<DiagSnapshot>,
        String,
    );

    /// Submits `sends` (sorted by cycle) when due and steps `noc` until
    /// it is idle or `max_steps` advances have run. Every remote lookup
    /// request is answered `delay` cycles after it lands: over its
    /// reservation when it holds one, as a one-way message otherwise.
    fn drive<F: Fabric>(noc: &mut F, sends: &[(u64, Message)], delay: u64) -> Observed {
        const MAX_STEPS: u64 = 20_000;
        let (mut deliveries, mut snapshots) = (Vec::new(), Vec::new());
        let mut replies: Vec<(u64, Message)> = Vec::new();
        let (mut next, mut reply, mut cycle) = (0, 0, 0u64);
        for step in 0..MAX_STEPS {
            let Some(at) = noc
                .next_activity()
                .map(Cycle::value)
                .into_iter()
                .chain(sends.get(next).map(|s| s.0))
                .chain(replies.get(reply).map(|r| r.0))
                .min()
            else {
                break;
            };
            cycle = cycle.max(at);
            while let Some(&(_, msg)) = sends.get(next).filter(|s| s.0 <= cycle) {
                noc.submit(Cycle::new(cycle), msg);
                next += 1;
            }
            while let Some(&(_, msg)) = replies.get(reply).filter(|r| r.0 <= cycle) {
                if noc.has_reservation(msg.id) {
                    noc.send_response(msg, Cycle::new(cycle))
                        .expect("reservation held");
                } else {
                    noc.submit(Cycle::new(cycle), msg);
                }
                reply += 1;
            }
            for d in noc.advance(Cycle::new(cycle)) {
                let m = d.msg;
                deliveries.push((m.id, d.at().value(), m.src.index(), m.dst.index(), m.kind));
                if m.kind == MsgKind::TlbRequest && !m.is_local() {
                    let resp = Message::new(m.id, m.dst, m.src, MsgKind::TlbResponse);
                    replies.push((cycle + delay, resp));
                }
            }
            if step % 16 == 0 {
                snapshots.push(noc.diagnostics(Cycle::new(cycle)));
            }
            cycle += 1;
        }
        snapshots.push(noc.diagnostics(Cycle::new(cycle)));
        let counters = format!(
            "{:?} {:?} {:?}",
            noc.stats(),
            noc.fault_stats(),
            noc.recovery_stats()
        );
        (deliveries, snapshots, counters)
    }

    /// The board arbiter and its reference agree on every delivery, in
    /// order, on every snapshot and on every counter.
    fn check(
        ((shape, mode, hpc, period), sends, clauses, knobs): (Setup, Sends, Clauses, Knobs),
    ) -> Result<(), TestCaseError> {
        let ((mult, modulus), delay, (retry, policy), burst) = knobs;
        let mesh = MeshShape::new(SHAPES[shape].0, SHAPES[shape].1);
        let tiles = mesh.tiles();
        let mut sends: Vec<(u64, Message)> = sends
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, at, kind))| {
                let kind = match kind {
                    6 => MsgKind::Insert,
                    7 => MsgKind::Invalidation,
                    _ => MsgKind::TlbRequest,
                };
                // Repeated ids would leave round-trip reservations held.
                let modulus = if mode == 1 { u64::MAX } else { modulus };
                let id = (i as u64 * mult) % modulus;
                let (src, dst) = (CoreId::new(src % tiles), CoreId::new(dst % tiles));
                (at, Message::new(id, src, dst, kind))
            })
            .collect();
        if burst {
            // More requests due in one cycle than the arbitration window.
            sends.extend((0..1_100u64).map(|i| {
                let src = (i * 37) as usize % tiles;
                let dst = (src + 1 + (i * 13) as usize % (tiles - 1)) % tiles;
                let msg = Message::new(
                    10_000 + i,
                    CoreId::new(src),
                    CoreId::new(dst),
                    MsgKind::Insert,
                );
                (3, msg)
            }));
        }
        sends.sort_by_key(|s| s.0);
        let links = Links::new(mesh).count();
        let mut plan: Vec<String> = clauses
            .iter()
            .map(|&(kind, link, (start, len), extra)| {
                let end = start + len;
                let link = link.map_or("*".to_string(), |l| (l % links).to_string());
                match kind {
                    0 => format!("link:{link}@{start}-{end}=off"),
                    1 => format!("link:{link}@{start}-{end}=+{extra}"),
                    _ => format!("deny@{start}-{end}"),
                }
            })
            .collect();
        plan.extend((!retry.is_empty()).then(|| retry.to_string()));
        let plan: FaultPlan = plan.join("; ").parse().expect("valid plan");
        let policy: RecoveryPolicy = if policy.is_empty() {
            RecoveryPolicy::default()
        } else {
            policy.parse().expect("valid policy")
        };
        let (mut board, mut reference) = match mode {
            0 | 1 => {
                let mode = if mode == 0 {
                    AcquireMode::OneWay
                } else {
                    AcquireMode::RoundTrip
                };
                (
                    CircuitFabric::with_rotation_period(mesh, hpc, mode, period),
                    Reference::with_rotation_period(mesh, hpc, mode, period),
                )
            }
            _ => (CircuitFabric::ideal(mesh, hpc), Reference::ideal(mesh, hpc)),
        };
        board.install_faults(plan.clone());
        board.install_recovery(policy);
        reference.install_faults(plan);
        reference.install_recovery(policy);
        let (got, want) = (
            drive(&mut board, &sends, delay),
            drive(&mut reference, &sends, delay),
        );
        proptest::prop_assert_eq!(got.0, want.0);
        proptest::prop_assert!(got.1 == want.1, "diagnostics snapshots differ");
        proptest::prop_assert_eq!(got.2, want.2);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_board_arbiter_matches_reference(case in cases()) {
            check(case)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        #[ignore = "nightly: 2,048 differential cases (ci.sh --nightly)"]
        fn prop_board_arbiter_matches_reference_nightly(case in cases()) {
            check(case)?;
        }
    }
}
