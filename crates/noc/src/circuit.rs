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
//!
//! The arbiters are simulated word-parallel (`DESIGN.md §7`): link state
//! lives on bitboards, one bit per link of each row or column and
//! direction, and a message's XY route is at most two straight runs of
//! bits, so a whole path is tested and claimed with a few mask operations.

use crate::arbiter::PriorityRotation;
use crate::message::{Delivery, Message, MsgKind};
use crate::topology::{Links, Route, Run};
use crate::{FaultState, Interconnect, NocStats};
use nocstar_faults::{DiagSnapshot, SimError};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Calendar, MeshShape};
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

#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Submission order ("pending order"): the order the arbitration
    /// window is taken in and winners commit in.
    seq: u64,
    msg: Message,
    route: Route,
    /// The reverse route a round-trip request reserves (empty otherwise).
    back: Route,
    depart_at: Cycle,
    submitted_at: Cycle,
    attempts: u64,
    /// Retries caused by an injected fault (setup denial or link outage),
    /// counted against the plan's [`nocstar_faults::RetryPolicy`].
    fault_attempts: u64,
}

/// A round-trip transaction's links, held from request grant until its
/// response lands.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    route: Route,
    back: Route,
}

/// Where each line's bits live on a board. Each direction's rows (east,
/// west) or columns (south, north) get `words[dir]` consecutive words
/// from `base[dir]` on, one bit per link position along the line, so a
/// line of any length spans as many words as it needs.
#[derive(Debug, Clone, Copy)]
struct Layout {
    base: [usize; 4],
    words: [usize; 4],
}

impl Layout {
    fn new(mesh: MeshShape) -> Self {
        let (c, r) = (mesh.cols(), mesh.rows());
        let (row, col) = ((c - 1).div_ceil(64), (r - 1).div_ceil(64));
        Self {
            base: [0, r * row, 2 * r * row, 2 * r * row + c * col],
            words: [row, row, col, col],
        }
    }

    /// The board word holding `run`'s first link, and that link's bit.
    #[inline]
    fn start(self, run: Run) -> (usize, usize) {
        let d = run.dir as usize;
        let pos = run.first as usize;
        (
            self.base[d] + run.line as usize * self.words[d] + pos / 64,
            pos % 64,
        )
    }

    /// The board words `run` touches, each with the mask of the run's
    /// bits in it.
    #[inline]
    fn words(self, run: Run) -> impl Iterator<Item = (usize, u64)> {
        let (mut word, mut bit) = self.start(run);
        let mut left = run.len as usize;
        std::iter::from_fn(move || {
            (left > 0).then(|| {
                let n = left.min(64 - bit);
                let item = (word, (u64::MAX >> (64 - n)) << bit);
                (word, bit, left) = (word + 1, 0, left - n);
                item
            })
        })
    }
}

/// Word-parallel link state: which links are blocked, and which the
/// current arbitration round has claimed.
#[derive(Debug, Clone)]
struct Boards {
    layout: Layout,
    /// Links that are busy (a flit in flight) or reserved (round trip).
    blocked: Vec<u64>,
    /// Per word, `(round, bits)`: links claimed in that round. Bits from
    /// an earlier round read as zero, so nothing is cleared per round.
    claimed: Vec<(u64, u64)>,
}

impl Boards {
    fn new(mesh: MeshShape) -> Self {
        let layout = Layout::new(mesh);
        // At least one word, which an absent run (`Run::default()`) reads.
        let n = (2 * (mesh.rows() * layout.words[0] + mesh.cols() * layout.words[2])).max(1);
        Self {
            layout,
            blocked: vec![0; n],
            claimed: vec![(0, 0); n],
        }
    }

    /// One arbiter request for `run` in `round`: true when every link of
    /// the run is unblocked and unclaimed. The run claims its unblocked
    /// links whether or not it gets them all. A run within one word (any
    /// run on a line of up to 64 links, and an absent one) takes no
    /// branch on the board's contents.
    #[inline(always)]
    fn request(&mut self, run: Run, round: u64) -> bool {
        let (w, bit) = self.layout.start(run);
        if bit + run.len as usize > 64 {
            return self.request_words(run, round);
        }
        let mask = (((1u128 << run.len) - 1) << bit) as u64;
        let blocked = self.blocked[w];
        let c = &mut self.claimed[w];
        let claimed = if c.0 == round { c.1 } else { 0 };
        *c = (round, claimed | (mask & !blocked));
        (blocked | claimed) & mask == 0
    }

    /// [`request`](Self::request) for a run that spans several words.
    fn request_words(&mut self, run: Run, round: u64) -> bool {
        let mut free = true;
        for (w, mask) in self.layout.words(run) {
            let blocked = self.blocked[w];
            let c = &mut self.claimed[w];
            let claimed = if c.0 == round { c.1 } else { 0 };
            *c = (round, claimed | (mask & !blocked));
            free &= (blocked | claimed) & mask == 0;
        }
        free
    }

    /// Marks every link of `route` blocked (`on`) or unblocked.
    fn set_blocked(&mut self, route: Route, on: bool) {
        for run in route.runs {
            for (w, mask) in self.layout.words(run) {
                if on {
                    self.blocked[w] |= mask;
                } else {
                    self.blocked[w] &= !mask;
                }
            }
        }
    }
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
    /// `busy_until` and `reserved_by` as board bits (unused when
    /// `contention_free`).
    boards: Boards,
    /// The routes of round-trip reservations whose response is in
    /// flight, with the response's arrival: the links stay blocked until
    /// then.
    released: Vec<(Cycle, Route)>,
    /// Waiting messages, in slots that `free` lists for reuse.
    slots: Vec<Pending>,
    free: Vec<u32>,
    /// The waiting messages as `(source core, slot)`, in `(source, id,
    /// seq)` order. Rank order is this order rotated to start at the
    /// rank-0 core, so it is the order the arbiters visit them in.
    order: Vec<(u32, u32)>,
    /// The next message's `seq`.
    seq: u64,
    /// Earliest `depart_at` in `order` (`None` when it is empty).
    next_depart: Option<Cycle>,
    /// Arbitration rounds run so far (the `claimed` board's stamp).
    round: u64,
    /// Scratch for one round: the due `seq`s when they may overflow the
    /// window, the winners, the escapes as `(seq, arrival, message)`, and
    /// the `order` positions of both.
    due: Vec<u64>,
    winners: Vec<Pending>,
    escapes: Vec<(u64, Cycle, Message)>,
    leaving: Vec<usize>,
    /// Scheduled deliveries, each flagged when it ends a one-way grant:
    /// its route's links stop being busy when it lands. Latency and
    /// `no_contention` are recorded at commit.
    arrivals: Calendar<(Message, bool)>,
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
        let tiles = mesh.tiles();
        Self {
            prio: PriorityRotation::new(tiles, rotation_period),
            stats: NocStats::with_links(links.count()),
            links,
            hpc_max,
            mode,
            busy_until: vec![Cycle::ZERO; n],
            reserved_by: vec![None; n],
            reservations: BTreeMap::new(),
            boards: Boards::new(mesh),
            released: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            seq: 0,
            next_depart: None,
            round: 0,
            due: Vec::new(),
            winners: Vec::new(),
            escapes: Vec::new(),
            leaving: Vec::new(),
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

    /// The configured acquire mode.
    pub fn mode(&self) -> AcquireMode {
        self.mode
    }

    /// Cycles a granted flit needs to traverse `hops` hops.
    pub fn traversal_cycles(&self, hops: usize) -> Cycles {
        Cycles::new(hops.div_ceil(self.hpc_max) as u64)
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
        let Some(Reservation { route, back }) = self.reservations.remove(&msg.id) else {
            return Err(Box::new(SimError::Protocol {
                context: format!("no round-trip reservation for message {}", msg.id),
                snapshot: self.diagnostics(depart_at),
            }));
        };
        let arrival = depart_at + self.traversal_cycles(back.hops());
        self.stats.latency.record(arrival - depart_at);
        let held = (arrival - depart_at).value();
        for run in route.runs.into_iter().chain(back.runs) {
            for link in self.links.run_links(run) {
                self.reserved_by[link.index()] = None;
                self.busy_until[link.index()] = arrival;
                self.stats.link_busy[link.index()] += held;
            }
        }
        // The links stay blocked on the boards, busy until the response
        // lands.
        self.released.push((arrival, route));
        self.released.push((arrival, back));
        self.arrivals.push(arrival, (msg, false));
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

    /// Unblocks the links of `route`, which stopped being busy by
    /// `cycle`.
    fn release(&mut self, route: Route, cycle: Cycle) {
        debug_assert!(
            route
                .runs
                .iter()
                .all(|&run| self.links.run_links(run).all(|l| {
                    self.busy_until[l.index()] <= cycle && self.reserved_by[l.index()].is_none()
                })),
            "a released link is still busy or reserved"
        );
        self.boards.set_blocked(route, false);
    }

    /// The `seq` bound of this cycle's arbitration window: the due
    /// messages below it are the first [`ARBITRATION_WINDOW`] in pending
    /// order (`u64::MAX` when every due message fits).
    ///
    /// [`ARBITRATION_WINDOW`]: Self::ARBITRATION_WINDOW
    fn window_end(&mut self, cycle: Cycle) -> u64 {
        if self.order.len() <= Self::ARBITRATION_WINDOW {
            return u64::MAX;
        }
        let due = &mut self.due;
        due.clear();
        due.extend(
            self.order
                .iter()
                .map(|&(_, s)| &self.slots[s as usize])
                .filter(|p| p.depart_at <= cycle)
                .map(|p| p.seq),
        );
        if due.len() <= Self::ARBITRATION_WINDOW {
            return u64::MAX;
        }
        *due.select_nth_unstable(Self::ARBITRATION_WINDOW).1
    }

    /// One arbitration cycle, in one visit of every waiting message in
    /// `(rank, id)` order: `order` from the rank-0 core's first message
    /// on, wrapping. A due message inside the window that no fault blocks
    /// proceeds iff every link of its route (and reserved reverse route)
    /// is unblocked and unclaimed by an earlier visit, and every visit
    /// claims the unblocked links it asked for. That is the paper's rule,
    /// each link granting its lowest `(rank, id)` requester and the
    /// grants ANDed, computed on words (`DESIGN.md §7`). Retry, backoff
    /// and escape bookkeeping happen during the visit; winners then
    /// commit, and escapes are scheduled, in pending order.
    fn arbitrate(&mut self, cycle: Cycle) {
        if self.next_depart.is_none_or(|d| d > cycle) {
            return;
        }
        if !self.released.is_empty() {
            let mut released = mem::take(&mut self.released);
            released.retain(|&(at, route)| {
                if at > cycle {
                    return true;
                }
                self.release(route, cycle);
                false
            });
            self.released = released;
        }
        self.round += 1;
        let (round, now) = (self.round, cycle.value());
        let window_end = self.window_end(cycle);
        let rotation = self.prio.rotation(cycle);
        let Self {
            links,
            boards,
            slots,
            order,
            faults,
            stats,
            winners,
            escapes,
            leaving,
            contention_free,
            ..
        } = self;
        let denied = faults.plan.setup_denied(now);
        let faulty = !faults.plan.is_empty();
        let mut next_depart: Option<Cycle> = None;
        let first = order.partition_point(|&(src, _)| (src as usize) < rotation);
        for at in (first..order.len()).chain(0..first) {
            let p = &mut slots[order[at].1 as usize];
            if p.depart_at > cycle || p.seq >= window_end {
                // Not due, or beyond the window: waits unretried.
            } else if denied
                || (faulty
                    && p.route.runs.into_iter().chain(p.back.runs).any(|run| {
                        links
                            .run_links(run)
                            .any(|l| faults.plan.link_outage(l.index(), now))
                    }))
            {
                // A fault-blocked message does not even reach the link
                // arbiters, so it cannot deny grants to healthy traffic.
                // It backs off deterministically and, once it exhausts the
                // retry budget — the plan's, or the tighter escalation
                // threshold when a recovery policy is armed — escapes over
                // the buffered multi-hop service path so no translation is
                // ever lost.
                if denied {
                    faults.stats.denied_setups += 1;
                } else {
                    faults.stats.link_blocked += 1;
                }
                p.attempts += 1;
                stats.retries += 1;
                p.fault_attempts += 1;
                let Some(wait) = faults.backoff_or_escape(p.fault_attempts, p.msg.id) else {
                    // Escape: deliver over the (slow) buffered fallback at
                    // ~2 cycles/hop, releasing the fast fabric. No
                    // reservation is made, so round-trip responses to an
                    // escaped request arbitrate as one-way traffic.
                    let arrival = cycle + Cycles::new(2 * p.route.hops() as u64 + 1);
                    stats.latency.record(arrival - p.submitted_at);
                    escapes.push((p.seq, arrival, p.msg));
                    leaving.push(at);
                    continue;
                };
                p.depart_at = cycle + Cycles::new(wait);
            } else if *contention_free || {
                // `&`, not `&&`: a loser still claims its free links.
                let [a, b] = p.route.runs;
                let mut free = boards.request(a, round) & boards.request(b, round);
                if !p.back.is_empty() {
                    let [c, d] = p.back.runs;
                    free &= boards.request(c, round) & boards.request(d, round);
                }
                free
            } {
                winners.push(*p);
                leaving.push(at);
                continue;
            } else {
                // Contention losers retry next cycle (the paper's behavior).
                p.attempts += 1;
                stats.retries += 1;
                p.depart_at = cycle + Cycles::ONE;
            }
            next_depart = Some(next_depart.map_or(p.depart_at, |d| d.min(p.depart_at)));
        }
        self.next_depart = next_depart;

        let mut winners = mem::take(&mut self.winners);
        winners.sort_unstable_by_key(|p| p.seq);
        for p in winners.drain(..) {
            self.commit(&p, cycle);
        }
        self.winners = winners;
        self.escapes.sort_unstable_by_key(|e| e.0);
        for (_, arrival, msg) in self.escapes.drain(..) {
            self.arrivals.push(arrival, (msg, false));
        }
        // Removing from the back keeps the positions still to remove valid.
        self.leaving.sort_unstable();
        for &at in self.leaving.iter().rev() {
            self.free.push(self.order.remove(at).1);
        }
        self.leaving.clear();
    }

    /// Grants `p` its whole path in `cycle`: occupies the links, reserves
    /// the round trip if any, and schedules the arrival.
    fn commit(&mut self, p: &Pending, cycle: Cycle) {
        let (msg, route, back) = (p.msg, p.route, p.back);
        let (first_try, submitted_at) = (p.attempts == 0, p.submitted_at);
        // Injected link degradation stretches the traversal.
        let plan = &self.faults.plan;
        let degrade = if plan.link_faults.is_empty() {
            0
        } else {
            route
                .runs
                .iter()
                .flat_map(|&run| self.links.run_links(run))
                .map(|l| plan.link_degrade(l.index(), cycle.value()))
                .fold(0, u64::saturating_add)
        };
        let arrival = cycle
            .saturating_add(self.traversal_cycles(route.hops()))
            .saturating_add(Cycles::new(degrade));
        self.stats.latency.record(arrival - submitted_at);
        let traversal = (arrival - cycle).value();
        if degrade > 0 {
            self.faults.stats.degraded_traversals += 1;
        }
        for run in route.runs {
            for link in self.links.run_links(run) {
                let l = link.index();
                self.busy_until[l] = arrival;
                self.stats.link_busy[l] = self.stats.link_busy[l].saturating_add(traversal);
            }
        }
        self.stats.grants += 1;
        if self.mode == AcquireMode::RoundTrip && !back.is_empty() {
            for run in route.runs.into_iter().chain(back.runs) {
                for link in self.links.run_links(run) {
                    self.reserved_by[link.index()] = Some(msg.id);
                }
            }
            // Blocked until the response that `send_response` sends lands.
            self.boards.set_blocked(route, true);
            self.boards.set_blocked(back, true);
            self.reservations
                .insert(msg.id, Reservation { route, back });
            self.arrivals.push(arrival, (msg, false));
        } else if self.contention_free {
            self.arrivals.push(arrival, (msg, false));
        } else {
            self.boards.set_blocked(route, true);
            self.arrivals.push(arrival, (msg, true));
        }
        if first_try {
            self.stats.no_contention += 1;
        }
    }
}

impl Interconnect for CircuitFabric {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.arrivals.push(now, (msg, false));
            self.stats.no_contention += 1;
            return;
        }
        // Only lookup requests reserve a round trip: they are the only
        // messages with a guaranteed response. One-way traffic (inserts,
        // invalidations, one-way-mode responses) must not hold links open.
        let back = if self.mode == AcquireMode::RoundTrip && msg.kind == MsgKind::TlbRequest {
            self.links.route(msg.dst, msg.src)
        } else {
            Route::default()
        };
        let p = Pending {
            seq: self.seq,
            msg,
            route: self.links.route(msg.src, msg.dst),
            back,
            depart_at: now,
            submitted_at: now,
            attempts: 0,
            fault_attempts: 0,
        };
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = p;
                slot
            }
            None => {
                self.slots.push(p);
                (self.slots.len() - 1) as u32
            }
        };
        let (slots, src) = (&self.slots, msg.src.index() as u32);
        let at = self
            .order
            .partition_point(|&(s, slot)| (s, slots[slot as usize].msg.id) <= (src, msg.id));
        self.order.insert(at, (src, slot));
        self.next_depart = Some(self.next_depart.map_or(now, |d| d.min(now)));
    }

    fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
        let epoch = self.prio.epoch(cycle);
        if epoch > self.last_epoch {
            self.stats.rotations += epoch - self.last_epoch;
            self.last_epoch = epoch;
        }
        // Land first: a flit's links are free again in its arrival cycle,
        // which this cycle's round may grant them in. The round schedules
        // nothing earlier than the next cycle, so landing before it
        // delivers what landing after it would, in the same order.
        while let Some((at, (msg, granted))) = self.arrivals.pop_due(cycle) {
            if granted {
                self.release(self.links.route(msg.src, msg.dst), cycle);
            }
            self.stats.delivered += 1;
            out.push(Delivery::new(msg, at));
        }
        self.arbitrate(cycle);
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
        let mut waiting: Vec<&Pending> = self
            .order
            .iter()
            .map(|&(_, s)| &self.slots[s as usize])
            .collect();
        waiting.sort_unstable_by_key(|p| p.seq);
        let pending_messages = waiting
            .iter()
            .map(|p| p.msg.pending(p.submitted_at, p.fault_attempts))
            .collect();
        self.faults
            .snapshot(cycle, pending_messages, self.links.count(), |l| {
                (self.busy_until[l].value(), self.reserved_by[l])
            })
    }
}

mod reference;

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
