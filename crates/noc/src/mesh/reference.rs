//! The contended mesh and SMART as two separate steppers, kept verbatim
//! from before they became one engine (minus diagnostics and the
//! closed-form contention-free path, which did not change). The merged
//! [`MeshNoc`](super::MeshNoc) must match them delivery for delivery and
//! counter for counter; see the differential property tests below.

#![cfg(test)]

/// The contended multi-hop mesh: one link per hop, 2 cycles per hop.
pub mod mesh {
    use crate::message::{Delivery, Message};
    use crate::topology::Links;
    use crate::{Interconnect, NocStats};
    use nocstar_faults::{FaultPlan, FaultStats, RecoveryPolicy, RecoveryStats};
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

    #[derive(Debug, Clone)]
    pub struct MeshNoc {
        links: Links,
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
                flights: Vec::new(),
                scheduled: BinaryHeap::new(),
                seq: 0,
                faults: FaultPlan::default(),
                fstats: FaultStats::default(),
                recovery: RecoveryPolicy::default(),
                rstats: RecoveryStats::default(),
            }
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
                        let (msg, submitted_at, attempts) =
                            (f.msg, f.submitted_at, f.fault_attempts);
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

        fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
            self.step_flights(cycle);
            while self.scheduled.peek().is_some_and(|top| top.at <= cycle) {
                let Some(s) = self.scheduled.pop() else { break };
                self.stats.delivered += 1;
                self.stats.latency.record(s.at - s.submitted_at);
                if !s.stalled {
                    self.stats.no_contention += 1;
                }
                out.push(Delivery::new(s.msg, s.at));
            }
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
    }
}

/// The SMART bypass mesh: SA-G setup, then up to `HPCmax` hops a cycle.
pub mod smart {
    use crate::message::{Delivery, Message};
    use crate::topology::Links;
    use crate::{Interconnect, NocStats};
    use nocstar_faults::{FaultPlan, FaultStats, RecoveryPolicy, RecoveryStats};
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
                        let (msg, submitted_at, attempts) =
                            (f.msg, f.submitted_at, f.fault_attempts);
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

        fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
            self.step_flights(cycle);
            while self.scheduled.peek().is_some_and(|top| top.at <= cycle) {
                let Some(s) = self.scheduled.pop() else { break };
                self.stats.delivered += 1;
                self.stats.latency.record(s.at - s.submitted_at);
                if !s.stalled {
                    self.stats.no_contention += 1;
                }
                out.push(Delivery::new(s.msg, s.at));
            }
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
    }
}

mod differential {
    use crate::mesh::MeshNoc;
    use crate::message::{Message, MsgKind};
    use crate::topology::Links;
    use crate::Interconnect;
    use nocstar_faults::{FaultPlan, RecoveryPolicy};
    use nocstar_types::time::Cycle;
    use nocstar_types::{CoreId, MeshShape};
    use proptest::collection::vec;
    use proptest::sample::select;
    use proptest::strategy::Strategy;
    use proptest::test_runner::{ProptestConfig, TestCaseError};

    /// `(8x1 instead of 4x4, HPCmax or None for the contended mesh,
    /// recovery policy, retry budget)`.
    type Setup = (bool, Option<usize>, usize, Option<u32>);
    /// `(src, dst, submit cycle)` per message.
    type Sends = Vec<(usize, usize, u64)>;
    /// `(link, window start, window length, degradation or 0 for off)`.
    type Clauses = Vec<(usize, u64, u64, u64)>;

    fn cases() -> impl Strategy<Value = (Setup, Sends, Clauses)> {
        (
            (
                proptest::any::<bool>(),
                select(vec![None, Some(1), Some(2), Some(8)]),
                0usize..3,
                select(vec![None, Some(1), Some(3)]),
            ),
            vec((0usize..16, 0usize..16, 0u64..40), 1..60),
            vec((0usize..48, 0u64..200, 1u64..200, 0u64..4), 0..4),
        )
    }

    /// Submits `sends` in cycle order and steps `noc` until it is idle,
    /// returning every delivery as `(id, at)`.
    fn drive(noc: &mut dyn Interconnect, sends: &[(usize, usize, u64)]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let (mut next, mut cycle) = (0, 0);
        for _ in 0..100_000 {
            let due = sends.get(next).map(|s| s.2);
            let Some(at) = noc
                .next_activity()
                .map(Cycle::value)
                .into_iter()
                .chain(due)
                .min()
            else {
                break;
            };
            cycle = at.max(cycle);
            while let Some(&(src, dst, _)) = sends.get(next).filter(|s| s.2 <= cycle) {
                let msg = Message::new(
                    next as u64,
                    CoreId::new(src),
                    CoreId::new(dst),
                    MsgKind::TlbRequest,
                );
                noc.submit(Cycle::new(cycle), msg);
                next += 1;
            }
            let delivered = noc.advance(Cycle::new(cycle));
            out.extend(delivered.iter().map(|d| (d.msg.id, d.at().value())));
            cycle += 1;
        }
        out
    }

    /// The merged engine and its reference agree on the delivery
    /// sequence and on every network, fault and recovery counter.
    fn check((setup, mut sends, clauses): (Setup, Sends, Clauses)) -> Result<(), TestCaseError> {
        let (narrow, hpc, policy, retry) = setup;
        let (shape, cores) = if narrow {
            (MeshShape::new(8, 1), 8)
        } else {
            (MeshShape::new(4, 4), 16)
        };
        for s in &mut sends {
            (s.0, s.1) = (s.0 % cores, s.1 % cores);
        }
        sends.sort_by_key(|s| s.2);
        let links = Links::new(shape).count();
        let mut plan: Vec<String> = clauses
            .iter()
            .map(|&(l, a, len, d)| {
                let effect = if d == 0 {
                    "off".into()
                } else {
                    format!("+{d}")
                };
                format!("link:{}@{a}-{}={effect}", l % links, a + len)
            })
            .collect();
        plan.extend(retry.map(|r| format!("retry={r}")));
        let plan: FaultPlan = plan.join("; ").parse().expect("valid plan");
        let policy = match policy {
            0 => RecoveryPolicy::default(),
            1 => "reroute".parse().expect("valid policy"),
            _ => RecoveryPolicy::all(),
        };
        let (mut engine, mut reference): (MeshNoc, Box<dyn Interconnect>) = match hpc {
            None => (
                MeshNoc::contended(shape),
                Box::new(super::mesh::MeshNoc::contended(shape)),
            ),
            Some(h) => (
                MeshNoc::new(shape, h),
                Box::new(super::smart::SmartNoc::new(shape, h)),
            ),
        };
        for noc in [&mut engine as &mut dyn Interconnect, reference.as_mut()] {
            noc.install_faults(plan.clone());
            noc.install_recovery(policy);
        }
        proptest::prop_assert_eq!(
            drive(&mut engine, &sends),
            drive(reference.as_mut(), &sends)
        );
        let counters = |noc: &dyn Interconnect| {
            format!(
                "{:?} {:?} {:?}",
                noc.stats(),
                noc.fault_stats(),
                noc.recovery_stats()
            )
        };
        proptest::prop_assert_eq!(counters(&engine), counters(reference.as_ref()));
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn prop_engine_matches_reference(case in cases()) {
            check(case)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        #[ignore = "nightly: 2,048 differential cases (ci.sh --nightly)"]
        fn prop_engine_matches_reference_nightly(case in cases()) {
            check(case)?;
        }
    }
}
