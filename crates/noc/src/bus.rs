//! A shared-bus interconnect (Table I's "Bus" row).
//!
//! One transaction owns the whole medium per cycle: latency is excellent
//! at low load (arbitrate, then a single broadcast cycle reaches any
//! destination), but bandwidth is one message per cycle chip-wide and
//! every transfer swings the full bus — the paper's "+/−" latency/bandwidth
//! marks. Included as a measurable baseline for the Table I comparison and
//! for ablation against the NOCSTAR fabric at matching load.

use crate::arrivals::{land, Lane};
use crate::message::{Delivery, Message};
use crate::{FaultState, Interconnect, NocStats};
use nocstar_faults::DiagSnapshot;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::MeshShape;
use std::collections::VecDeque;

/// The bus network model.
///
/// # Examples
///
/// ```
/// use nocstar_noc::bus::BusNoc;
/// use nocstar_noc::message::{Message, MsgKind};
/// use nocstar_noc::Interconnect;
/// use nocstar_types::{CoreId, Cycle, MeshShape};
///
/// let mut bus = BusNoc::new(MeshShape::square_for(16));
/// bus.submit(Cycle::ZERO, Message::new(1, CoreId::new(0), CoreId::new(15), MsgKind::TlbRequest));
/// bus.advance(Cycle::ZERO);
/// let d = bus.advance(Cycle::new(1));
/// assert_eq!(d[0].at, Cycle::new(1)); // grant at 0, broadcast during 1
/// ```
#[derive(Debug, Clone)]
pub struct BusNoc {
    /// FIFO of (message, submitted_at, fault_attempts) awaiting the bus.
    pending: VecDeque<(Message, Cycle, u64)>,
    /// The broadcast in flight, if any: (message, arrival, submitted_at).
    in_flight: Option<(Message, Cycle, Cycle)>,
    /// Local (same-tile) messages, delivered without touching the bus.
    local: Lane,
    /// Messages escaping a faulted bus over the maintenance wires.
    escaped: Lane,
    /// Earliest cycle the arbiter may grant again after a fault block
    /// (keeps time advancing during an outage instead of busy-spinning).
    next_try: Cycle,
    stats: NocStats,
    faults: FaultState,
}

impl BusNoc {
    /// Builds a bus spanning the chip (the shape only scales analytical
    /// energy elsewhere; bus latency is distance-independent).
    pub fn new(_mesh: MeshShape) -> Self {
        Self {
            pending: VecDeque::new(),
            in_flight: None,
            local: Lane::default(),
            escaped: Lane::default(),
            next_try: Cycle::ZERO,
            // The shared medium is modelled as a single link (index 0).
            stats: NocStats::with_links(1),
            faults: FaultState::default(),
        }
    }
}

impl Interconnect for BusNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.local.push(msg, now, now);
            return;
        }
        self.pending.push_back((msg, now, 0));
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        let mut out = Vec::new();
        // Local messages bypass the bus entirely.
        self.local.land_due(cycle, &mut self.stats, &mut out);
        // Deliver the completed broadcast.
        if let Some((msg, at, submitted)) = self.in_flight {
            if at <= cycle {
                self.in_flight = None;
                land(&mut self.stats, msg, at, submitted, Cycles::ONE, &mut out);
            }
        }
        self.escaped.land_due(cycle, &mut self.stats, &mut out);
        // Grant the bus to the oldest waiter.
        if self.in_flight.is_none() && cycle >= self.next_try {
            if let Some(&(msg, submitted, attempts)) = self.pending.front() {
                if submitted <= cycle {
                    let plan = &self.faults.plan;
                    if plan.link_outage(0, cycle.value()) {
                        // The shared medium is down this cycle: stall the
                        // grant one cycle (so time keeps advancing) and,
                        // past the retry budget, escape over the
                        // point-to-point maintenance wires.
                        let budget = plan.retry.max_attempts;
                        self.faults.stats.link_blocked += 1;
                        self.stats.retries += 1;
                        let attempts = attempts + 1;
                        if let Some(front) = self.pending.front_mut() {
                            front.2 = attempts;
                        }
                        if budget.is_some_and(|m| attempts >= u64::from(m)) {
                            self.pending.pop_front();
                            self.faults.stats.fallbacks += 1;
                            self.faults.stats.retries_per_fallback.record(attempts);
                            self.escaped.push(msg, cycle + Cycles::new(2), submitted);
                        } else {
                            self.next_try = cycle + Cycles::ONE;
                        }
                    } else {
                        self.pending.pop_front();
                        let extra = self.faults.plan.link_degrade(0, cycle.value());
                        if extra > 0 {
                            self.faults.stats.degraded_traversals += 1;
                        }
                        let held = extra.saturating_add(1);
                        self.in_flight =
                            Some((msg, cycle.saturating_add(Cycles::new(held)), submitted));
                        self.stats.grants += 1;
                        self.stats.link_busy[0] = self.stats.link_busy[0].saturating_add(held);
                    }
                }
            }
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flight = self.in_flight.map(|(_, at, _)| at);
        // A queued message cannot be granted while a broadcast occupies the
        // bus, so its earliest activity is the in-flight arrival: reporting
        // it at its submit cycle would make an event loop that trusts
        // next_activity() spin without progress.
        let queue = self.pending.front().map(|&(_, at, _)| {
            let at = at.max(self.next_try);
            flight.map_or(at, |f| at.max(f))
        });
        [flight, queue, self.local.next_at(), self.escaped.next_at()]
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

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let mut pending_messages: Vec<_> = self
            .pending
            .iter()
            .map(|&(msg, submitted_at, attempts)| msg.pending(submitted_at, attempts))
            .collect();
        pending_messages.extend(
            self.in_flight
                .map(|(msg, _, submitted)| msg.pending(submitted, 0)),
        );
        let busy_until = self.in_flight.map_or(0, |(_, at, _)| at.value());
        self.faults
            .snapshot(cycle, pending_messages, 1, |_| (busy_until, None))
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

    fn drain(bus: &mut BusNoc, from: Cycle) -> Vec<Delivery> {
        crate::drain_until_idle(bus, from, 10_000).expect("bus did not quiesce")
    }

    #[test]
    fn outage_stalls_the_bus_then_traffic_resumes() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        bus.install_faults("link:0@0-30=off; retry=inf".parse().unwrap());
        bus.submit(Cycle::ZERO, msg(1, 0, 5));
        let d = drain(&mut bus, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        assert!(d[0].at >= Cycle::new(30));
        assert!(bus.fault_stats().unwrap().link_blocked > 0);
    }

    #[test]
    fn permanent_outage_escapes_after_retry_budget() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        bus.install_faults("link:0@0-1000000=off; retry=5".parse().unwrap());
        bus.submit(Cycle::ZERO, msg(1, 0, 5));
        let d = drain(&mut bus, Cycle::ZERO);
        assert_eq!(d.len(), 1, "escape path must deliver");
        assert_eq!(bus.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn same_cycle_local_delivery_precedes_the_broadcast() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        bus.submit(Cycle::ZERO, msg(1, 0, 5));
        assert!(bus.advance(Cycle::ZERO).is_empty());
        bus.submit(Cycle::new(1), msg(2, 3, 3));
        let d = bus.advance(Cycle::new(1));
        let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at.value())).collect();
        assert_eq!(order, [(2, 1), (1, 1)]);
    }

    #[test]
    fn single_message_takes_two_cycles_regardless_of_distance() {
        let mut bus = BusNoc::new(MeshShape::square_for(64));
        bus.submit(Cycle::ZERO, msg(1, 0, 63));
        let d = drain(&mut bus, Cycle::ZERO);
        assert_eq!(d[0].at, Cycle::new(1));
    }

    #[test]
    fn bandwidth_is_one_message_per_cycle() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        for i in 0..4 {
            bus.submit(Cycle::ZERO, msg(i, i as usize, 15));
        }
        let d = drain(&mut bus, Cycle::ZERO);
        let times: Vec<u64> = d.iter().map(|d| d.at.value()).collect();
        assert_eq!(times, vec![1, 2, 3, 4]);
        assert!(bus.stats().retries > 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        bus.submit(Cycle::new(0), msg(10, 0, 5));
        bus.submit(Cycle::new(0), msg(11, 1, 6));
        let d = drain(&mut bus, Cycle::ZERO);
        assert_eq!(d[0].msg.id, 10);
        assert_eq!(d[1].msg.id, 11);
    }

    #[test]
    fn stats_count_latency() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        bus.submit(Cycle::ZERO, msg(1, 0, 3));
        bus.submit(Cycle::ZERO, msg(2, 1, 3));
        drain(&mut bus, Cycle::ZERO);
        assert_eq!(bus.stats().delivered, 2);
        assert!(bus.stats().latency.max() >= Cycles::new(2));
    }
}
