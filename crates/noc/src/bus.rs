//! A shared-bus interconnect (Table I's "Bus" row).
//!
//! One transaction owns the whole medium per cycle: latency is excellent
//! at low load (arbitrate, then a single broadcast cycle reaches any
//! destination), but bandwidth is one message per cycle chip-wide and
//! every transfer swings the full bus — the paper's "+/−" latency/bandwidth
//! marks. Included as a measurable baseline for the Table I comparison and
//! for ablation against the NOCSTAR fabric at matching load.
//!
//! The bus is a fault-free baseline: no simulated organization runs over
//! it, so it takes no fault plan and no recovery policy. A local
//! (same-tile) message lands before the medium's same-cycle arrival, as
//! it does in the hierarchical fabric's cluster arbiters.

use crate::arrivals::land;
use crate::message::{Delivery, Message};
use crate::{Interconnect, NocStats};
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
/// assert_eq!(d[0].at(), Cycle::new(1)); // grant at 0, broadcast during 1
/// ```
#[derive(Debug, Clone)]
pub struct BusNoc {
    /// FIFO of (message, submitted_at) awaiting the bus.
    pending: VecDeque<(Message, Cycle)>,
    /// The broadcast in flight, if any: (message, arrival, submitted_at).
    in_flight: Option<(Message, Cycle, Cycle)>,
    /// Local (same-tile) messages, delivered without touching the bus.
    local: Lane,
    stats: NocStats,
}

impl BusNoc {
    /// Builds a bus spanning the chip (the shape only scales analytical
    /// energy elsewhere; bus latency is distance-independent).
    pub fn new(_mesh: MeshShape) -> Self {
        Self {
            pending: VecDeque::new(),
            in_flight: None,
            local: Lane::default(),
            // The shared medium is modelled as a single link (index 0).
            stats: NocStats::with_links(1),
        }
    }
}

impl Interconnect for BusNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.local.push(msg, now);
            return;
        }
        self.pending.push_back((msg, now));
    }

    fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
        // Local messages bypass the bus entirely.
        self.local.land_due(cycle, &mut self.stats, out);
        // Deliver the completed broadcast.
        if let Some((msg, at, submitted)) = self.in_flight {
            if at <= cycle {
                self.in_flight = None;
                out.push(land(&mut self.stats, msg, at, submitted, Cycles::ONE));
            }
        }
        // Grant the free bus to the oldest waiter.
        let due = self.pending.front().is_some_and(|&(_, at)| at <= cycle);
        if self.in_flight.is_none() && due {
            if let Some((msg, submitted)) = self.pending.pop_front() {
                self.in_flight = Some((msg, cycle + Cycles::ONE, submitted));
                self.stats.grants += 1;
                self.stats.link_busy[0] += 1;
            }
        }
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flight = self.in_flight.map(|(_, at, _)| at);
        // A queued message cannot be granted while a broadcast occupies the
        // bus, so its earliest activity is the in-flight arrival: reporting
        // it at its submit cycle would make an event loop that trusts
        // next_activity() spin without progress.
        let queue = self
            .pending
            .front()
            .map(|&(_, at)| flight.map_or(at, |f| at.max(f)));
        [flight, queue, self.local.next_at()]
            .into_iter()
            .flatten()
            .min()
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let pending_messages = self
            .pending
            .iter()
            .map(|&(msg, submitted_at)| msg.pending(submitted_at, 0))
            .chain(
                self.in_flight
                    .map(|(msg, _, submitted)| msg.pending(submitted, 0)),
            )
            .collect();
        DiagSnapshot {
            cycle: cycle.value(),
            pending_messages,
            ..DiagSnapshot::default()
        }
    }
}

/// Same-tile messages, which land once submitted, in submission order:
/// `(message, submitted_at)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lane(Vec<(Message, Cycle)>);

impl Lane {
    /// Queues `msg`, submitted at `now`.
    pub(crate) fn push(&mut self, msg: Message, now: Cycle) {
        self.0.push((msg, now));
    }

    /// The earliest queued arrival.
    pub(crate) fn next_at(&self) -> Option<Cycle> {
        self.0.iter().map(|&(_, at)| at).min()
    }

    /// [`land`]s every message due by `cycle` into `out`, in submission
    /// order.
    pub(crate) fn land_due(&mut self, cycle: Cycle, stats: &mut NocStats, out: &mut Vec<Delivery>) {
        self.0.retain(|&(msg, at)| {
            let due = at <= cycle;
            if due {
                out.push(land(stats, msg, at, at, Cycles::ONE));
            }
            !due
        });
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
    fn same_cycle_local_delivery_precedes_the_broadcast() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        bus.submit(Cycle::ZERO, msg(1, 0, 5));
        assert!(bus.advance(Cycle::ZERO).is_empty());
        bus.submit(Cycle::new(1), msg(2, 3, 3));
        let d = bus.advance(Cycle::new(1));
        let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at().value())).collect();
        assert_eq!(order, [(2, 1), (1, 1)]);
    }

    #[test]
    fn single_message_takes_two_cycles_regardless_of_distance() {
        let mut bus = BusNoc::new(MeshShape::square_for(64));
        bus.submit(Cycle::ZERO, msg(1, 0, 63));
        let d = drain(&mut bus, Cycle::ZERO);
        assert_eq!(d[0].at(), Cycle::new(1));
    }

    #[test]
    fn bandwidth_is_one_message_per_cycle() {
        let mut bus = BusNoc::new(MeshShape::square_for(16));
        for i in 0..4 {
            bus.submit(Cycle::ZERO, msg(i, i as usize, 15));
        }
        let d = drain(&mut bus, Cycle::ZERO);
        let times: Vec<u64> = d.iter().map(|d| d.at().value()).collect();
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
