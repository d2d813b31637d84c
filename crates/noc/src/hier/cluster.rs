//! The cluster arbiters of [`HierNoc`](super::HierNoc).
//!
//! A cluster's fabric is one arbiter over its output ports: a shared bus
//! is one port every leg queues on, a crossbar has one port per member
//! tile. An arbiter keeps no statistics and no fault block. `HierNoc`
//! counts messages end to end, and faults act on the overlay, so nothing
//! would read either.

use super::IntraKind;
use crate::message::{Delivery, Message};
use nocstar_types::time::{Cycle, Cycles};
use std::collections::VecDeque;

/// One output port.
#[derive(Debug, Clone, Default)]
struct Port {
    /// Waiting legs in submission order: `(leg, submitted_at)`.
    pending: VecDeque<(Message, Cycle)>,
    /// The granted one-cycle traversal: `(leg, arrival)`.
    in_flight: Option<(Message, Cycle)>,
}

impl Port {
    /// The submit cycle of the leg `kind` grants next, once the port is
    /// free: the FIFO front on a bus, the oldest waiter on a crossbar.
    fn head(&self, kind: IntraKind) -> Option<Cycle> {
        match kind {
            IntraKind::Bus => self.pending.front().map(|&(_, at)| at),
            IntraKind::Xbar => self.pending.iter().map(|&(_, at)| at).min(),
        }
    }

    /// The earliest cycle this port has work: its traversal's arrival,
    /// since nothing is granted before it lands, or else its next grant.
    fn next_activity(&self, kind: IntraKind) -> Option<Cycle> {
        self.in_flight.map(|(_, at)| at).or_else(|| self.head(kind))
    }

    /// Lands the traversal due by `cycle`, then grants the port if it is
    /// free: the bus's FIFO front once submitted, or the crossbar's
    /// oldest submitted waiter by `(submitted_at, id)`.
    fn advance(&mut self, cycle: Cycle, kind: IntraKind, out: &mut Vec<Delivery>) {
        if let Some((msg, at)) = self.in_flight {
            if at > cycle {
                return;
            }
            self.in_flight = None;
            out.push(Delivery::new(msg, at));
        }
        let granted = match kind {
            IntraKind::Bus => {
                let due = self.pending.front().is_some_and(|&(_, at)| at <= cycle);
                due.then(|| self.pending.pop_front()).flatten()
            }
            IntraKind::Xbar => {
                let oldest = self
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, at))| at <= cycle)
                    .min_by_key(|(_, &(msg, at))| (at, msg.id))
                    .map(|(i, _)| i);
                oldest.and_then(|i| self.pending.remove(i))
            }
        };
        if let Some((msg, _)) = granted {
            self.in_flight = Some((msg, cycle + Cycles::ONE));
        }
    }
}

/// One cluster's fabric: a local lane for same-tile legs and its output
/// ports.
#[derive(Debug, Clone)]
pub(super) struct ClusterArbiter {
    /// Same-tile legs in submission order: `(leg, submitted_at)`. They
    /// land once submitted, before any port's same-cycle arrival.
    local: Vec<(Message, Cycle)>,
    ports: Box<[Port]>,
}

impl ClusterArbiter {
    /// An idle arbiter over `ports` output ports.
    pub(super) fn new(ports: usize) -> Self {
        Self {
            local: Vec::new(),
            ports: vec![Port::default(); ports].into_boxed_slice(),
        }
    }

    /// Queues `leg` at `now` on output `port` (ignored for a same-tile
    /// leg). Returns `now` if the leg moves the arbiter's next activity
    /// to the earlier of the two, or `None` if it leaves it as it was:
    /// behind a traversal, which lands first, or behind a bus's FIFO
    /// front, which is granted first.
    pub(super) fn submit(
        &mut self,
        now: Cycle,
        leg: Message,
        port: usize,
        kind: IntraKind,
    ) -> Option<Cycle> {
        if leg.is_local() {
            self.local.push((leg, now));
            return Some(now);
        }
        let port = &mut self.ports[port];
        let earliest =
            port.in_flight.is_none() && (kind == IntraKind::Xbar || port.pending.is_empty());
        port.pending.push_back((leg, now));
        earliest.then_some(now)
    }

    /// Resolves `cycle`: lands the due same-tile legs, then each port in
    /// order lands its due traversal and grants its next one. Appends
    /// the landed legs to `out`.
    pub(super) fn advance(&mut self, cycle: Cycle, kind: IntraKind, out: &mut Vec<Delivery>) {
        if !self.local.is_empty() {
            self.local.retain(|&(msg, at)| {
                let due = at <= cycle;
                if due {
                    out.push(Delivery::new(msg, at));
                }
                !due
            });
        }
        for port in self.ports.iter_mut() {
            port.advance(cycle, kind, out);
        }
    }

    /// The earliest cycle at which [`advance`](Self::advance) does
    /// anything.
    pub(super) fn next_activity(&self, kind: IntraKind) -> Option<Cycle> {
        self.ports
            .iter()
            .filter_map(|p| p.next_activity(kind))
            .chain(self.local.iter().map(|&(_, at)| at))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use nocstar_types::CoreId;

    #[test]
    fn same_cycle_local_delivery_precedes_the_port_arrival() {
        let msg = |id, src, dst| {
            Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest)
        };
        for kind in [IntraKind::Bus, IntraKind::Xbar] {
            let mut arbiter = ClusterArbiter::new(4);
            let mut d = Vec::new();
            arbiter.submit(Cycle::ZERO, msg(1, 0, 3), 3, kind);
            arbiter.advance(Cycle::ZERO, kind, &mut d);
            assert!(d.is_empty());
            arbiter.submit(Cycle::new(1), msg(2, 2, 2), 2, kind);
            arbiter.advance(Cycle::new(1), kind, &mut d);
            let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at().value())).collect();
            assert_eq!(order, [(2, 1), (1, 1)], "{kind:?}");
        }
    }
}
