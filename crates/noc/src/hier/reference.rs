//! The crossbar as a standalone fabric, kept verbatim from when each of
//! `HierNoc`'s clusters was a boxed fabric (a shared [`BusNoc`] or this
//! [`XbarNoc`]). The compact [`ClusterArbiter`] that replaced both must
//! match them delivery for delivery, in order, and report the same next
//! activity after every step; see the differential property tests below.

#![cfg(test)]

use super::cluster::ClusterArbiter;
use super::IntraKind;
use crate::arrivals::land;
use crate::bus::{BusNoc, Lane};
use crate::message::{Delivery, Message, MsgKind};
use crate::{Interconnect, NocStats};
use nocstar_faults::DiagSnapshot;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{CoreId, MeshShape};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A non-blocking crossbar: every output port arbitrates independently
/// (oldest message first, ids breaking ties) and a granted message takes
/// one cycle to traverse. Contention only arises when two inputs target
/// the same output. Used as the intra-cluster fabric of `HierNoc`;
/// injected faults are handled at the overlay level, so this model keeps
/// no fault state.
#[derive(Debug, Clone)]
pub struct XbarNoc {
    /// First core index served by this crossbar (ports are addressed as
    /// `dst - base`).
    base: usize,
    /// Index-addressed output ports — the flat arena replacing per-tile
    /// allocations at 1024-core scale.
    ports: Vec<OutPort>,
    local: Lane,
    stats: NocStats,
}

#[derive(Debug, Clone, Default)]
struct OutPort {
    /// Waiting messages: (message, submitted_at).
    pending: Vec<(Message, Cycle)>,
    /// The granted traversal: (message, arrival, submitted_at).
    in_flight: Option<(Message, Cycle, Cycle)>,
}

impl XbarNoc {
    /// A crossbar serving cores `[base, base + ports)`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(base: usize, ports: usize) -> Self {
        assert!(ports > 0, "a crossbar needs at least one port");
        Self {
            base,
            ports: vec![OutPort::default(); ports],
            local: Lane::default(),
            stats: NocStats::with_links(ports),
        }
    }

    fn port_of(&self, dst: CoreId) -> usize {
        dst.index() - self.base
    }
}

impl Interconnect for XbarNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.local.push(msg, now);
            return;
        }
        let port = self.port_of(msg.dst);
        self.ports[port].pending.push((msg, now));
    }

    fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
        self.local.land_due(cycle, &mut self.stats, out);
        for (p, port) in self.ports.iter_mut().enumerate() {
            if let Some((msg, at, submitted)) = port.in_flight {
                if at <= cycle {
                    port.in_flight = None;
                    out.push(land(&mut self.stats, msg, at, submitted, Cycles::ONE));
                }
            }
            if port.in_flight.is_none() {
                // Oldest waiter wins the output port, ids breaking ties.
                let next = port
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, at))| at <= cycle)
                    .min_by_key(|(_, &(msg, at))| (at, msg.id))
                    .map(|(i, _)| i);
                if let Some(i) = next {
                    let (msg, submitted) = port.pending.remove(i);
                    port.in_flight = Some((msg, cycle + Cycles::ONE, submitted));
                    self.stats.grants += 1;
                    self.stats.link_busy[p] += 1;
                }
            }
        }
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flights = self
            .ports
            .iter()
            .filter_map(|p| p.in_flight.map(|(_, at, _)| at));
        // A queued message behind an occupied output port cannot win
        // arbitration until the in-flight transfer lands, so clamp its
        // reported activity to that arrival (see BusNoc::next_activity).
        let queued = self.ports.iter().flat_map(|p| {
            let busy = p.in_flight.map(|(_, at, _)| at);
            p.pending
                .iter()
                .map(move |&(_, at)| busy.map_or(at, |b| at.max(b)))
        });
        flights.chain(queued).chain(self.local.next_at()).min()
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let pending_messages = self
            .ports
            .iter()
            .flat_map(|p| p.pending.iter())
            .map(|&(msg, submitted_at)| msg.pending(submitted_at, 0))
            .collect();
        DiagSnapshot {
            cycle: cycle.value(),
            pending_messages,
            ..DiagSnapshot::default()
        }
    }
}

/// One random step `(op, src, dst, gap)`: op 0 submits `src -> dst` at
/// the current cycle, op 1 one cycle ahead (as the simulator issues a
/// request at `t_req`), op 2 advances at the current cycle, and op 3
/// moves time to the next activity or `gap` cycles on, whichever is
/// sooner. Ports are `src % ports`, `dst % ports`, so same-tile legs
/// come up often.
type Op = (u8, usize, usize, u64);

fn cases() -> impl Strategy<Value = (bool, usize, Vec<Op>)> {
    (
        any::<bool>(),
        1usize..6,
        prop::collection::vec((0u8..4, 0usize..6, 0usize..6, 0u64..4), 1..200),
    )
}

/// The earlier of two next activities, `None` being never.
fn earlier(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Drives an arbiter and its reference with the same steps, then drains
/// both. The arbiter's next activity is checked both as it reports it
/// and as `HierNoc`'s index tracks it: lowered by what `submit` returns,
/// recomputed after `advance`.
fn check((xbar, ports, ops): (bool, usize, Vec<Op>)) -> Result<(), TestCaseError> {
    const BASE: usize = 8;
    let kind = if xbar {
        IntraKind::Xbar
    } else {
        IntraKind::Bus
    };
    let mut arbiter = ClusterArbiter::new(if xbar { ports } else { 1 });
    let mut reference: Box<dyn Interconnect> = if xbar {
        Box::new(XbarNoc::new(BASE, ports))
    } else {
        Box::new(BusNoc::new(MeshShape::square_for(16)))
    };
    let mut tracked = None;
    let mut now = Cycle::ZERO;
    let advance = |arbiter: &mut ClusterArbiter,
                   reference: &mut Box<dyn Interconnect>,
                   tracked: &mut Option<Cycle>,
                   cycle: Cycle|
     -> Result<(), TestCaseError> {
        let mut got = Vec::new();
        arbiter.advance(cycle, kind, &mut got);
        prop_assert_eq!(got, reference.advance(cycle));
        *tracked = arbiter.next_activity(kind);
        Ok(())
    };
    for (n, &(op, src, dst, gap)) in ops.iter().enumerate() {
        match op {
            0 | 1 => {
                // Unique ids out of submit order, so the crossbar's id
                // tie-break matters.
                let id = (n as u64 * 7_919) % 10_007;
                let (src, dst) = (BASE + src % ports, BASE + dst % ports);
                let msg = Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest);
                let at = now + Cycles::new(u64::from(op));
                reference.submit(at, msg);
                let port = if xbar { dst - BASE } else { 0 };
                if let Some(c) = arbiter.submit(at, msg, port, kind) {
                    tracked = earlier(tracked, Some(c));
                }
            }
            2 => advance(&mut arbiter, &mut reference, &mut tracked, now)?,
            _ => {
                let gap = now + Cycles::new(gap);
                now = reference
                    .next_activity()
                    .map_or(gap, |at| at.min(gap).max(now));
            }
        }
        prop_assert_eq!(arbiter.next_activity(kind), reference.next_activity());
        prop_assert_eq!(tracked, reference.next_activity());
    }
    while let Some(at) = reference.next_activity() {
        now = now.max(at);
        advance(&mut arbiter, &mut reference, &mut tracked, now)?;
        prop_assert_eq!(tracked, reference.next_activity());
        now += Cycles::ONE;
    }
    prop_assert_eq!(arbiter.next_activity(kind), None);
    Ok(())
}

proptest! {
    #[test]
    fn prop_arbiter_matches_reference(case in cases()) {
        check(case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    #[ignore = "nightly: 2,048 differential cases (ci.sh --nightly)"]
    fn prop_arbiter_matches_reference_nightly(case in cases()) {
        check(case)?;
    }
}
