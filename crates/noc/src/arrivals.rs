//! How messages leave a fabric.
//!
//! * [`Arrivals`] (circuit, flit mesh, SMART) pops scheduled messages in
//!   `(arrival cycle, push order)` order. A local message is pushed at
//!   submit like any other, so it lands after everything scheduled
//!   before it for the same cycle.
//! * [`land`] counts a delivery against its route's zero-queueing floor,
//!   for the fabrics that time messages as they land rather than when
//!   they are scheduled: the bus and the hierarchical fabric's
//!   end-to-end deliveries.

use crate::message::{Delivery, Message};
use crate::NocStats;
use nocstar_types::time::{Cycle, Cycles};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Scheduled arrivals, each with a per-fabric tag `T`: what the fabric
/// still needs when the message lands.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arrivals<T> {
    heap: BinaryHeap<Arrival<T>>,
    pushed: u64,
}

#[derive(Debug, Clone)]
struct Arrival<T> {
    at: Cycle,
    seq: u64,
    msg: Message,
    tag: T,
}

impl<T> Ord for Arrival<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, so the max-heap pops the earliest `(at, seq)`.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> PartialOrd for Arrival<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Arrival<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Arrival<T> {}

impl<T> Arrivals<T> {
    /// Schedules `msg` to land at `at`, after everything already
    /// scheduled for that cycle.
    pub(crate) fn push(&mut self, at: Cycle, msg: Message, tag: T) {
        self.pushed += 1;
        self.heap.push(Arrival {
            at,
            seq: self.pushed,
            msg,
            tag,
        });
    }

    /// The earliest scheduled arrival.
    pub(crate) fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|a| a.at)
    }

    /// Pops the next arrival due at or before `cycle`.
    pub(crate) fn pop_due(&mut self, cycle: Cycle) -> Option<(Delivery, T)> {
        if self.next_at()? > cycle {
            return None;
        }
        let a = self.heap.pop()?;
        Some((Delivery::new(a.msg, a.at), a.tag))
    }
}

/// Counts `msg`'s delivery at `at` and returns it: a latency within
/// `floor`, the route's zero-queueing time, is contention-free, and
/// anything longer counts one retry. A one-cycle medium's floor is one
/// cycle.
pub(crate) fn land(
    stats: &mut NocStats,
    msg: Message,
    at: Cycle,
    submitted_at: Cycle,
    floor: Cycles,
) -> Delivery {
    let latency = at - submitted_at;
    stats.delivered += 1;
    stats.latency.record(latency);
    if latency <= floor {
        stats.no_contention += 1;
    } else {
        stats.retries += 1;
    }
    Delivery::new(msg, at)
}
