//! How messages leave a fabric: the two delivery disciplines the models
//! share.
//!
//! * [`Arrivals`] (circuit, flit mesh, SMART) pops scheduled messages in
//!   `(arrival cycle, push order)` order. A local message is pushed at
//!   submit like any other, so it lands after everything scheduled
//!   before it for the same cycle.
//! * [`Lane`] and [`land`] (bus, crossbar) serve one-cycle media. A
//!   fabric lands its local lane first, then the medium's arrival, so a
//!   local message leaves before a same-cycle remote one.

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

/// Messages that land by themselves once due, in submission order:
/// `(message, arrival, submitted_at)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lane(Vec<(Message, Cycle, Cycle)>);

impl Lane {
    /// Queues `msg`, submitted at `submitted_at`, to land at `at`.
    pub(crate) fn push(&mut self, msg: Message, at: Cycle, submitted_at: Cycle) {
        self.0.push((msg, at, submitted_at));
    }

    /// The earliest queued arrival.
    pub(crate) fn next_at(&self) -> Option<Cycle> {
        self.0.iter().map(|&(_, at, _)| at).min()
    }

    /// [`land`]s every message due by `cycle`, in submission order, on a
    /// one-cycle floor.
    pub(crate) fn land_due(&mut self, cycle: Cycle, stats: &mut NocStats, out: &mut Vec<Delivery>) {
        self.0.retain(|&(msg, at, submitted_at)| {
            let due = at <= cycle;
            if due {
                land(stats, msg, at, submitted_at, Cycles::ONE, out);
            }
            !due
        });
    }
}

/// Delivers `msg` at `at` and counts it: a latency within `floor`, the
/// route's zero-queueing time, is contention-free, and anything longer
/// counts one retry. A one-cycle medium's floor is one cycle.
pub(crate) fn land(
    stats: &mut NocStats,
    msg: Message,
    at: Cycle,
    submitted_at: Cycle,
    floor: Cycles,
    out: &mut Vec<Delivery>,
) {
    let latency = at - submitted_at;
    stats.delivered += 1;
    stats.latency.record(latency);
    if latency <= floor {
        stats.no_contention += 1;
    } else {
        stats.retries += 1;
    }
    out.push(Delivery::new(msg, at));
}
