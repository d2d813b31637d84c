//! How a fabric counts what lands.
//!
//! Circuit, mesh and SMART schedule every message, local ones included,
//! in a [`Calendar`](nocstar_types::Calendar) and deliver it when it pops,
//! in `(arrival cycle, push order)` order. [`land`] counts a delivery
//! against its route's zero-queueing floor, for the fabrics that time
//! messages as they land rather than when they are scheduled: the bus and
//! the hierarchical fabric's end-to-end deliveries.

use crate::message::{Delivery, Message};
use crate::NocStats;
use nocstar_types::time::{Cycle, Cycles};

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
