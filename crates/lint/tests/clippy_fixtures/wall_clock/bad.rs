//! Fixture: host-clock reads in sim logic, through a type alias and
//! through `UNIX_EPOCH` too.

use std::time::Instant; //~ clippy::disallowed_types

type Clock = Instant; //~ clippy::disallowed_types

pub fn walk_latency_cycles() -> u64 {
    let t0 = Clock::now(); //~ clippy::disallowed_methods
    let spent = t0.elapsed().as_nanos() as u64;
    let since_epoch = std::time::SystemTime::now(); //~ clippy::disallowed_methods clippy::disallowed_types
    let uptime = std::time::UNIX_EPOCH.elapsed(); //~ clippy::disallowed_methods
    let _ = (since_epoch, uptime);
    spent
}
