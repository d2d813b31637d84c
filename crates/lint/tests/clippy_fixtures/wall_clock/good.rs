//! Fixture: simulated time threads through as cycles; the only `Instant`
//! mention is in a comment, and `Duration` arithmetic reads no clock.

use std::time::Duration;

pub fn walk_latency_cycles(started_at: u64, now: u64) -> u64 {
    // Host Instant::now() timing belongs in crates/bench, not here.
    now.saturating_sub(started_at)
}

pub fn budget(cycles: u64) -> Duration {
    Duration::from_nanos(cycles)
}
