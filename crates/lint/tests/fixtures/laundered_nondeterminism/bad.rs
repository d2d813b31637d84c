//! Fixture: host nondeterminism laundered toward event-time and report
//! sinks — a clock read through a `let` chain into `.at`, a hash-map
//! iteration stamping `at:`, entropy folded into a SimReport. Each source
//! read is itself an error in a sim crate, so no such flow goes unflagged.

use std::collections::HashMap;
use std::time::Instant;

pub struct Ev {
    pub at: u64,
}

pub struct SimReport {
    pub walks: u64,
}

pub fn stamp(ev: &mut Ev) {
    let t0 = Instant::now();
    let dt = t0.elapsed().as_nanos() as u64;
    ev.at = dt;
}

pub struct Sched {
    pending: HashMap<u64, u64>,
}

impl Sched {
    pub fn emit(&self, out: &mut Vec<Ev>) {
        for vpn in self.pending.keys() {
            out.push(Ev { at: *vpn });
        }
    }
}

pub fn summarize() -> SimReport {
    let jitter = rand::random::<u64>();
    SimReport { walks: jitter }
}
