//! Fixture: host nondeterminism laundered toward event-time and report
//! sinks: a clock read through a `let` chain into `.at`, a hash-map
//! iteration stamping `at:`, entropy folded into a SimReport. Each source
//! read is itself an error in a sim crate, so no such flow goes unflagged.

use std::collections::HashMap; //~ clippy::disallowed_types
use std::hash::BuildHasher;
use std::time::Instant; //~ clippy::disallowed_types

pub struct Ev {
    pub at: u64,
}

pub struct SimReport {
    pub walks: u64,
}

pub fn stamp(ev: &mut Ev) {
    let t0 = Instant::now(); //~ clippy::disallowed_methods clippy::disallowed_types
    let dt = t0.elapsed().as_nanos() as u64;
    ev.at = dt;
}

pub struct Sched {
    pending: HashMap<u64, u64>, //~ clippy::disallowed_types
}

impl Sched {
    pub fn emit(&self, out: &mut Vec<Ev>) {
        for vpn in self.pending.keys() {
            out.push(Ev { at: *vpn });
        }
    }
}

pub fn summarize() -> SimReport {
    let jitter = std::hash::RandomState::new().hash_one(0u64); //~ clippy::disallowed_types
    SimReport { walks: jitter }
}
