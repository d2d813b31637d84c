//! Event-based energy and area model for the NOCSTAR simulator.
//!
//! The paper evaluates energy with McPAT plus its own 28 nm place-and-route
//! numbers (Fig 9); we reproduce that as a linear accounting model: every
//! simulated event (TLB lookup, switch/link traversal, arbitration, cache
//! or DRAM access during a page walk) contributes a fixed dynamic energy,
//! and per-tile static power integrates over runtime.
//!
//! * [`model`] — per-event dynamic-energy constants and the per-message
//!   breakdown of Fig 11(b).
//! * [`account`] — the running tally a simulation accumulates into.
//! * [`area`] — the Fig 9 tile power/area table.
//!
//! # Examples
//!
//! ```
//! use nocstar_energy::model::{message_energy, NocDesign};
//!
//! let nocstar = message_energy(NocDesign::Nocstar { slice_entries: 920 }, 8);
//! let mono = message_energy(NocDesign::Monolithic { total_entries: 32 * 1536 }, 8);
//! assert!(nocstar.total() < mono.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod account;
pub mod area;
pub mod model;

pub use account::EnergyAccount;
pub use area::TileCosts;
pub use model::{message_energy, EnergyBreakdown, NocDesign};
