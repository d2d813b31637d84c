//! The NOCSTAR system model — the paper's primary contribution, assembled.
//!
//! This crate ties the substrates (TLBs, memory system, interconnects,
//! workloads, energy model) into a configurable full-system simulation:
//!
//! * [`config`] — [`SystemConfig`]/[`TlbOrg`]: core count, L2 TLB
//!   organization (private / monolithic / distributed / NOCSTAR / ideal),
//!   SMT, L1 scaling, prefetch, page-walk and shootdown policies (Table II
//!   and the §V studies).
//! * [`assignment`] — mapping workloads onto hardware threads
//!   (homogeneous, 4-app mixes, storm, slice hammer).
//! * [`sim`] — the event-driven simulation loop implementing the paper's
//!   translation timeline (Fig 10): L1 lookup, path setup, single-cycle
//!   traversal, pipelined slice lookup, response, walk policies,
//!   shootdown relay via invalidation leaders.
//! * [`report`] — [`SimReport`] with the measurements every figure of the
//!   paper is computed from.
//! * [`sampling`] — per-window samples and confidence-interval estimates
//!   for sampled fast-forward replay (`SAMPLING.md`).
//!
//! # Examples
//!
//! ```
//! use nocstar_core::assignment::WorkloadAssignment;
//! use nocstar_core::config::{SystemConfig, TlbOrg};
//! use nocstar_core::sim::Simulation;
//! use nocstar_workloads::preset::Preset;
//!
//! let config = SystemConfig::new(4, TlbOrg::paper_nocstar());
//! let workload = WorkloadAssignment::preset(&config, Preset::Gups);
//! let report = Simulation::new(config, workload).run(200);
//! assert_eq!(report.accesses, 4 * 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod assignment;
pub mod config;
mod event;
pub mod network;
pub mod org;
pub mod report;
pub mod sampling;
pub mod sim;

pub use assignment::WorkloadAssignment;
pub use config::{MonolithicNet, SystemConfig, TlbOrg, WalkPolicy};
pub use nocstar_faults::{FaultPlan, SimError};
pub use report::SimReport;
pub use sampling::{MetricEstimate, SamplingReport};
pub use sim::{SimAbort, Simulation};
