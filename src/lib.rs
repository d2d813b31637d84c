//! # NOCSTAR — scalable distributed last-level TLBs over a low-latency
//! # interconnect
//!
//! A full reproduction of *"Scalable Distributed Last-Level TLBs Using
//! Low-Latency Interconnects"* (MICRO 2018) as a Rust library: the
//! NOCSTAR distributed shared L2 TLB and its circuit-switched single-cycle
//! fabric, the baselines it is compared against (private L2 TLBs,
//! monolithic banked shared TLBs over mesh/SMART NoCs, mesh-connected
//! distributed TLBs), and the entire simulation substrate they run on
//! (multi-page-size TLB hierarchies, caches, radix page tables and
//! walkers, synthetic workloads, an energy model).
//!
//! This crate is a facade: it re-exports the workspace's crates and offers
//! a [`prelude`] for the common experiment workflow.
//!
//! ## Quickstart
//!
//! Compare NOCSTAR against the private-L2-TLB baseline on a 16-core chip:
//!
//! ```
//! use nocstar::prelude::*;
//!
//! let workload = Preset::Gups;
//! let baseline_cfg = SystemConfig::new(16, TlbOrg::paper_private());
//! let baseline = Simulation::new(
//!     baseline_cfg,
//!     WorkloadAssignment::preset(&baseline_cfg, workload),
//! )
//! .run(300);
//!
//! let nocstar_cfg = SystemConfig::new(16, TlbOrg::paper_nocstar());
//! let nocstar = Simulation::new(
//!     nocstar_cfg,
//!     WorkloadAssignment::preset(&nocstar_cfg, workload),
//! )
//! .run(300);
//!
//! let speedup = nocstar.speedup_vs(&baseline);
//! assert!(speedup > 0.5); // see the bench harness for the paper's numbers
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`types`] | Addresses, page sizes, ids, cycles, mesh geometry |
//! | [`stats`] | Counters, histograms, concurrency tracking, tables |
//! | [`tlb`] | Set-associative TLBs, L1/L2 structures, SRAM model, prefetch, shootdowns |
//! | [`mem`] | Caches, physical memory, page tables, the page walker |
//! | [`noc`] | Mesh, SMART, and the NOCSTAR circuit-switched fabric |
//! | [`faults`] | Deterministic fault injection, structured sim errors, diagnostic snapshots |
//! | [`energy`] | Event-based energy/area model (Fig 9, Fig 11b) |
//! | [`workloads`] | The 11 paper workloads, mixes, stress microbenchmarks |
//! | [`core`] | The full-system simulator and its configuration |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use nocstar_core as core;
pub use nocstar_energy as energy;
pub use nocstar_faults as faults;
pub use nocstar_mem as mem;
pub use nocstar_noc as noc;
pub use nocstar_stats as stats;
pub use nocstar_tlb as tlb;
pub use nocstar_types as types;
pub use nocstar_workloads as workloads;

/// The common experiment vocabulary in one import.
pub mod prelude {
    pub use nocstar_core::assignment::WorkloadAssignment;
    pub use nocstar_core::config::{MonolithicNet, SystemConfig, TlbOrg, WalkPolicy};
    pub use nocstar_core::report::SimReport;
    pub use nocstar_core::sampling::{MetricEstimate, SamplingReport};
    pub use nocstar_core::sim::{SimAbort, Simulation};
    pub use nocstar_faults::{FaultPlan, RecoveryPolicy, SimError};
    pub use nocstar_mem::walker::WalkLatency;
    pub use nocstar_noc::circuit::AcquireMode;
    pub use nocstar_noc::hier::{InterKind, IntraKind};
    pub use nocstar_stats::interval::Interval;
    pub use nocstar_stats::summary::Summary;
    pub use nocstar_stats::table::Table;
    pub use nocstar_tlb::prefetch::PrefetchDepth;
    pub use nocstar_tlb::shootdown::LeaderPolicy;
    pub use nocstar_types::time::{Cycle, Cycles};
    pub use nocstar_types::{Asid, CoreId, MeshShape, PageSize, ThreadId, VirtAddr};
    pub use nocstar_workloads::file_trace::FileTrace;
    pub use nocstar_workloads::multiprog::{all_mixes, Mix};
    pub use nocstar_workloads::nct::{NctError, NctFile};
    pub use nocstar_workloads::preset::Preset;
    pub use nocstar_workloads::recorded::RecordedTrace;
    pub use nocstar_workloads::sample::SampleSpec;
    pub use nocstar_workloads::spec::WorkloadSpec;
}
