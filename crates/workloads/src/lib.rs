//! Synthetic workload generation for the NOCSTAR simulator.
//!
//! The paper evaluates on PARSEC and CloudSuite applications scaled to 2 TB
//! footprints. Those traces are not available here, so this crate provides
//! seeded synthetic address-stream generators — one preset per paper
//! workload — whose knobs (footprint, hot-set size and weight, inter-thread
//! sharing, superpage backing, memory-op density) are calibrated so the
//! TLB-visible behaviour lands where the paper reports it: private-L2-TLB
//! miss rates of 5–18 % and shared-TLB miss elimination of 70–90 %
//! (see `EXPERIMENTS.md` for measured values).
//!
//! * [`trace`] — the event stream model ([`TraceEvent`], [`TraceSource`]).
//! * [`zipf`] — an O(1) bounded Zipf sampler (power-law workloads).
//! * [`spec`] — the tunable workload description ([`WorkloadSpec`]).
//! * [`generator`] — [`SyntheticTrace`], the spec interpreter.
//! * [`preset`] — the 11 paper workloads.
//! * [`recorded`] — in-memory trace capture/replay (and a JSON
//!   interchange format for externally produced traces).
//! * [`nct`] — the NCT compressed binary trace format (normative spec:
//!   `TRACE_FORMAT.md` at the repository root).
//! * [`file_trace`] — streaming NCT replay with bounded memory.
//! * [`microbench`] — the TLB-storm and slice-hammer stress tests (§V).
//! * [`multiprog`] — the 330 four-app multiprogrammed mixes (Fig 18).
//! * [`sample`] — the sampled-replay window-placement spec
//!   ([`SampleSpec`], normative spec: `SAMPLING.md`).
//!
//! # Examples
//!
//! ```
//! use nocstar_workloads::preset::Preset;
//! use nocstar_workloads::trace::{TraceEvent, TraceSource};
//! use nocstar_types::{Asid, ThreadId};
//!
//! let spec = Preset::Gups.spec();
//! let mut trace = spec.trace(Asid::new(1), ThreadId::new(0), 42, true);
//! match trace.next_event() {
//!     TraceEvent::Access(a) => assert!(a.gap.value() > 0),
//!     other => panic!("first event should be an access, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod file_trace;
pub mod generator;
pub mod microbench;
pub mod multiprog;
pub mod nct;
pub mod preset;
pub mod recorded;
pub mod sample;
pub mod spec;
pub mod trace;
pub mod zipf;

pub use file_trace::FileTrace;
pub use generator::SyntheticTrace;
pub use nct::{NctError, NctFile};
pub use preset::Preset;
pub use sample::SampleSpec;
pub use spec::WorkloadSpec;
pub use trace::{MemAccess, TraceEvent, TraceSource};
