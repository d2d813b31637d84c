//! Measurement infrastructure for the NOCSTAR simulator.
//!
//! Every experiment in the paper is a reduction over event streams the
//! simulator produces; this crate holds the reducers:
//!
//! * [`counter`] — monotonically increasing event counters and hit/miss pairs.
//! * [`histogram`] — bucketed distributions, including the paper's
//!   concurrent-access bins (1, 2–4, 5–8, …, 29+) used by Figs 5 and 6.
//! * [`concurrency`] — the outstanding-access tracker that feeds those bins.
//! * [`latency`] — min/mean/max latency recorders for messages and lookups.
//! * [`metrics`] — the named-metric registry (counters, gauges, log2
//!   histograms) behind `SimReport` observability snapshots.
//! * [`tracing`] — the opt-in bounded ring buffer for cycle-level event
//!   traces.
//! * [`interval`] — Student-t confidence intervals over per-window
//!   samples from sampled replay (`SAMPLING.md`).
//! * [`summary`] — min/avg/max and geometric-mean reductions over run results.
//! * [`table`] — plain-text table rendering used by the bench harness to
//!   print each figure's rows.
//!
//! # Examples
//!
//! ```
//! use nocstar_stats::counter::HitMiss;
//!
//! let mut l2 = HitMiss::default();
//! l2.record(true);
//! l2.record(false);
//! l2.record(true);
//! assert_eq!(l2.hit_rate(), 2.0 / 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod concurrency;
pub mod counter;
pub mod histogram;
pub mod interval;
pub mod latency;
pub mod metrics;
pub mod summary;
pub mod table;
pub mod tracing;

pub use concurrency::OutstandingTracker;
pub use counter::{Counter, HitMiss};
pub use histogram::{ConcurrencyBins, Histogram};
pub use interval::Interval;
pub use latency::LatencyRecorder;
pub use metrics::{Log2Histogram, MetricsRegistry, MetricsSnapshot};
pub use summary::Summary;
pub use table::Table;
pub use tracing::{TraceRecord, TraceSink};
