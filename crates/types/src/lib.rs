//! Shared vocabulary types for the NOCSTAR simulator workspace.
//!
//! This crate defines the strongly-typed building blocks that every other
//! crate in the workspace speaks in terms of:
//!
//! * [`addr`] — virtual/physical addresses and page numbers, plus
//!   [`addr::PageSize`] (4 KiB / 2 MiB / 1 GiB) arithmetic.
//! * [`ids`] — newtype identifiers for cores, TLB slices, banks, threads and
//!   address spaces.
//! * [`time`] — simulation time ([`time::Cycle`]) and durations
//!   ([`time::Cycles`]).
//! * [`geometry`] — 2-D mesh tile coordinates and XY-routing hop math.
//! * [`cluster`] — index-addressed partitioning of tiles into equal
//!   clusters (hierarchical interconnects).
//!
//! Everything here is plain data: `Copy`, `Ord`, `Hash`, `serde`-serializable
//! and free of behaviour beyond small arithmetic helpers, so the simulator
//! crates can exchange values without depending on each other.
//!
//! # Examples
//!
//! ```
//! use nocstar_types::addr::{PageSize, VirtAddr};
//! use nocstar_types::geometry::MeshShape;
//!
//! let va = VirtAddr::new(0x7f00_1234_5678);
//! let vpn = va.page_number(PageSize::Size4K);
//! assert_eq!(vpn.base().value(), 0x7f00_1234_5678 & !0xfff);
//!
//! // A 16-core chip is laid out as a 4x4 mesh; opposite corners are 6 hops apart.
//! let mesh = MeshShape::square_for(16);
//! assert_eq!(mesh.hops(0.into(), 15.into()), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod addr;
pub mod cluster;
pub mod geometry;
pub mod ids;
pub mod time;

pub use addr::{PageSize, PhysAddr, PhysPageNum, VirtAddr, VirtPageNum};
pub use cluster::ClusterMap;
pub use geometry::{Coord, MeshShape};
pub use ids::{Asid, BankId, CoreId, SliceId, ThreadId};
pub use time::{Cycle, Cycles};
