//! TLB structures for the NOCSTAR simulator.
//!
//! This crate implements every translation-caching structure the paper's
//! system contains, independent of how they are wired together (that wiring
//! lives in `nocstar-core`):
//!
//! * [`entry`] — the translation entry format: valid bit, translation, and
//!   context id, as in paper §III-A.
//! * [`set_assoc`] — a set-associative TLB array with modulo indexing and
//!   pluggable replacement ([`replacement`]), the building block of every
//!   level.
//! * [`l1`] — the per-core split L1 TLB: 64-entry/4-way for 4 KiB pages,
//!   32-entry/4-way for 2 MiB, 4-entry for 1 GiB (Haswell, §IV).
//! * [`slice`](mod@slice) — a shared-L2 slice or bank: a content array plus a port /
//!   pipeline timing model (2 read ports, 1 write port, pipelined lookups).
//! * [`indexing`] — which slice/bank a virtual page maps to (low VPN bits).
//! * [`prefetch`] — the ±k adjacent-virtual-page prefetcher studied in
//!   Table III.
//! * [`shootdown`] — TLB invalidation requests and the invalidation-leader
//!   policies of §III-G.
//! * [`sram`] — the 28 nm SRAM lookup-latency/energy model behind Fig 3.
//!
//! # Examples
//!
//! ```
//! use nocstar_tlb::l1::L1Tlb;
//! use nocstar_tlb::entry::TlbEntry;
//! use nocstar_types::{Asid, PageSize, VirtAddr, PhysPageNum};
//!
//! let mut l1 = L1Tlb::haswell();
//! let va = VirtAddr::new(0x1234_5000);
//! assert!(l1.lookup(Asid::new(1), va).is_none());
//! let vpn = va.page_number(PageSize::Size4K);
//! l1.insert(TlbEntry::new(Asid::new(1), vpn, PhysPageNum::new(77, PageSize::Size4K)));
//! assert!(l1.lookup(Asid::new(1), va).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod entry;
pub mod indexing;
pub mod l1;
pub mod prefetch;
pub mod replacement;
pub mod set_assoc;
pub mod shootdown;
pub mod slice;
pub mod sram;

pub use entry::TlbEntry;
pub use l1::L1Tlb;
pub use replacement::ReplacementPolicy;
pub use set_assoc::SetAssocTlb;
pub use slice::TlbSlice;
