//! Memory substrate for the NOCSTAR simulator.
//!
//! TLB studies live or die by what happens on a TLB miss: the page-table
//! walk. This crate provides the machinery behind that path:
//!
//! * [`phys`] — a physical frame allocator over the simulated machine's
//!   memory (the paper's systems have 2 TB).
//! * [`cache`] — a set-associative, presence-only LRU cache model.
//! * [`hierarchy`] — the per-core L1D/L2 plus shared-LLC hierarchy (32 KiB /
//!   256 KiB / 2.5 MiB-per-core at 4 / 12 / 50 cycles; paper §IV, with the
//!   LLC at real Haswell's per-core size, see `CacheConfig::haswell_llc`)
//!   through which both data accesses and page-walk PTE reads travel.
//! * [`page_table`] — real 4-level x86-64-style radix page tables with
//!   2 MiB and 1 GiB superpage leaves, built frame-by-frame in simulated
//!   physical memory so every PTE has a physical address to fetch.
//! * [`walker`] — the page-table walker: issues the pointer chase through
//!   the cache hierarchy (the paper's *variable* walk latency) or charges a
//!   fixed latency (Table III's fixed-10/20/40/80 sweeps).
//!
//! # Examples
//!
//! ```
//! use nocstar_mem::{MemorySystem, MemoryConfig};
//! use nocstar_types::{Asid, CoreId, PageSize, VirtAddr};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::haswell(1));
//! let asid = Asid::new(1);
//! mem.ensure_mapped(asid, VirtAddr::new(0x1000), PageSize::Size4K);
//! let walk = mem.walk(CoreId::new(0), asid, VirtAddr::new(0x1234));
//! assert_eq!(walk.vpn.page_size(), PageSize::Size4K);
//! assert_eq!(walk.pte_reads.len(), 4); // PML4 -> PDPT -> PD -> PT
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod page_table;
pub mod phys;
pub mod pwc;
pub mod walker;

pub use hierarchy::{AccessResult, MemoryConfig, MemorySystem, ServicedBy};
pub use page_table::PageTable;
pub use phys::PhysMemory;
pub use pwc::PteCache;
pub use walker::{WalkLatency, WalkResult};
