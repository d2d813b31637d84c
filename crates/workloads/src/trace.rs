//! The trace event model: what a simulated thread does next.

use nocstar_types::time::Cycles;
use nocstar_types::{Asid, PageSize, VirtAddr, VirtPageNum};

/// One memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The virtual address touched.
    pub va: VirtAddr,
    /// Whether the access writes.
    pub is_write: bool,
    /// Cycles of non-memory work preceding this access (models the
    /// instructions between memory ops; the knob behind each workload's
    /// memory intensity).
    pub gap: Cycles,
}

/// One event in a thread's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Execute a memory access (translation on the critical path).
    Access(MemAccess),
    /// The OS scheduled another process on this core: all non-global TLB
    /// entries of this thread's context are flushed.
    ContextSwitch,
    /// The OS remapped a page (migration, COW): its translation must be
    /// shot down chip-wide.
    Remap(
        /// The now-stale virtual page.
        VirtPageNum,
    ),
    /// Transparent-huge-page promotion: 512 base-page translations under
    /// this 2 MiB page become stale.
    Promote(
        /// The 2 MiB page being created.
        VirtPageNum,
    ),
    /// Superpage demotion: the 2 MiB translation becomes stale.
    Demote(
        /// The 2 MiB page being split.
        VirtPageNum,
    ),
}

/// An infinite, deterministic stream of [`TraceEvent`]s for one hardware
/// thread, plus the page-size backing decisions for the addresses it emits.
///
/// Sources are `Send` so that a workload assignment, and the simulation
/// built from it, can be handed to another host thread — one simulation
/// per thread is how sweeps use more than one CPU.
pub trait TraceSource: Send {
    /// The next event. Streams are infinite; the simulator decides when to
    /// stop.
    fn next_event(&mut self) -> TraceEvent;

    /// The page size backing `va` (stable for a given address: the
    /// simulator maps each page on first touch with this size).
    fn backing(&self, va: VirtAddr) -> PageSize;

    /// The address space this thread runs in.
    fn asid(&self) -> Asid;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial source used to exercise the trait object path.
    struct OneAddress;

    impl TraceSource for OneAddress {
        fn next_event(&mut self) -> TraceEvent {
            TraceEvent::Access(MemAccess {
                va: VirtAddr::new(0x1000),
                is_write: false,
                gap: Cycles::new(5),
            })
        }
        fn backing(&self, _va: VirtAddr) -> PageSize {
            PageSize::Size4K
        }
        fn asid(&self) -> Asid {
            Asid::new(1)
        }
    }

    #[test]
    fn trait_objects_work() {
        let mut boxed: Box<dyn TraceSource> = Box::new(OneAddress);
        match boxed.next_event() {
            TraceEvent::Access(a) => {
                assert_eq!(a.va, VirtAddr::new(0x1000));
                assert_eq!(boxed.backing(a.va), PageSize::Size4K);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(boxed.asid(), Asid::new(1));
    }
}
