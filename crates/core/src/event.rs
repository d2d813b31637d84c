//! What the simulation loop schedules. The loop orders its events in a
//! [`Calendar`](nocstar_types::Calendar), earliest cycle first and FIFO
//! among same-cycle events.

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A hardware thread pulls its next trace event.
    ThreadNext(usize),
    /// A hardware thread issues the memory access it was waiting on.
    Issue(usize),
    /// A slice/bank finished looking up transaction `tx`.
    SliceDone(u64),
    /// A page walk for transaction `tx` completed.
    WalkDone(u64),
}
