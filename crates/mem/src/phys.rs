//! Physical frame allocation for the simulated machine.

use nocstar_types::{PageSize, PhysPageNum};
use std::fmt;

/// A bump allocator over the simulated machine's physical memory.
///
/// Frames are handed out in address order with natural alignment (a 2 MiB
/// frame starts on a 2 MiB boundary). The simulator never frees frames —
/// workloads allocate their footprint once; remaps allocate fresh frames,
/// modelling the OS handing out a different physical page.
///
/// # Examples
///
/// ```
/// use nocstar_mem::phys::PhysMemory;
/// use nocstar_types::PageSize;
///
/// let mut mem = PhysMemory::new(1 << 30); // 1 GiB machine
/// let a = mem.alloc(PageSize::Size4K);
/// let b = mem.alloc(PageSize::Size2M);
/// assert_ne!(a.base(), b.base());
/// assert_eq!(b.base().value() % PageSize::Size2M.bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    capacity: u64,
    next_free: u64,
}

impl PhysMemory {
    /// A machine with `capacity` bytes of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is smaller than one 4 KiB frame.
    pub fn new(capacity: u64) -> Self {
        assert!(
            capacity >= PageSize::Size4K.bytes(),
            "machine needs at least one frame"
        );
        Self {
            capacity,
            next_free: 0,
        }
    }

    /// Allocates one naturally aligned frame of the given size.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted — the simulator sizes
    /// workload footprints to fit, so exhaustion is a configuration bug.
    pub fn alloc(&mut self, size: PageSize) -> PhysPageNum {
        let bytes = size.bytes();
        let base = self.next_free.next_multiple_of(bytes);
        assert!(
            base + bytes <= self.capacity,
            "out of simulated physical memory: {} of {} bytes used",
            self.next_free,
            self.capacity
        );
        self.next_free = base + bytes;
        PhysPageNum::new(base >> size.shift(), size)
    }

    /// Bytes handed out so far (including alignment padding).
    pub fn allocated(&self) -> u64 {
        self.next_free
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl fmt::Display for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} MiB allocated",
            self.next_free >> 20,
            self.capacity >> 20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_are_disjoint_and_ordered() {
        let mut mem = PhysMemory::new(1 << 24);
        let a = mem.alloc(PageSize::Size4K);
        let b = mem.alloc(PageSize::Size4K);
        assert_eq!(b.base().value(), a.base().value() + 0x1000);
    }

    #[test]
    fn superpage_frames_are_naturally_aligned() {
        let mut mem = PhysMemory::new(1 << 32);
        mem.alloc(PageSize::Size4K); // misalign the bump pointer
        let big = mem.alloc(PageSize::Size2M);
        assert_eq!(big.base().value() % PageSize::Size2M.bytes(), 0);
        let huge = mem.alloc(PageSize::Size1G);
        assert_eq!(huge.base().value() % PageSize::Size1G.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of simulated physical memory")]
    fn exhaustion_panics() {
        let mut mem = PhysMemory::new(1 << 13); // two 4K frames
        mem.alloc(PageSize::Size4K);
        mem.alloc(PageSize::Size4K);
        mem.alloc(PageSize::Size4K);
    }

    #[test]
    fn display_reports_usage() {
        let mut mem = PhysMemory::new(4 << 20);
        mem.alloc(PageSize::Size2M);
        assert_eq!(mem.to_string(), "2/4 MiB allocated");
    }

    proptest! {
        /// Allocations never overlap, regardless of the size sequence.
        #[test]
        fn prop_allocations_never_overlap(sizes in prop::collection::vec(0usize..3, 1..50)) {
            let mut mem = PhysMemory::new(64 << 30);
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for s in sizes {
                let size = PageSize::ALL[s];
                let frame = mem.alloc(size);
                let start = frame.base().value();
                let end = start + size.bytes();
                for &(a, b) in &ranges {
                    prop_assert!(end <= a || start >= b, "overlap");
                }
                ranges.push((start, end));
            }
        }
    }
}
