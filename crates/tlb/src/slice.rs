//! A shared-L2-TLB slice (or monolithic bank): contents plus port timing.
//!
//! Paper §IV: each private L2 TLB and each shared slice has 2 read ports
//! and 1 write port, and "our simulator models the L2 TLB accesses as being
//! pipelined, so one request can be serviced every cycle". A request that
//! arrives while all ports are issuing waits; the wait shows up as port
//! contention in the access latency.

use crate::entry::TlbEntry;
use crate::replacement::ReplacementPolicy;
use crate::set_assoc::SetAssocTlb;
use crate::sram;
use nocstar_stats::Log2Histogram;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Asid, VirtPageNum};

/// Port configuration of a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicePorts {
    /// Concurrent read issues per cycle.
    pub read: usize,
    /// Concurrent write issues per cycle.
    pub write: usize,
}

impl Default for SlicePorts {
    /// The paper's 2R/1W configuration.
    fn default() -> Self {
        Self { read: 2, write: 1 }
    }
}

/// A TLB slice: a set-associative content array plus a pipelined-port
/// timing model.
///
/// Timing and content are deliberately separate operations: the simulator
/// first calls [`schedule_read`](Self::schedule_read) to learn *when* the
/// lookup completes, then performs the functional
/// [`lookup`](Self::lookup) whose result becomes visible at that time.
///
/// # Examples
///
/// ```
/// use nocstar_tlb::slice::{SlicePorts, TlbSlice};
/// use nocstar_types::{Cycle, Cycles};
///
/// let mut slice = TlbSlice::new(1024, 8, SlicePorts::default());
/// assert_eq!(slice.lookup_latency(), Cycles::new(8)); // Fig 3 model @1024 entries
/// let t0 = Cycle::new(100);
/// let first = slice.schedule_read(t0);
/// let second = slice.schedule_read(t0);
/// let third = slice.schedule_read(t0); // both read ports busy: waits 1 cycle
/// assert_eq!(first, t0 + slice.lookup_latency());
/// assert_eq!(second, t0 + slice.lookup_latency());
/// assert_eq!(third, t0 + Cycles::ONE + slice.lookup_latency());
/// ```
#[derive(Debug, Clone)]
pub struct TlbSlice {
    array: SetAssocTlb,
    lookup_latency: Cycles,
    read_free: Vec<Cycle>,
    write_free: Vec<Cycle>,
    /// Cycles each request waited for a free port.
    queue_wait: Log2Histogram,
    /// Degraded miss-only mode (fault injection): lookups miss and
    /// inserts are dropped, but invalidations still apply so the contents
    /// stay coherent for when the slice comes back online.
    offline: bool,
}

impl TlbSlice {
    /// Builds a slice with `entries` capacity and `ways` associativity
    /// (LRU), deriving lookup latency from the SRAM model of Fig 3.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or port count is zero, or if `ways` does not
    /// divide `entries`.
    pub fn new(entries: usize, ways: usize, ports: SlicePorts) -> Self {
        Self::with_latency(entries, ways, ports, sram::lookup_cycles(entries))
    }

    /// Builds a slice with an explicit lookup latency (used for the
    /// idealized configurations of Fig 4).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_latency(
        entries: usize,
        ways: usize,
        ports: SlicePorts,
        lookup_latency: Cycles,
    ) -> Self {
        assert!(ports.read > 0 && ports.write > 0, "ports must be nonzero");
        Self {
            array: SetAssocTlb::new(entries, ways, ReplacementPolicy::Lru),
            lookup_latency,
            read_free: vec![Cycle::ZERO; ports.read],
            write_free: vec![Cycle::ZERO; ports.write],
            queue_wait: Log2Histogram::new(),
            offline: false,
        }
    }

    /// Puts the slice in (or takes it out of) degraded miss-only mode:
    /// while offline, [`lookup`](Self::lookup) and [`touch`](Self::touch)
    /// miss without touching the array and [`insert`](Self::insert) drops
    /// the entry. Invalidations and flushes still apply, preserving
    /// shootdown correctness across the outage.
    pub fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// Sets the content array's index divisor (see
    /// [`SetAssocTlb::set_index_divisor`]): a slice homed by `vpn % N`
    /// must index its sets by `vpn / N`.
    pub fn set_index_divisor(&mut self, divisor: u64) {
        self.array.set_index_divisor(divisor);
    }

    /// The SRAM pipeline depth: cycles from issue to result.
    pub fn lookup_latency(&self) -> Cycles {
        self.lookup_latency
    }

    /// Schedules a read arriving at `now`; returns when its result is
    /// available. Ports are pipelined: each accepts one issue per cycle.
    pub fn schedule_read(&mut self, now: Cycle) -> Cycle {
        Self::schedule_on(
            &mut self.read_free,
            now,
            self.lookup_latency,
            &mut self.queue_wait,
        )
    }

    /// Schedules a write (insert) arriving at `now`; returns when it
    /// completes.
    pub fn schedule_write(&mut self, now: Cycle) -> Cycle {
        Self::schedule_on(
            &mut self.write_free,
            now,
            self.lookup_latency,
            &mut self.queue_wait,
        )
    }

    fn schedule_on(
        ports: &mut [Cycle],
        now: Cycle,
        latency: Cycles,
        queue_wait: &mut Log2Histogram,
    ) -> Cycle {
        #[expect(
            clippy::expect_used,
            reason = "port count is at least 1 by construction"
        )]
        let earliest = ports.iter_mut().min().expect("ports are nonzero");
        let issue = now.max(*earliest);
        *earliest = issue + Cycles::ONE;
        queue_wait.record((issue - now).value());
        issue + latency
    }

    /// Functional lookup (content + recency + hit/miss stats). Always a
    /// miss while the slice is offline (the array is not consulted, so
    /// its hit/miss statistics are untouched by degraded-mode probes).
    pub fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        if self.offline {
            return None;
        }
        self.array.lookup(asid, vpn)
    }

    /// Functional fast-forward lookup (`SAMPLING.md §2`): updates
    /// recency like [`lookup`](Self::lookup) but records no hit/miss
    /// statistics. Always a miss while the slice is offline.
    pub fn touch(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        if self.offline {
            return None;
        }
        self.array.touch(asid, vpn)
    }

    /// Functional insert; returns the evicted entry if any. Dropped (no
    /// eviction, no array update) while the slice is offline.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        if self.offline {
            return None;
        }
        self.array.insert(entry)
    }

    /// Invalidates one translation; returns whether it was present.
    pub fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        self.array.invalidate(asid, vpn)
    }

    /// Flushes all non-global entries; returns the number dropped.
    pub fn flush_non_global(&mut self) -> usize {
        self.array.flush_non_global()
    }

    /// Read-only access to the underlying array (stats, occupancy, probes).
    pub fn array(&self) -> &SetAssocTlb {
        &self.array
    }

    /// Clears hit/miss and port-queueing statistics (e.g. after warmup),
    /// leaving contents and port timing intact.
    pub fn reset_stats(&mut self) {
        self.array.reset_stats();
        self.queue_wait = Log2Histogram::new();
    }

    /// Distribution of cycles requests spent waiting for a free port,
    /// log2-bucketed for metric snapshots.
    pub fn queue_wait_histogram(&self) -> &Log2Histogram {
        &self.queue_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::{PageSize, PhysPageNum};

    fn slice() -> TlbSlice {
        TlbSlice::new(1024, 8, SlicePorts::default())
    }

    #[test]
    fn latency_comes_from_sram_model() {
        assert_eq!(slice().lookup_latency(), sram::lookup_cycles(1024));
        let custom = TlbSlice::with_latency(1024, 8, SlicePorts::default(), Cycles::new(3));
        assert_eq!(custom.lookup_latency(), Cycles::new(3));
    }

    #[test]
    fn reads_pipeline_one_per_port_per_cycle() {
        let mut s = slice();
        let lat = s.lookup_latency();
        let t = Cycle::new(10);
        // 2 read ports: requests 1-2 issue at t, 3-4 at t+1, 5 at t+2.
        let done: Vec<Cycle> = (0..5).map(|_| s.schedule_read(t)).collect();
        assert_eq!(done[0], t + lat);
        assert_eq!(done[1], t + lat);
        assert_eq!(done[2], t + Cycles::ONE + lat);
        assert_eq!(done[3], t + Cycles::ONE + lat);
        assert_eq!(done[4], t + Cycles::new(2) + lat);
    }

    #[test]
    fn idle_ports_do_not_delay_later_requests() {
        let mut s = slice();
        let lat = s.lookup_latency();
        s.schedule_read(Cycle::new(0));
        // Long after the pipeline drained: no queueing.
        assert_eq!(s.schedule_read(Cycle::new(100)), Cycle::new(100) + lat);
    }

    #[test]
    fn writes_use_their_own_port() {
        let mut s = slice();
        let lat = s.lookup_latency();
        let t = Cycle::new(5);
        // Saturate both read ports; a write still issues immediately.
        s.schedule_read(t);
        s.schedule_read(t);
        assert_eq!(s.schedule_write(t), t + lat);
        // Second same-cycle write queues behind the single write port.
        assert_eq!(s.schedule_write(t), t + Cycles::ONE + lat);
    }

    #[test]
    fn queue_wait_is_recorded() {
        let mut s = slice();
        let t = Cycle::new(0);
        s.schedule_read(t);
        s.schedule_read(t);
        s.schedule_read(t); // waits one cycle
        assert_eq!(s.queue_wait_histogram().count(), 3);
        assert_eq!(s.queue_wait_histogram().max(), Some(1));
    }

    #[test]
    fn content_operations_delegate_to_array() {
        let mut s = slice();
        let asid = Asid::new(1);
        let vpn = VirtPageNum::new(10, PageSize::Size4K);
        s.insert(TlbEntry::new(
            asid,
            vpn,
            PhysPageNum::new(1, PageSize::Size4K),
        ));
        assert_eq!(s.array().occupancy(), 1);
        assert!(s.invalidate(asid, vpn));
        assert_eq!(s.array().occupancy(), 0);
    }

    #[test]
    fn touch_is_stat_free_and_respects_offline() {
        let mut s = slice();
        let asid = Asid::new(1);
        let vpn = VirtPageNum::new(10, PageSize::Size4K);
        s.insert(TlbEntry::new(
            asid,
            vpn,
            PhysPageNum::new(1, PageSize::Size4K),
        ));
        assert!(s.touch(asid, vpn).is_some());
        assert_eq!(s.array().stats().accesses(), 0);
        s.set_offline(true);
        assert!(s.touch(asid, vpn).is_none(), "offline touches miss");
    }

    #[test]
    fn offline_slice_misses_drops_inserts_but_still_invalidates() {
        let mut s = slice();
        let asid = Asid::new(1);
        let vpn = VirtPageNum::new(10, PageSize::Size4K);
        let entry = TlbEntry::new(asid, vpn, PhysPageNum::new(1, PageSize::Size4K));
        s.insert(entry);
        let hits_before = s.array().stats().hits();

        s.set_offline(true);
        assert!(s.lookup(asid, vpn).is_none(), "offline lookups miss");
        assert_eq!(
            s.array().stats().hits(),
            hits_before,
            "degraded probes must not touch array stats"
        );
        assert!(s.insert(entry).is_none(), "offline inserts are dropped");
        assert!(s.invalidate(asid, vpn), "invalidations still apply");

        s.set_offline(false);
        assert!(
            s.lookup(asid, vpn).is_none(),
            "the invalidation during the outage must stick"
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_ports_rejected() {
        let _ = TlbSlice::new(64, 4, SlicePorts { read: 0, write: 1 });
    }
}
