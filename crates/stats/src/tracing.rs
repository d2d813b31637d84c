//! Opt-in cycle-level event tracing into a bounded ring buffer.
//!
//! Components emit compact numeric records ([`TraceRecord`]: cycle,
//! component id, event kind, two payload words); the simulation layer owns
//! the mapping from ids to human-readable labels, so the hot path never
//! touches strings. The sink is a fixed-capacity ring: once full, the
//! oldest records are overwritten and counted in
//! [`TraceSink::dropped`], keeping memory bounded on arbitrarily long
//! runs. A disabled sink allocates nothing and rejects records with a
//! single branch.

/// One traced event. All fields are plain integers so records are `Copy`
/// and the ring never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycle the event happened at.
    pub cycle: u64,
    /// Which component emitted it (the simulation layer defines the id
    /// space, e.g. core index or `1000 + slice index`).
    pub component: u32,
    /// What happened (simulation-defined event-kind id).
    pub kind: u16,
    /// First event payload word (e.g. a virtual page number).
    pub a: u64,
    /// Second event payload word (e.g. a latency or target id).
    pub b: u64,
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use nocstar_stats::tracing::{TraceRecord, TraceSink};
/// let mut sink = TraceSink::bounded(2);
/// for cycle in 0..3 {
///     sink.emit(TraceRecord { cycle, component: 0, kind: 0, a: 0, b: 0 });
/// }
/// // Capacity 2: the oldest record was dropped.
/// let cycles: Vec<u64> = sink.records().map(|r| r.cycle).collect();
/// assert_eq!(cycles, [1, 2]);
/// assert_eq!(sink.dropped(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    buf: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl TraceSink {
    /// A sink that records nothing (the default). Allocates nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink holding at most `capacity` records; older records are
    /// overwritten once full.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a record, overwriting the oldest once at capacity.
    #[inline]
    pub fn emit(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }

    /// Discards all retained records and the drop count. Used at the
    /// warmup/measurement boundary.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(cycle: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            component: 1,
            kind: 2,
            a: cycle * 10,
            b: 0,
        }
    }

    #[test]
    fn disabled_sink_rejects_everything() {
        let mut sink = TraceSink::disabled();
        sink.emit(rec(1));
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn records_come_back_in_order_before_wrap() {
        let mut sink = TraceSink::bounded(10);
        for c in 0..5 {
            sink.emit(rec(c));
        }
        let cycles: Vec<u64> = sink.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, [0, 1, 2, 3, 4]);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut sink = TraceSink::bounded(2);
        for c in 0..5 {
            sink.emit(rec(c));
        }
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
        sink.emit(rec(9));
        assert_eq!(sink.records().next().unwrap().cycle, 9);
    }

    proptest! {
        /// The ring always keeps the most recent min(n, capacity) records,
        /// in emission order, and counts the rest as dropped.
        #[test]
        fn prop_ring_keeps_newest_in_order(n in 0usize..100, capacity in 1usize..20) {
            let mut sink = TraceSink::bounded(capacity);
            for c in 0..n as u64 {
                sink.emit(rec(c));
            }
            let kept: Vec<u64> = sink.records().map(|r| r.cycle).collect();
            let expect_start = n.saturating_sub(capacity) as u64;
            let expected: Vec<u64> = (expect_start..n as u64).collect();
            prop_assert_eq!(kept, expected);
            prop_assert_eq!(sink.dropped(), expect_start);
            prop_assert!(sink.len() <= capacity);
        }
    }
}
