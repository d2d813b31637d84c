//! The simulation event queue: a calendar queue.
//!
//! Near-future events live in a calendar ring of per-cycle buckets (O(1)
//! push/pop); events beyond the ring window go to a binary-heap overflow.
//! The pop order is earliest time first, FIFO among same-cycle events —
//! exactly the order a single binary heap keyed by `(time, push order)`
//! produces. `DESIGN.md §12` records why the ring stays over a plain heap.

use nocstar_types::time::Cycle;
use std::collections::BinaryHeap;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: u64,
    seq: u64,
    event: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, insertion order).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Cycles covered by the calendar ring. Events scheduled further than
/// this past the cursor go to the overflow heap (rare: context-switch
/// traps and long trace gaps).
const WINDOW: usize = 512;

/// One cycle's events within the calendar window, appended in push order.
#[derive(Debug, Default)]
struct Bucket {
    cycle: u64,
    items: Vec<(u64, Event)>,
    head: usize,
}

impl Bucket {
    fn is_drained(&self) -> bool {
        self.head == self.items.len()
    }
}

/// A deterministic min-queue of timed events (FIFO among same-cycle
/// events).
#[derive(Debug)]
pub struct EventQueue {
    buckets: Vec<Bucket>,
    overflow: BinaryHeap<Entry>,
    /// Lower bound on every un-popped bucket cycle; advanced on pop.
    cursor: u64,
    /// Scan accelerator: no bucket items exist in `[cursor, hint)`.
    hint: u64,
    /// Items currently in buckets (the rest are in `overflow`).
    in_window: usize,
    /// Exact earliest `(time, sequence)` key, maintained on every push and
    /// pop so peeking never walks the ring.
    min: Option<(u64, u64)>,
    seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..WINDOW).map(|_| Bucket::default()).collect(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            hint: 0,
            in_window: 0,
            min: None,
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: Cycle, event: Event) {
        self.seq += 1;
        self.len += 1;
        let (at, seq) = (at.value(), self.seq);
        if self.min.is_none_or(|m| (at, seq) < m) {
            self.min = Some((at, seq));
        }
        if at >= self.cursor && at - self.cursor < WINDOW as u64 {
            let b = &mut self.buckets[(at % WINDOW as u64) as usize];
            if b.is_drained() {
                b.items.clear();
                b.head = 0;
                b.cycle = at;
            }
            debug_assert_eq!(b.cycle, at, "two live cycles share a bucket");
            b.items.push((seq, event));
            self.in_window += 1;
            if at < self.hint {
                self.hint = at;
            }
        } else {
            // Outside the ring window (far future, or — never in practice
            // — the past): the heap handles it exactly, just slower.
            self.overflow.push(Entry { at, seq, event });
        }
    }

    /// The time of the earliest pending event.
    pub fn next_time(&self) -> Option<Cycle> {
        self.min.map(|(at, _)| Cycle::new(at))
    }

    /// Pops the earliest event if it fires at or before `now`; among
    /// same-cycle events the push order wins.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, Event)> {
        let key = self.min.filter(|&(at, _)| at <= now.value())?;
        self.len -= 1;
        self.cursor = self.cursor.max(key.0);
        self.hint = self.hint.max(self.cursor);
        let event = if self.overflow.peek().is_some_and(|e| (e.at, e.seq) == key) {
            match self.overflow.pop() {
                Some(e) => e.event,
                None => unreachable!("peeked entry vanished"),
            }
        } else {
            let b = &mut self.buckets[(key.0 % WINDOW as u64) as usize];
            debug_assert!(!b.is_drained() && b.cycle == key.0, "pop of a stale key");
            let (seq, event) = b.items[b.head];
            debug_assert_eq!(seq, key.1, "bucket items out of sequence order");
            b.head += 1;
            self.in_window -= 1;
            event
        };
        self.min = self.peek_key();
        Some((Cycle::new(key.0), event))
    }

    /// The earliest pending `(time, sequence)` key, scanning the ring from
    /// the cached hint and consulting the overflow heap.
    fn peek_key(&mut self) -> Option<(u64, u64)> {
        let window = if self.in_window == 0 {
            None
        } else {
            let mut c = self.hint.max(self.cursor);
            loop {
                let b = &self.buckets[(c % WINDOW as u64) as usize];
                if !b.is_drained() && b.cycle == c {
                    self.hint = c;
                    break Some((c, b.items[b.head].0));
                }
                c += 1;
                debug_assert!(
                    c < self.cursor + WINDOW as u64 + 1,
                    "in_window count out of sync"
                );
            }
        };
        let over = self.overflow.peek().map(|e| (e.at, e.seq));
        match (window, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Number of queued events (diagnostic snapshots).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), Event::ThreadNext(1));
        q.push(Cycle::new(3), Event::ThreadNext(2));
        q.push(Cycle::new(4), Event::ThreadNext(3));
        assert_eq!(q.next_time(), Some(Cycle::new(3)));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop_due(Cycle::new(10)))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(
            order,
            vec![
                Event::ThreadNext(2),
                Event::ThreadNext(3),
                Event::ThreadNext(1)
            ]
        );
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Cycle::new(7), Event::Issue(i));
        }
        let order: Vec<Event> = std::iter::from_fn(|| q.pop_due(Cycle::new(7)))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, (0..5).map(Event::Issue).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(9), Event::WalkDone(1));
        assert!(q.pop_due(Cycle::new(8)).is_none());
        assert!(q.pop_due(Cycle::new(9)).is_some());
        assert!(q.next_time().is_none());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the calendar window, plus one nearby event.
        q.push(Cycle::new(100_000), Event::WalkDone(1));
        q.push(Cycle::new(3), Event::Issue(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(Cycle::new(3)));
        assert!(q.pop_due(Cycle::new(3)).is_some());
        assert_eq!(q.next_time(), Some(Cycle::new(100_000)));
        // After time advances, pushes near the new cursor still order
        // correctly against the overflowed event.
        q.push(Cycle::new(99_999), Event::Issue(7));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop_due(Cycle::new(200_000)))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, vec![Event::Issue(7), Event::WalkDone(1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn window_buckets_are_reused_across_laps() {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        // Walk time forward several full calendar windows.
        for lap in 0u64..5 {
            for i in 0u64..100 {
                let at = lap * 700 + i * 7;
                q.push(Cycle::new(at), Event::Issue((lap * 100 + i) as usize));
            }
            while let Some((at, e)) = q.pop_due(Cycle::new(lap * 700 + 700)) {
                popped.push((at.value(), e));
            }
        }
        assert_eq!(popped.len(), 500);
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
        assert!(q.is_empty());
    }

    /// The queue must reproduce the reference order (a plain
    /// sorted-by-(time, push-order) list) for an arbitrary interleaving.
    #[test]
    fn matches_reference_semantics_under_mixed_load() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64, usize)> = Vec::new();
        // A deterministic pseudo-random schedule: times jump around,
        // some beyond the window.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..1000usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % 2048;
            q.push(Cycle::new(at), Event::Issue(i));
            reference.push((at, i as u64, i));
        }
        reference.sort_by_key(|&(at, seq, _)| (at, seq));
        let mut popped = Vec::new();
        while let Some((at, e)) = q.pop_due(Cycle::new(1 << 30)) {
            popped.push((at.value(), e));
        }
        let expect: Vec<(u64, Event)> = reference
            .iter()
            .map(|&(at, _, i)| (at, Event::Issue(i)))
            .collect();
        assert_eq!(popped, expect);
    }
}
