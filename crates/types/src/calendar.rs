//! A calendar queue of timed items.
//!
//! The simulation loop orders its events, and the circuit, mesh and SMART
//! fabrics order their scheduled arrivals, with one [`Calendar`]. Items
//! due within a window past the cycle last popped live in a ring of
//! per-cycle buckets (O(1) push/pop); items beyond the window, or before
//! that cycle, go to a binary-heap overflow. The pop order is
//! earliest cycle first, FIFO among same-cycle items — exactly the order
//! a single binary heap keyed by `(cycle, push order)` produces.
//! `DESIGN.md §12` records why the ring stays over a plain heap.

use crate::time::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cycles covered by the calendar ring. Items scheduled further than
/// this past the cursor go to the overflow heap (rare: context-switch
/// traps, long trace gaps and saturated fault-plan delays).
const WINDOW: usize = 512;

/// One cycle's items within the calendar window, appended in push order;
/// `items[head..]` are pending.
#[derive(Debug, Clone)]
struct Bucket<T> {
    cycle: u64,
    items: Vec<(u64, T)>,
    head: usize,
}

impl<T> Bucket<T> {
    fn is_drained(&self) -> bool {
        self.head == self.items.len()
    }
}

/// An overflowed item, ordered so the max-heap pops the earliest
/// `(cycle, push order)` first.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

/// A deterministic min-queue of timed items, FIFO among same-cycle items.
///
/// Items are small `Copy` values (events, messages with a tag), so a
/// drained bucket is reused by resetting its length and head.
///
/// # Examples
///
/// ```
/// use nocstar_types::{Calendar, Cycle};
///
/// let mut q = Calendar::new();
/// q.push(Cycle::new(5), 'b');
/// q.push(Cycle::new(3), 'a');
/// q.push(Cycle::new(5), 'c');
/// assert_eq!(q.next_time(), Some(Cycle::new(3)));
/// assert_eq!(q.pop_due(Cycle::new(4)), Some((Cycle::new(3), 'a')));
/// assert_eq!(q.pop_due(Cycle::new(4)), None);
/// assert_eq!(q.pop_due(Cycle::new(5)), Some((Cycle::new(5), 'b')));
/// assert_eq!(q.pop_due(Cycle::new(5)), Some((Cycle::new(5), 'c')));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<T> {
    buckets: Vec<Bucket<T>>,
    overflow: BinaryHeap<Entry<T>>,
    /// Lower bound on every un-popped bucket cycle; advanced on pop.
    cursor: u64,
    /// Scan accelerator: no bucket items exist in `[cursor, hint)`.
    hint: u64,
    /// Items currently in buckets (the rest are in `overflow`).
    in_window: usize,
    /// Exact earliest `(cycle, sequence)` key, maintained on every push
    /// and pop so peeking never walks the ring.
    min: Option<(u64, u64)>,
    seq: u64,
    len: usize,
}

impl<T: Copy> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Calendar<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..WINDOW)
                .map(|_| Bucket {
                    cycle: 0,
                    items: Vec::new(),
                    head: 0,
                })
                .collect(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            hint: 0,
            in_window: 0,
            min: None,
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `item` for cycle `at`, after everything already
    /// scheduled for that cycle.
    pub fn push(&mut self, at: Cycle, item: T) {
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
            b.items.push((seq, item));
            self.in_window += 1;
            if at < self.hint {
                self.hint = at;
            }
        } else {
            // Outside the ring window (far future, or the past): the heap
            // handles it exactly, just slower.
            self.overflow.push(Entry { at, seq, item });
        }
    }

    /// The cycle of the earliest pending item.
    pub fn next_time(&self) -> Option<Cycle> {
        self.min.map(|(at, _)| Cycle::new(at))
    }

    /// Pops the earliest item if it is due at or before `now`; among
    /// same-cycle items the push order wins.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        let key = self.min.filter(|&(at, _)| at <= now.value())?;
        self.len -= 1;
        self.cursor = self.cursor.max(key.0);
        self.hint = self.hint.max(self.cursor);
        let item = if self.overflow.peek().is_some_and(|e| (e.at, e.seq) == key) {
            match self.overflow.pop() {
                Some(e) => e.item,
                None => unreachable!("peeked entry vanished"),
            }
        } else {
            let b = &mut self.buckets[(key.0 % WINDOW as u64) as usize];
            debug_assert!(!b.is_drained() && b.cycle == key.0, "pop of a stale key");
            let (seq, item) = b.items[b.head];
            debug_assert_eq!(seq, key.1, "bucket items out of sequence order");
            b.head += 1;
            self.in_window -= 1;
            item
        };
        self.min = self.peek_key();
        Some((Cycle::new(key.0), item))
    }

    /// The earliest pending `(cycle, sequence)` key, scanning the ring
    /// from the cached hint and consulting the overflow heap.
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
                debug_assert!(
                    c - self.cursor < WINDOW as u64,
                    "in_window count out of sync"
                );
                c += 1;
            }
        };
        let over = self.overflow.peek().map(|e| (e.at, e.seq));
        match (window, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pops everything due by `now`, in order.
    fn drain<T: Copy>(q: &mut Calendar<T>, now: u64) -> Vec<(u64, T)> {
        std::iter::from_fn(|| q.pop_due(Cycle::new(now)))
            .map(|(at, x)| (at.value(), x))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = Calendar::new();
        q.push(Cycle::new(5), 'a');
        q.push(Cycle::new(3), 'b');
        q.push(Cycle::new(4), 'c');
        assert_eq!(q.next_time(), Some(Cycle::new(3)));
        assert_eq!(drain(&mut q, 10), vec![(3, 'b'), (4, 'c'), (5, 'a')]);
    }

    #[test]
    fn same_cycle_items_are_fifo() {
        let mut q = Calendar::new();
        for i in 0..5 {
            q.push(Cycle::new(7), i);
        }
        let order: Vec<u32> = drain(&mut q, 7).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = Calendar::new();
        q.push(Cycle::new(9), "walk");
        assert!(q.pop_due(Cycle::new(8)).is_none());
        assert_eq!(q.pop_due(Cycle::new(9)), Some((Cycle::new(9), "walk")));
        assert!(q.next_time().is_none());
    }

    #[test]
    fn far_future_items_overflow_and_return() {
        let mut q = Calendar::new();
        // Far beyond the calendar window, plus one nearby item.
        q.push(Cycle::new(100_000), "far");
        q.push(Cycle::new(3), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(Cycle::new(3)));
        assert!(q.pop_due(Cycle::new(3)).is_some());
        assert_eq!(q.next_time(), Some(Cycle::new(100_000)));
        // After time advances, pushes near the new cursor still order
        // correctly against the overflowed item.
        q.push(Cycle::new(99_999), "late");
        assert_eq!(
            drain(&mut q, 200_000),
            vec![(99_999, "late"), (100_000, "far")]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn window_buckets_are_reused_across_laps() {
        let mut q = Calendar::new();
        let mut popped = Vec::new();
        // Walk time forward several full calendar windows.
        for lap in 0u64..5 {
            for i in 0u64..100 {
                q.push(Cycle::new(lap * 700 + i * 7), lap * 100 + i);
            }
            popped.extend(drain(&mut q, lap * 700 + 700));
        }
        assert_eq!(popped.len(), 500);
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
        assert!(q.is_empty());
    }

    /// One op of a differential case, `(kind, delta, count)`: kinds 0–3
    /// push `count` items at one cycle drawn from `kind` and `delta` (see
    /// [`check_against_sorted_list`]); kinds 4–6 pop whatever is due.
    type Op = (u8, u64, u8);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..7, 0u64..3_000, 1u8..6), 1..300)
    }

    /// Runs `ops` on a calendar and on a list kept sorted by `(cycle,
    /// push order)`, with a clock that each pop moves to the earliest
    /// pending cycle, and demands the same pops, lengths and next cycle
    /// after every op and the same items once both are drained. A push
    /// lands below the clock, on it or at the edge of the ring window past
    /// it, anywhere up to 3,000 cycles past it, or in the last 3,000
    /// cycles before `u64::MAX`, where a saturated fault-plan delay
    /// schedules it.
    fn check_against_sorted_list(ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut q = Calendar::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let (mut now, mut pushed) = (0u64, 0u64);
        for (kind, delta, count) in ops {
            if kind > 3 {
                now = now.max(reference.first().map_or(now, |&(a, _)| a));
                let due = reference.partition_point(|&(a, _)| a <= now);
                let expect: Vec<(u64, u64)> = reference.drain(..due).collect();
                prop_assert_eq!(drain(&mut q, now), expect);
            } else {
                let at = match kind {
                    0 => now.saturating_sub(delta),
                    1 => now.saturating_add([0, 1, 511, 512, 513][delta as usize % 5]),
                    2 => now.saturating_add(delta),
                    _ => u64::MAX - delta,
                };
                for _ in 0..count {
                    pushed += 1;
                    q.push(Cycle::new(at), pushed);
                    let i = reference.partition_point(|&(a, _)| a <= at);
                    reference.insert(i, (at, pushed));
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(
                q.next_time(),
                reference.first().map(|&(a, _)| Cycle::new(a))
            );
        }
        prop_assert_eq!(drain(&mut q, u64::MAX), reference);
        prop_assert!(q.is_empty());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar pops exactly what a list sorted by `(cycle, push
        /// order)` pops, whatever the interleaving of pushes and pops.
        #[test]
        fn prop_calendar_matches_sorted_reference(ops in ops()) {
            check_against_sorted_list(ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        #[ignore = "nightly: 2,048 differential cases (ci.sh --nightly)"]
        fn prop_calendar_matches_sorted_reference_nightly(ops in ops()) {
            check_against_sorted_list(ops)?;
        }
    }
}
