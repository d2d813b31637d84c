//! The in-flight transaction table, addressed by message id.

use std::collections::VecDeque;

/// In-flight transactions keyed by their message id.
///
/// Ids come from one monotone counter, so the table is a ring over the
/// span of ids from the oldest live transaction to the newest: slot `i`
/// holds id `base + i`, and get, insert and remove are index arithmetic.
/// Removing a transaction pops the empty slots at the front; inserting
/// below the oldest live id extends the front.
///
/// Memory grows with the *span* of live ids, not their count: one
/// transaction that never completes keeps a slot for every id issued
/// after it. The livelock watchdog bounds how long that can last, since
/// a transaction stuck that long ends the run.
#[derive(Debug)]
pub(super) struct TxTable<T> {
    /// The id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T: Copy> TxTable<T> {
    pub(super) fn new() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live transactions.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    fn slot(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The transaction with message id `id`, if live.
    pub(super) fn get(&self, id: u64) -> Option<T> {
        self.slots[self.slot(id)?]
    }

    /// Stores `tx` under `id`, replacing any transaction already there.
    pub(super) fn insert(&mut self, id: u64, tx: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = (id - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        if self.slots[i].replace(tx).is_none() {
            self.live += 1;
        }
    }

    /// Removes and returns the transaction with message id `id`.
    pub(super) fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.slot(id)?;
        let tx = self.slots[i].take()?;
        self.live -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::TxTable;

    #[test]
    fn out_of_order_removal_keeps_the_rest_addressable() {
        let mut t = TxTable::new();
        for id in 1..=5u64 {
            t.insert(id, id * 10);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.remove(3), Some(30));
        assert_eq!(t.len(), 4);
        assert_eq!(t.remove(5), Some(50));
        assert_eq!(t.len(), 3);
        // Removing the oldest pops it and nothing live behind it.
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.len(), 2);
        assert_eq!((t.get(2), t.get(3), t.get(4)), (Some(20), None, Some(40)));
        assert_eq!(t.remove(2), Some(20));
        assert_eq!(t.len(), 1);
        // The empty slot of id 3 went with id 2; id 4 is now the base.
        assert_eq!(t.base, 4);
        assert_eq!(t.remove(4), Some(40));
        assert_eq!(t.len(), 0);
        assert!(t.slots.is_empty());
        // An empty table re-bases on the next id instead of spanning the gap.
        t.insert(1_000, 1);
        assert_eq!((t.len(), t.slots.len()), (1, 1));
    }

    #[test]
    fn removing_an_unknown_id_changes_nothing() {
        let mut t = TxTable::new();
        assert_eq!(t.remove(7), None);
        assert_eq!(t.len(), 0);
        t.insert(7, 'a');
        t.insert(9, 'b');
        for id in [0, 6, 8, 10, u64::MAX] {
            assert_eq!(t.remove(id), None);
            assert_eq!(t.len(), 2);
        }
        assert_eq!(t.remove(7), Some('a'));
        assert_eq!(t.remove(7), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(9), Some('b'));
    }

    #[test]
    fn reinserting_below_the_base_extends_the_front() {
        // A failed completion puts back a transaction it already took:
        // if that was the oldest, its id is now below the base.
        let mut t = TxTable::new();
        t.insert(4, 'a');
        t.insert(6, 'c');
        assert_eq!(t.remove(4), Some('a'));
        assert_eq!((t.len(), t.base), (1, 6));
        t.insert(4, 'a');
        assert_eq!((t.len(), t.base), (2, 4));
        assert_eq!((t.get(4), t.get(5), t.get(6)), (Some('a'), None, Some('c')));
        // Replacing a live transaction does not count it twice.
        t.insert(4, 'z');
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(4), Some('z'));
        assert_eq!((t.len(), t.base), (1, 6));
    }
}
