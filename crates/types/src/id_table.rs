//! Live entries addressed by ids from a monotone counter.
//!
//! The simulator names every in-flight transaction (and every message of
//! it) by an id from one counter, and both the simulation loop and the
//! hierarchical fabric look entries up by that id on every delivery.
//! [`IdTable`] makes those lookups index arithmetic while keeping memory
//! proportional to what is live.

use std::collections::VecDeque;

/// Marks a ring slot whose id holds no entry.
const VACANT: u32 = u32::MAX;

/// Entries keyed by ids that mostly arrive in increasing order.
///
/// Two parts: a ring of `u32` handles over the span of ids from the
/// oldest live entry to the newest (slot `i` is id `base + i`), and a
/// slab of entries with a free list. Get, insert and remove are index
/// arithmetic. Removing an entry frees its slab slot for reuse and pops
/// the vacant handles at the front of the ring; inserting below the
/// oldest live id extends the front.
///
/// Memory is 4 bytes per *spanned* id plus one entry per *live* id: an
/// entry that never leaves keeps a handle for every id issued after it,
/// but the slab never holds more entries than were ever live at once.
///
/// # Panics
///
/// Inserting panics when more than `u32::MAX - 1` entries would be live,
/// the most a `u32` handle can address.
///
/// # Examples
///
/// ```
/// use nocstar_types::id_table::IdTable;
///
/// let mut t = IdTable::new();
/// t.insert(7, 'a');
/// t.insert(9, 'b');
/// assert_eq!(t.get(9), Some(&'b'));
/// assert_eq!(t.remove(7), Some('a'));
/// assert_eq!(t.get(7), None);
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// The id of `ring[0]`.
    base: u64,
    /// Per spanned id, its entry's index in `entries`, or [`VACANT`].
    ring: VecDeque<u32>,
    /// Entries, live or on the free list.
    entries: Vec<T>,
    /// Indices of `entries` free for reuse.
    free: Vec<u32>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            base: 0,
            ring: VecDeque::new(),
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring slot of `id`, if `id` lies inside the span.
    fn slot(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.ring.len()).then_some(i)
    }

    /// The slab index of live `id`.
    fn handle(&self, id: u64) -> Option<usize> {
        let h = self.ring[self.slot(id)?];
        (h != VACANT).then_some(h as usize)
    }

    /// The entry under `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        let h = self.handle(id)?;
        Some(&self.entries[h])
    }

    /// The entry under `id`, mutably, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let h = self.handle(id)?;
        Some(&mut self.entries[h])
    }

    /// Stores `value` under `id`, returning the entry it replaced.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.ring.is_empty() {
            self.base = id;
        }
        if id < self.base {
            // A span too wide for memory fails in `reserve`.
            let gap = usize::try_from(self.base - id).unwrap_or(usize::MAX);
            self.ring.reserve(gap);
            for _ in 0..gap {
                self.ring.push_front(VACANT);
            }
            self.base = id;
        }
        let i = usize::try_from(id - self.base).unwrap_or(usize::MAX);
        if i >= self.ring.len() {
            self.ring.resize(i + 1, VACANT);
        }
        let h = self.ring[i];
        if h != VACANT {
            return Some(std::mem::replace(&mut self.entries[h as usize], value));
        }
        self.ring[i] = match self.free.pop() {
            Some(h) => {
                self.entries[h as usize] = value;
                h
            }
            None => {
                let h = u32::try_from(self.entries.len()).unwrap_or(VACANT);
                assert!(
                    h != VACANT,
                    "an IdTable holds fewer than u32::MAX live entries"
                );
                self.entries.push(value);
                h
            }
        };
        None
    }

    /// Live entries in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.ring
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != VACANT)
            .map(|(i, &h)| (self.base + i as u64, &self.entries[h as usize]))
    }
}

impl<T: Copy> IdTable<T> {
    /// Removes and returns the entry under `id`. Its slab slot keeps a
    /// stale copy until an insert reuses it.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.slot(id)?;
        let h = std::mem::replace(&mut self.ring[i], VACANT);
        if h == VACANT {
            return None;
        }
        self.free.push(h);
        while self.ring.front() == Some(&VACANT) {
            self.ring.pop_front();
            self.base += 1;
        }
        Some(self.entries[h as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::IdTable;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn out_of_order_removal_keeps_the_rest_addressable() {
        let mut t = IdTable::new();
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
        assert_eq!((t.get(2), t.get(3), t.get(4)), (Some(&20), None, Some(&40)));
        assert_eq!(t.remove(2), Some(20));
        assert_eq!(t.len(), 1);
        // The vacant handle of id 3 went with id 2; id 4 is now the base.
        assert_eq!(t.base, 4);
        assert_eq!(t.remove(4), Some(40));
        assert_eq!(t.len(), 0);
        assert!(t.ring.is_empty());
        // An empty table re-bases on the next id instead of spanning the gap.
        t.insert(1_000, 1);
        assert_eq!((t.len(), t.ring.len()), (1, 1));
    }

    #[test]
    fn removing_an_unknown_id_changes_nothing() {
        let mut t = IdTable::new();
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
        assert_eq!(t.get(9), Some(&'b'));
    }

    #[test]
    fn reinserting_below_the_base_extends_the_front() {
        // A failed completion puts back a transaction it already took:
        // if that was the oldest, its id is now below the base.
        let mut t = IdTable::new();
        t.insert(4, 'a');
        t.insert(6, 'c');
        assert_eq!(t.remove(4), Some('a'));
        assert_eq!((t.len(), t.base), (1, 6));
        t.insert(4, 'a');
        assert_eq!((t.len(), t.base), (2, 4));
        assert_eq!(
            (t.get(4), t.get(5), t.get(6)),
            (Some(&'a'), None, Some(&'c'))
        );
        // Replacing a live entry does not count it twice.
        assert_eq!(t.insert(4, 'z'), Some('a'));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(4), Some('z'));
        assert_eq!((t.len(), t.base), (1, 6));
    }

    #[test]
    fn a_stuck_oldest_id_costs_handles_not_entries() {
        // One entry that never leaves while 100,000 later ids come and
        // go two at a time: the ring spans every id, but the slab holds
        // no more entries than were ever live at once.
        let mut t = IdTable::new();
        t.insert(0, 0u64);
        let mut peak = t.len();
        for id in (1..=100_000u64).step_by(2) {
            t.insert(id, id);
            t.insert(id + 1, id + 1);
            peak = peak.max(t.len());
            assert_eq!(t.remove(id), Some(id));
            assert_eq!(t.remove(id + 1), Some(id + 1));
        }
        assert_eq!(peak, 3);
        assert_eq!(t.len(), 1);
        assert!(t.entries.len() <= peak, "slab grew to {}", t.entries.len());
        assert_eq!(t.ring.len(), 100_001);
        assert_eq!(t.get(0), Some(&0));
        assert_eq!(t.remove(0), Some(0));
        assert!(t.ring.is_empty());
    }

    /// Table operations: `(op, id)`, where op 0 inserts, 1 removes and 2
    /// reads. Ids below the span's base and outside it come up often in
    /// a window of 48.
    fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
        prop::collection::vec((0u8..3, 0u64..48), 1..200)
    }

    fn check(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        let mut table = IdTable::new();
        let mut reference = BTreeMap::new();
        let mut peak = 0;
        for (step, &(op, id)) in ops.iter().enumerate() {
            match op {
                0 => prop_assert_eq!(table.insert(id, step), reference.insert(id, step)),
                1 => prop_assert_eq!(table.remove(id), reference.remove(&id)),
                _ => prop_assert_eq!(table.get(id), reference.get(&id)),
            }
            prop_assert_eq!(table.len(), reference.len());
            peak = peak.max(reference.len());
            prop_assert!(table.entries.len() <= peak);
            prop_assert_eq!(table.is_empty(), reference.is_empty());
            let live: Vec<(u64, usize)> = table.iter().map(|(id, &v)| (id, v)).collect();
            let expected: Vec<(u64, usize)> = reference.iter().map(|(&id, &v)| (id, v)).collect();
            prop_assert_eq!(live, expected);
        }
        for id in [48, 1_000, u64::MAX] {
            prop_assert_eq!(table.get(id), None);
            prop_assert_eq!(table.remove(id), None);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_matches_ordered_map_reference(ops in ops()) {
            check(&ops)?;
        }
    }
}
