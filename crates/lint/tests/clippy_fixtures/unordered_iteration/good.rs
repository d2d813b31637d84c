//! Fixture: ordered collections are clean, in test code too.

use std::collections::{BTreeMap, BTreeSet};

pub struct SliceDirectory {
    homes: BTreeMap<u64, usize>,
}

pub fn drain_ready(ready: &BTreeSet<u64>) -> Vec<u64> {
    ready.iter().copied().collect()
}

pub fn count(dir: &SliceDirectory) -> usize {
    dir.homes.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(1u64, 2u64);
        assert_eq!(m.len(), 1);
    }
}
