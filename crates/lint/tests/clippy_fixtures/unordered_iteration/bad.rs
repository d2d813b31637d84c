//! Fixture: hash-ordered collections in sim code, test code included.
//! Every named use is a finding; the mention in a string is not.

use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types

pub struct SliceDirectory {
    homes: HashMap<u64, usize>, //~ clippy::disallowed_types
}

// Iterating a hash set: the order varies run to run.
pub fn drain_ready(ready: &HashSet<u64>) -> Vec<u64> { //~ clippy::disallowed_types
    ready.iter().copied().collect()
}

pub fn count(dir: &SliceDirectory) -> usize {
    let _not_a_finding = "HashMap mentioned in a string";
    dir.homes.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let mut m = std::collections::HashMap::new(); //~ clippy::disallowed_types
        m.insert(1u64, 2u64);
        assert_eq!(m.len(), 1);
    }
}
