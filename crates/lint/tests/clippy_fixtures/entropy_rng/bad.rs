//! Fixture: entropy-seeded hashing. `RandomState` seeds from the OS, so
//! whatever it hashes or orders varies run to run. The test-module use is
//! a finding too: a nondeterministic test is a flaky test.

use std::hash::BuildHasher;

pub fn shuffle_seed() -> u64 {
    std::collections::hash_map::RandomState::new().hash_one(7u64) //~ clippy::disallowed_types
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    #[test]
    fn nondeterministic_test() {
        let noise = std::hash::RandomState::new().hash_one(7u64); //~ clippy::disallowed_types
        let _ = noise;
    }
}
