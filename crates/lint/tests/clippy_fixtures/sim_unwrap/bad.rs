//! Fixture: panicking extraction in sim library code, and a waiver that
//! outlived the unwrap it excused. The first line is the one every sim
//! crate's lib.rs carries.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub fn lookup(map: &std::collections::BTreeMap<u64, u64>, key: u64) -> u64 {
    let hit = map.get(&key).unwrap(); //~ clippy::unwrap_used
    let doubled = map.get(&(key * 2)).expect("scheduled earlier"); //~ clippy::expect_used
    hit + doubled
}

#[expect(clippy::unwrap_used, reason = "leftover from a removed unwrap")] //~ unfulfilled_lint_expectations
pub fn checked(stamps: &[u64]) -> u64 {
    stamps.first().copied().unwrap_or(0)
}
