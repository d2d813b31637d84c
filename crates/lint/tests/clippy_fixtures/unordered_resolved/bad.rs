//! Fixture: hash-ordered collections reached through an import rename, a
//! `type` alias, and a re-export used from another module. Clippy
//! resolves each name to `HashMap`, so every spelling is caught where it
//! is written, across modules too.

use std::collections::HashMap as Map; //~ clippy::disallowed_types

type HomeCache = Map<u64, usize>; //~ clippy::disallowed_types

pub struct SliceDirectory {
    homes: HomeCache,
}

pub fn lookup(dir: &SliceDirectory, vpn: u64) -> Option<usize> {
    dir.homes.get(&vpn).copied()
}

pub fn fresh() -> HomeCache {
    HomeCache::new()
}

mod maps {
    pub use std::collections::HashMap as Table; //~ clippy::disallowed_types
}

pub fn elsewhere() -> maps::Table<u64, u64> { //~ clippy::disallowed_types
    maps::Table::new() //~ clippy::disallowed_types
}
