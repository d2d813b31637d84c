//! Fixture: the same rename, alias and re-export shapes over an
//! *ordered* map resolve to `BTreeMap` and stay silent: what is banned is
//! what a name denotes, not how it is spelled.

use std::collections::BTreeMap as Map;

type HomeCache = Map<u64, usize>;

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
    pub use std::collections::BTreeMap as Table;
}

pub fn elsewhere() -> maps::Table<u64, u64> {
    maps::Table::new()
}
