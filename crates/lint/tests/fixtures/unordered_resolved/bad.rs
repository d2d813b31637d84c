//! Fixture: hash-ordered collections reached through an import rename, a
//! `type` alias, and a struct field type — invisible to a token-only
//! rule, caught by alias resolution.

use std::collections::HashMap as Map;

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
