//! Fixture: all randomness derives from the run's explicit seed.

/// SplitMix64: the stream for `core` is a pure function of the seed.
pub fn rng_for_core(master_seed: u64, core: u64) -> u64 {
    let mut z = master_seed ^ core.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
