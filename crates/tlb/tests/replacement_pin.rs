//! Pins the victims of every replacement policy.
//!
//! The golden reports all run LRU, and the differential proptest in
//! `set_assoc.rs` shares its victim rule with the array under test, so
//! neither notices a change to which way FIFO or Random evicts. This test
//! drives a slice-sized and an L1-sized array under each policy with one
//! fixed xorshift stream of lookups, inserts and invalidations, and
//! demands the exact hit and miss counts and an FNV-1a digest of every
//! evicted entry, in order, as recorded when the test was written.

use nocstar_tlb::entry::TlbEntry;
use nocstar_tlb::replacement::ReplacementPolicy;
use nocstar_tlb::set_assoc::SetAssocTlb;
use nocstar_types::{Asid, PageSize, PhysPageNum, VirtPageNum};

/// What one run of the stream left behind.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    hits: u64,
    misses: u64,
    evictions: u64,
    evicted_digest: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Runs 40,000 operations on a fresh `entries`-entry, `ways`-way array.
/// Pages come from a pool twice the array's size, across two ASIDs and
/// mostly 4 KiB, so the stream both hits and evicts.
fn run(entries: usize, ways: usize, policy: ReplacementPolicy) -> Outcome {
    let mut tlb = SetAssocTlb::new(entries, ways, policy);
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let mut evictions = 0;
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let pool = 2 * entries as u64;
    for _ in 0..40_000 {
        let draw = xorshift(&mut rng);
        let size = match draw >> 60 {
            0 => PageSize::Size2M,
            1 => PageSize::Size1G,
            _ => PageSize::Size4K,
        };
        let vpn = VirtPageNum::new((draw >> 8) % pool, size);
        let asid = Asid::new(1 + ((draw >> 4) % 2) as u16);
        match draw % 16 {
            0..=7 => {
                tlb.lookup(asid, vpn);
            }
            8..=13 => {
                let ppn = PhysPageNum::new(draw >> 24, size);
                let entry = if draw >> 56 == 0xff {
                    TlbEntry::new_global(vpn, ppn)
                } else {
                    TlbEntry::new(asid, vpn, ppn)
                };
                if let Some(evicted) = tlb.insert(entry) {
                    evictions += 1;
                    for word in [
                        u64::from(evicted.asid().value()),
                        evicted.vpn().number(),
                        evicted.ppn().number(),
                        evicted.page_size().shift().into(),
                        u64::from(evicted.is_global()),
                    ] {
                        digest = fnv1a(digest, word);
                    }
                }
            }
            14 => {
                tlb.invalidate(asid, vpn);
            }
            _ => {
                if (draw >> 48) & 0xff == 0 {
                    tlb.invalidate_asid(asid);
                } else {
                    tlb.invalidate(asid, vpn);
                }
            }
        }
    }
    Outcome {
        hits: tlb.stats().hits(),
        misses: tlb.stats().misses(),
        evictions,
        evicted_digest: digest,
    }
}

fn pinned(hits: u64, misses: u64, evictions: u64, evicted_digest: u64) -> Outcome {
    Outcome {
        hits,
        misses,
        evictions,
        evicted_digest,
    }
}

#[test]
fn lru_victims_are_pinned() {
    let lru = ReplacementPolicy::Lru;
    assert_eq!(
        run(1024, 8, lru),
        pinned(3112, 16946, 6044, 15_655_768_369_379_694_362)
    );
    assert_eq!(
        run(64, 4, lru),
        pinned(3847, 16211, 10814, 9_080_532_534_254_894_571)
    );
}

#[test]
fn fifo_victims_are_pinned() {
    let fifo = ReplacementPolicy::Fifo;
    assert_eq!(
        run(1024, 8, fifo),
        pinned(3083, 16975, 6122, 16_296_168_254_663_521_758)
    );
    assert_eq!(
        run(64, 4, fifo),
        pinned(3751, 16307, 10945, 18_349_824_932_203_501_678)
    );
}

#[test]
fn random_victims_are_pinned() {
    let random = ReplacementPolicy::Random;
    assert_eq!(
        run(1024, 8, random),
        pinned(3102, 16956, 6053, 1_431_917_354_550_404_391)
    );
    assert_eq!(
        run(64, 4, random),
        pinned(3673, 16385, 10905, 80_150_217_686_198_329)
    );
}
