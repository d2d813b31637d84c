//! Property tests of the NCT replay reader — `FileTrace` and
//! `WorkloadAssignment::from_trace_file` — against the whole-file
//! decoder (`TRACE_FORMAT.md`):
//!
//! * replay yields exactly the events `nct::decode_block` decodes from
//!   each block, in order and across the wrap back to the first event,
//!   for random mixes of every event kind and for streams of more than
//!   one 4096-event block;
//! * bit-flipped, truncated and checksum-recomputed files never panic
//!   either reader. Each gives a structured `NctError`, or a replay
//!   identical to the one `NctFile::parse` reads from the same bytes;
//!   opening every stream fails exactly when `parse` does.
//!
//! `prop_mutated_files_never_panic_nightly` is the 2,048-case run of the
//! mutation property (`scripts/ci.sh --nightly`).

use nocstar::prelude::*;
use nocstar::types::VirtPageNum;
use nocstar::workloads::nct::{self, NctFile, ThreadStream, WRITER_BLOCK_EVENTS};
use nocstar::workloads::trace::{MemAccess, TraceEvent, TraceSource};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("nct_reader_{}_{name}", std::process::id()))
}

/// A deterministic stream of `n` events from `seed`. About `os_per_16`
/// in 16 events are OS events (context switches, and remaps, promotes
/// and demotes of every page size); the rest are accesses whose VAs move
/// by small steps (`near`) or jump anywhere in the 64-bit space.
fn synth(seed: u64, n: usize, os_per_16: u64, near: bool) -> ThreadStream {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let sizes = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
    let mut va = 0x7f00_0000_0000u64;
    let mut superpage_frames = BTreeSet::new();
    let events = (0..n)
        .map(|_| {
            if next() % 16 < os_per_16 {
                let vpn = VirtPageNum::new(next() >> (next() % 64), sizes[(next() % 3) as usize]);
                return match next() % 4 {
                    0 => TraceEvent::ContextSwitch,
                    1 => TraceEvent::Remap(vpn),
                    2 => TraceEvent::Promote(vpn),
                    _ => TraceEvent::Demote(vpn),
                };
            }
            va = if near {
                va.wrapping_add((next() % 0x4000).wrapping_sub(0x2000))
            } else {
                next()
            };
            if next() % 4 == 0 {
                superpage_frames.insert(va >> 21);
            }
            TraceEvent::Access(MemAccess {
                va: VirtAddr::new(va),
                is_write: next() % 2 == 0,
                gap: Cycles::new(next() >> (next() % 64)),
            })
        })
        .collect();
    ThreadStream {
        superpage_frames,
        events,
    }
}

/// One block of a well-formed file's bytes.
struct Block {
    /// Offset of the block header.
    header: usize,
    payload: Range<usize>,
    events: usize,
}

/// The blocks of each thread section of a well-formed NCT file, found by
/// walking the layout of `TRACE_FORMAT.md` §3.
fn layout(bytes: &[u8]) -> Vec<Vec<Block>> {
    let u16_at = |at: usize| usize::from(u16::from_le_bytes([bytes[at], bytes[at + 1]]));
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let dir = nct::HEADER_LEN + u16_at(18);
    (0..u16_at(12))
        .map(|t| {
            let mut pos = u64_at(dir + t * nct::DIR_ENTRY_LEN);
            let frames = nct::read_uvarint(bytes, &mut pos).unwrap();
            for _ in 0..frames {
                nct::read_uvarint(bytes, &mut pos).unwrap();
            }
            let count = nct::read_uvarint(bytes, &mut pos).unwrap() as usize;
            let mut blocks = Vec::new();
            let mut seen = 0;
            while seen < count {
                let start = pos + nct::BLOCK_HEADER_LEN;
                let payload = start..start + u32_at(pos);
                let events = u32_at(pos + 4);
                blocks.push(Block {
                    header: pos,
                    payload: payload.clone(),
                    events,
                });
                pos = payload.end;
                seen += events;
            }
            blocks
        })
        .collect()
}

/// Replays `n` events of `trace`.
fn replay(trace: &mut impl TraceSource, n: usize) -> Vec<TraceEvent> {
    (0..n).map(|_| trace.next_event()).collect()
}

/// `events` repeated to `n` events, as a replay wraps them.
fn cycled(events: &[TraceEvent], n: usize) -> Vec<TraceEvent> {
    events.iter().cycle().take(n).copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stream of a file replays exactly the events `decode_block`
    /// decodes from its blocks, wraps to its first event after its last,
    /// and reports the file's superpage backing.
    #[test]
    fn prop_file_trace_replays_decode_block(
        seed in any::<u64>(),
        lens in prop::collection::vec(
            prop_oneof![1usize..200, WRITER_BLOCK_EVENTS - 2..WRITER_BLOCK_EVENTS * 2 + 3],
            1..3,
        ),
        os_per_16 in prop_oneof![Just(0u64), 1u64..16, Just(16u64)],
        near in any::<bool>(),
    ) {
        let streams: Vec<ThreadStream> = lens
            .iter()
            .enumerate()
            .map(|(t, &n)| synth(seed ^ (t as u64) << 40, n, os_per_16, near))
            .collect();
        let file = NctFile::new(Asid::new(5), "prop", streams.clone()).expect("assemble");
        let bytes = file.to_bytes();
        let path = scratch(&format!("replay_{seed:x}.nct"));
        std::fs::write(&path, &bytes).expect("write");
        for (t, blocks) in layout(&bytes).iter().enumerate() {
            let decoded: Vec<TraceEvent> = blocks
                .iter()
                .flat_map(|b| nct::decode_block(&bytes[b.payload.clone()], b.events).expect("decode"))
                .collect();
            prop_assert_eq!(&decoded, &streams[t].events);
            let mut trace = FileTrace::open(&path, t as u16).expect("open");
            prop_assert_eq!(trace.asid(), Asid::new(5));
            prop_assert_eq!(trace.event_count(), decoded.len() as u64);
            let n = 2 * decoded.len() + 3;
            prop_assert_eq!(replay(&mut trace, n), cycled(&decoded, n));
            for event in &decoded {
                if let TraceEvent::Access(a) = event {
                    let want = if streams[t].superpage_frames.contains(&(a.va.value() >> 21)) {
                        PageSize::Size2M
                    } else {
                        PageSize::Size4K
                    };
                    prop_assert_eq!(trace.backing(a.va), want);
                }
            }
        }
        std::fs::remove_file(&path).expect("remove");
    }
}

/// How a clean file is damaged: `(kind, where, bit)`. Kind 0 flips bit
/// `bit` of the byte at `where` (scaled to the file), kind 1 truncates
/// the file there, and kinds 2 and 3 flip a bit of a block's payload or
/// header and then store the payload's recomputed checksum, so that
/// damage reaches the structural checks behind the checksum.
type Mutation = (u8, u64, u8);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0u8..4, any::<u64>(), 0u8..8), 1..4)
}

fn mutate(bytes: &mut Vec<u8>, (kind, at, bit): Mutation) {
    if bytes.is_empty() {
        return;
    }
    match kind {
        0 => {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
        }
        1 => bytes.truncate((at % bytes.len() as u64) as usize),
        _ => {
            // Only a file that still parses has a layout to aim at.
            if NctFile::parse(bytes).is_err() {
                return;
            }
            let blocks: Vec<Block> = layout(bytes).into_iter().flatten().collect();
            let block = &blocks[(at % blocks.len() as u64) as usize];
            let target = if kind == 2 {
                block.payload.clone()
            } else {
                block.header..block.header + 8
            };
            let offset = ((at >> 32) % target.len() as u64) as usize;
            bytes[target.start + offset] ^= 1 << bit;
            let payload = block.header + nct::BLOCK_HEADER_LEN
                ..block.header
                    + nct::BLOCK_HEADER_LEN
                    + u32::from_le_bytes(bytes[block.header..block.header + 4].try_into().unwrap())
                        as usize;
            if let Some(payload) = bytes.get(payload) {
                let sum = nct::fnv1a64(payload).to_le_bytes();
                bytes[block.header + 8..block.header + 16].copy_from_slice(&sum);
            }
        }
    }
}

/// Feeds a damaged file to both readers and holds them to
/// `NctFile::parse` of the same bytes.
fn check_mutated(
    seed: u64,
    lens: &[usize],
    damage: &[Mutation],
    name: &str,
) -> Result<(), TestCaseError> {
    let streams: Vec<ThreadStream> = lens
        .iter()
        .enumerate()
        .map(|(t, &n)| {
            synth(
                seed ^ (t as u64) << 40,
                n,
                seed % 17,
                seed.is_multiple_of(2),
            )
        })
        .collect();
    let mut bytes = NctFile::new(Asid::new(9), "mutant", streams)
        .expect("assemble")
        .to_bytes();
    for &m in damage {
        mutate(&mut bytes, m);
    }
    let path = scratch(name);
    std::fs::write(&path, &bytes).expect("write");
    let parsed = NctFile::parse(&bytes);

    // Stream 0 alone. It may open where `parse` fails on another stream.
    match FileTrace::open(&path, 0) {
        Ok(mut trace) => {
            let n = 2 * trace.event_count() as usize + 1;
            let events = replay(&mut trace, n);
            if let Ok(file) = &parsed {
                prop_assert_eq!(trace.asid(), file.asid());
                prop_assert_eq!(trace.label(), file.label());
                prop_assert_eq!(events, cycled(&file.threads()[0].events, n));
            }
        }
        Err(e) => prop_assert!(parsed.is_err(), "open rejected a file parse accepts: {}", e),
    }

    // Every stream the (possibly damaged) header declares, through the
    // assignment: one hardware thread per stream validates them all.
    let declared = bytes
        .get(12..14)
        .map_or(1, |b| u16::from_le_bytes([b[0], b[1]]));
    let config = SystemConfig::new(usize::from(declared.max(1)), TlbOrg::paper_private());
    match (WorkloadAssignment::from_trace_file(&config, &path), &parsed) {
        (Ok(assignment), Ok(file)) => {
            prop_assert_eq!(assignment.label(), file.label());
            prop_assert_eq!(assignment.len(), file.threads().len());
        }
        (Err(e), Err(_)) => prop_assert!(!e.to_string().is_empty()),
        (Ok(_), Err(e)) => prop_assert!(
            false,
            "from_trace_file accepted a file parse rejects: {}",
            e
        ),
        (Err(e), Ok(_)) => prop_assert!(
            false,
            "from_trace_file rejected a file parse accepts: {}",
            e
        ),
    }
    std::fs::remove_file(&path).expect("remove");
    Ok(())
}

fn stream_lens() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![1usize..120, 1usize..120, 4000usize..4300], 1..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damaged files give a structured error or the replay `parse` reads.
    #[test]
    fn prop_mutated_files_never_panic(
        seed in any::<u64>(),
        lens in stream_lens(),
        damage in mutations(),
    ) {
        check_mutated(seed, &lens, &damage, &format!("mutant_{seed:x}.nct"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    #[ignore = "nightly: 2,048 mutation cases (ci.sh --nightly)"]
    fn prop_mutated_files_never_panic_nightly(
        seed in any::<u64>(),
        lens in stream_lens(),
        damage in mutations(),
    ) {
        check_mutated(seed, &lens, &damage, &format!("mutant_nightly_{seed:x}.nct"))?;
    }
}
