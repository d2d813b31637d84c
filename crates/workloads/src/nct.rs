//! The NCT ("nocstar compressed trace") binary format, version 1.
//!
//! The normative byte-level specification lives in `TRACE_FORMAT.md` at
//! the repository root — **the document is the contract**; this module
//! implements it, and `tests/trace_replay.rs` holds the two to the same
//! golden fixture. In brief: a magic/version header with a page-size
//! table, a seekable per-thread directory, and per-thread streams of
//! delta + varint-encoded events cut into independently decodable,
//! checksummed blocks so replay can stream with bounded memory (see
//! [`FileTrace`](crate::file_trace::FileTrace)).
//!
//! This module provides the encoding primitives (varint, zigzag,
//! FNV-1a 64, block codec) and [`NctFile`], the whole-file in-memory
//! form used by the `nocstar-trace` CLI for capture, conversion and
//! inspection. Everything returns structured [`NctError`]s — a malformed
//! or truncated file must never panic the process.

use crate::recorded::RecordedTrace;
use crate::trace::{MemAccess, TraceEvent};
use nocstar_types::time::Cycles;
use nocstar_types::{Asid, PageSize, VirtAddr, VirtPageNum};
use std::collections::BTreeSet;
use std::fmt;
use std::io::Read;
use std::path::Path;

/// The 8-byte file magic: `\x89 N C T \r \n \x1A \n` (PNG-style: the
/// high bit catches 7-bit transports, the line endings catch newline
/// translation).
pub const MAGIC: [u8; 8] = [0x89, b'N', b'C', b'T', 0x0D, 0x0A, 0x1A, 0x0A];

/// The format version this module reads and writes.
pub const VERSION: u16 = 1;

/// The page-size table fixed by version 1: log2 bytes of 4 KiB, 2 MiB
/// and 1 GiB pages. Event payloads refer to page sizes by index into
/// this table.
pub const PAGE_SHIFTS: [u8; 3] = [12, 21, 30];

/// Events per block emitted by this crate's writers (readers accept any
/// positive block size; the last block of a stream holds the remainder).
pub const WRITER_BLOCK_EVENTS: usize = 4096;

/// Byte length of the fixed header (before the label).
pub const HEADER_LEN: usize = 24;

/// Byte length of one thread-directory entry (`u64` offset + `u64` length).
pub const DIR_ENTRY_LEN: usize = 16;

/// Byte length of a block header (`u32` payload length, `u32` event
/// count, `u64` FNV-1a checksum).
pub const BLOCK_HEADER_LEN: usize = 16;

/// Why an NCT file could not be read or written.
///
/// Every decode path returns one of these instead of panicking; the
/// crate's clippy deny on `unwrap`/`expect` polices that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NctError {
    /// An underlying I/O operation failed (context and OS error text).
    Io(String),
    /// The file does not start with the NCT magic.
    BadMagic,
    /// The file's version is not one this reader understands.
    UnsupportedVersion(u16),
    /// The file ended before the named structure was complete.
    Truncated(String),
    /// The bytes are structurally invalid (context explains where/why).
    Corrupt(String),
    /// A block's payload did not match its stored FNV-1a checksum.
    ChecksumMismatch {
        /// Thread stream the block belongs to.
        thread: u16,
        /// Zero-based block index within that stream.
        block: usize,
    },
    /// A thread index beyond the file's stream count was requested.
    BadThreadIndex {
        /// The stream that was asked for.
        requested: u16,
        /// Streams actually present.
        available: u16,
    },
}

impl fmt::Display for NctError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NctError::Io(msg) => write!(f, "I/O error: {msg}"),
            NctError::BadMagic => write!(f, "not an NCT trace file (bad magic)"),
            NctError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported NCT version {v} (this reader knows {VERSION})"
                )
            }
            NctError::Truncated(what) => write!(f, "truncated NCT file: {what}"),
            NctError::Corrupt(what) => write!(f, "corrupt NCT file: {what}"),
            NctError::ChecksumMismatch { thread, block } => write!(
                f,
                "corrupt NCT file: checksum mismatch in thread {thread}, block {block}"
            ),
            NctError::BadThreadIndex {
                requested,
                available,
            } => write!(
                f,
                "thread {requested} requested but the trace has {available} stream(s)"
            ),
        }
    }
}

impl std::error::Error for NctError {}

pub(crate) fn io_err(context: &str, e: &std::io::Error) -> NctError {
    NctError::Io(format!("{context}: {e}"))
}

fn corrupt(msg: impl Into<String>) -> NctError {
    NctError::Corrupt(msg.into())
}

fn truncated(msg: impl Into<String>) -> NctError {
    NctError::Truncated(msg.into())
}

// ---------------------------------------------------------------------------
// Encoding primitives (TRACE_FORMAT.md §2).
// ---------------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint (shortest encoding).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint from `buf` at `*pos`, advancing
/// `*pos` past it.
///
/// # Errors
///
/// Rejects truncation, encodings longer than 10 bytes, 10th bytes that
/// overflow 64 bits, and non-shortest encodings (trailing zero bytes).
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, NctError> {
    read_uvarint_with(|| {
        let byte = buf.get(*pos).copied();
        *pos += usize::from(byte.is_some());
        Ok(byte)
    })
}

/// [`read_uvarint`] over a byte source: `next` yields the next byte, or
/// `None` where the enclosing structure ends.
pub(crate) fn read_uvarint_with(
    mut next: impl FnMut() -> Result<Option<u8>, NctError>,
) -> Result<u64, NctError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let byte = next()?.ok_or_else(|| truncated("varint ends mid-value"))?;
        let payload = u64::from(byte & 0x7F);
        if i == 9 && payload > 1 {
            return Err(corrupt("varint overflows 64 bits"));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            if i > 0 && byte == 0 {
                return Err(corrupt("non-shortest varint encoding"));
            }
            return Ok(v);
        }
    }
    Err(corrupt("varint longer than 10 bytes"))
}

/// Zigzag-maps a signed value so small magnitudes of either sign encode
/// short: 0 → 0, −1 → 1, 1 → 2, −2 → 3, …
pub fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64-bit hash of `bytes` — the per-block checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a64`] of four byte strings, computed in lockstep over their
/// common length: the four multiply chains overlap, so this takes about
/// a third of the time of four calls.
pub(crate) fn fnv1a64_x4(parts: [&[u8]; 4]) -> [u64; 4] {
    let common = parts.iter().map(|p| p.len()).min().unwrap_or(0);
    let [a, b, c, d] = parts.map(|p| &p[..common]);
    let mut h = [FNV_OFFSET; 4];
    for (((&w, &x), &y), &z) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ u64::from(w)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(y)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(z)).wrapping_mul(FNV_PRIME);
    }
    for (h, part) in h.iter_mut().zip(parts) {
        *h = fnv1a64_extend(*h, &part[common..]);
    }
    h
}

fn size_index(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

fn size_from_index(index: u8) -> Result<PageSize, NctError> {
    match index {
        0 => Ok(PageSize::Size4K),
        1 => Ok(PageSize::Size2M),
        2 => Ok(PageSize::Size1G),
        other => Err(corrupt(format!(
            "page-size index {other} out of range (table has {} entries)",
            PAGE_SHIFTS.len()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Block codec (TRACE_FORMAT.md §3.5).
// ---------------------------------------------------------------------------

/// Encodes a run of events as one block payload. The previous-VA
/// register starts at 0, so every block decodes independently.
pub fn encode_block(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 4);
    let mut prev_va: u64 = 0;
    for event in events {
        match event {
            TraceEvent::Access(a) => {
                out.push(u8::from(a.is_write));
                let delta = a.va.value().wrapping_sub(prev_va) as i64;
                write_uvarint(&mut out, zigzag(delta));
                write_uvarint(&mut out, a.gap.value());
                prev_va = a.va.value();
            }
            TraceEvent::ContextSwitch => out.push(0x02),
            TraceEvent::Remap(vpn) => encode_page_event(&mut out, 0x03, *vpn),
            TraceEvent::Promote(vpn) => encode_page_event(&mut out, 0x04, *vpn),
            TraceEvent::Demote(vpn) => encode_page_event(&mut out, 0x05, *vpn),
        }
    }
    out
}

fn encode_page_event(out: &mut Vec<u8>, tag: u8, vpn: VirtPageNum) {
    out.push(tag);
    out.push(size_index(vpn.page_size()));
    write_uvarint(out, vpn.number());
}

/// Decodes one block payload that claims to hold `block_events` events.
///
/// # Errors
///
/// Rejects unknown tags, truncated events, bad page-size indexes, and
/// trailing bytes after the last event.
pub fn decode_block(payload: &[u8], block_events: usize) -> Result<Vec<TraceEvent>, NctError> {
    let mut pos = 0usize;
    let mut prev_va: u64 = 0;
    // Every event takes at least one byte: a corrupt count must not
    // reserve more than the payload can hold.
    let mut out = Vec::with_capacity(block_events.min(payload.len()));
    for _ in 0..block_events {
        let tag = *payload
            .get(pos)
            .ok_or_else(|| truncated("block payload ends mid-event"))?;
        pos += 1;
        let event = match tag {
            0x00 | 0x01 => {
                let delta = unzigzag(read_uvarint(payload, &mut pos)?);
                let va = prev_va.wrapping_add(delta as u64);
                let gap = read_uvarint(payload, &mut pos)?;
                prev_va = va;
                TraceEvent::Access(MemAccess {
                    va: VirtAddr::new(va),
                    is_write: tag == 0x01,
                    gap: Cycles::new(gap),
                })
            }
            0x02 => TraceEvent::ContextSwitch,
            0x03..=0x05 => {
                let index = *payload
                    .get(pos)
                    .ok_or_else(|| truncated("page event ends before size index"))?;
                pos += 1;
                let size = size_from_index(index)?;
                let number = read_uvarint(payload, &mut pos)?;
                let vpn = VirtPageNum::new(number, size);
                match tag {
                    0x03 => TraceEvent::Remap(vpn),
                    0x04 => TraceEvent::Promote(vpn),
                    _ => TraceEvent::Demote(vpn),
                }
            }
            other => return Err(corrupt(format!("unknown event tag {other:#04x}"))),
        };
        out.push(event);
    }
    if pos != payload.len() {
        return Err(corrupt(format!(
            "block payload has {} trailing byte(s) after the last event",
            payload.len() - pos
        )));
    }
    Ok(out)
}

/// Checks that `payload` holds exactly `block_events` well-formed events
/// without building them: a structural scan of tags, page-size indexes
/// and varints. [`FileTrace`](crate::file_trace::FileTrace) then
/// decodes the validated bytes one event at a time.
///
/// # Errors
///
/// Exactly the error [`decode_block`] returns for the same bytes.
pub(crate) fn validate_block(payload: &[u8], block_events: usize) -> Result<(), NctError> {
    if scan_block(payload, block_events) {
        Ok(())
    } else {
        // The scan says whether the bytes are malformed; the decoder says why.
        decode_block(payload, block_events).map(drop)
    }
}

/// Whether `payload` holds exactly `events` events [`decode_block`]
/// accepts.
fn scan_block(payload: &[u8], events: usize) -> bool {
    let mut pos = 0usize;
    for _ in 0..events {
        let Some(&tag) = payload.get(pos) else {
            return false;
        };
        let next = match tag {
            0x00 | 0x01 => skip_uvarint(payload, pos + 1).and_then(|p| skip_uvarint(payload, p)),
            0x02 => Some(pos + 1),
            0x03..=0x05 => match payload.get(pos + 1) {
                Some(&index) if usize::from(index) < PAGE_SHIFTS.len() => {
                    skip_uvarint(payload, pos + 2)
                }
                _ => None,
            },
            _ => None,
        };
        match next {
            Some(p) => pos = p,
            None => return false,
        }
    }
    pos == payload.len()
}

/// The position just past the varint at `pos` if [`read_uvarint`]
/// accepts it, else `None`.
fn skip_uvarint(buf: &[u8], pos: usize) -> Option<usize> {
    // Fast path: the varint ends within the next eight bytes, at the
    // first clear continuation bit of one little-endian word.
    if let Some(word) = buf
        .get(pos..pos + 8)
        .and_then(|w| <[u8; 8]>::try_from(w).ok())
    {
        let stops = !u64::from_le_bytes(word) & 0x8080_8080_8080_8080;
        if stops != 0 {
            let len = (stops.trailing_zeros() / 8 + 1) as usize;
            // Shortest encoding: only a one-byte varint may end in 0x00.
            return (len == 1 || word[len - 1] != 0).then_some(pos + len);
        }
    }
    let mut end = pos;
    read_uvarint(buf, &mut end).ok().map(|_| end)
}

/// Decodes the event at `*pos` of a payload that passed
/// [`validate_block`], advancing `*pos` and the previous-VA register
/// `*prev_va` (0 at the start of every block).
///
/// Bytes that did not pass validation decode to unspecified events, or
/// panic on an out-of-range index; they never cause undefined behaviour.
#[inline]
pub(crate) fn decode_event(payload: &[u8], pos: &mut usize, prev_va: &mut u64) -> TraceEvent {
    let tag = payload[*pos];
    *pos += 1;
    match tag {
        0x00 | 0x01 => {
            let va = prev_va.wrapping_add(unzigzag(uvarint_at(payload, pos)) as u64);
            *prev_va = va;
            TraceEvent::Access(MemAccess {
                va: VirtAddr::new(va),
                is_write: tag == 0x01,
                gap: Cycles::new(uvarint_at(payload, pos)),
            })
        }
        0x02 => TraceEvent::ContextSwitch,
        _ => {
            let size = match payload[*pos] {
                0 => PageSize::Size4K,
                1 => PageSize::Size2M,
                _ => PageSize::Size1G,
            };
            *pos += 1;
            let vpn = VirtPageNum::new(uvarint_at(payload, pos), size);
            match tag {
                0x03 => TraceEvent::Remap(vpn),
                0x04 => TraceEvent::Promote(vpn),
                _ => TraceEvent::Demote(vpn),
            }
        }
    }
}

/// The validated varint at `*pos` (see [`decode_event`]).
#[inline]
fn uvarint_at(buf: &[u8], pos: &mut usize) -> u64 {
    // Fast path: a varint of up to eight bytes, read as one little-endian
    // word, cut at its first clear continuation bit, and its 7-bit groups
    // packed together in three shift-and-mask steps.
    if let Some(word) = buf
        .get(*pos..*pos + 8)
        .and_then(|w| <[u8; 8]>::try_from(w).ok())
    {
        let word = u64::from_le_bytes(word);
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            let bits = stops.trailing_zeros() + 1;
            *pos += (bits / 8) as usize;
            let x = word & (u64::MAX >> (64 - bits)) & 0x7F7F_7F7F_7F7F_7F7F;
            let x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
            let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
            return (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4);
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << (shift & 63);
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// One block header (TRACE_FORMAT.md §3.5).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockHeader {
    /// Payload byte length (≥ 1).
    pub(crate) payload_len: u32,
    /// Events encoded in the payload (≥ 1).
    pub(crate) events: u32,
    /// FNV-1a 64 of the payload.
    pub(crate) checksum: u64,
}

impl BlockHeader {
    /// Parses block `block` of stream `thread`'s header bytes.
    pub(crate) fn parse(
        bytes: &[u8; BLOCK_HEADER_LEN],
        thread: u16,
        block: usize,
    ) -> Result<Self, NctError> {
        let [l0, l1, l2, l3, e0, e1, e2, e3, sum @ ..] = *bytes;
        let header = Self {
            payload_len: u32::from_le_bytes([l0, l1, l2, l3]),
            events: u32::from_le_bytes([e0, e1, e2, e3]),
            checksum: u64::from_le_bytes(sum),
        };
        if header.payload_len == 0 || header.events == 0 {
            return Err(corrupt(format!(
                "thread {thread} block {block} declares an empty payload or zero events"
            )));
        }
        Ok(header)
    }
}

// ---------------------------------------------------------------------------
// Header (TRACE_FORMAT.md §3.1).
// ---------------------------------------------------------------------------

/// The decoded fixed header plus label of an NCT file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NctHeader {
    /// Address space all threads of the trace run in.
    pub asid: Asid,
    /// Number of thread streams (≥ 1).
    pub thread_count: u16,
    /// UTF-8 workload label (used verbatim as the replay report label).
    pub label: String,
}

impl NctHeader {
    /// Byte offset of thread `index`'s directory entry.
    pub fn dir_entry_offset(&self, index: u16) -> u64 {
        (HEADER_LEN + self.label.len() + usize::from(index) * DIR_ENTRY_LEN) as u64
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.label.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.asid.value().to_le_bytes());
        out.extend_from_slice(&self.thread_count.to_le_bytes());
        out.push(PAGE_SHIFTS.len() as u8);
        out.extend_from_slice(&PAGE_SHIFTS);
        out.extend_from_slice(&(self.label.len() as u16).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(self.label.as_bytes());
        out
    }

    /// Reads and validates the header + label from `r`.
    ///
    /// # Errors
    ///
    /// Returns the structured reason: short read, bad magic, unknown
    /// version, page-size table other than version 1's, nonzero
    /// reserved bits, zero threads, or a non-UTF-8 label.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NctError> {
        let mut fixed = [0u8; HEADER_LEN];
        read_exact(r, &mut fixed, "file header")?;
        if fixed[0..8] != MAGIC {
            return Err(NctError::BadMagic);
        }
        let version = u16::from_le_bytes([fixed[8], fixed[9]]);
        if version != VERSION {
            return Err(NctError::UnsupportedVersion(version));
        }
        let asid = Asid::new(u16::from_le_bytes([fixed[10], fixed[11]]));
        let thread_count = u16::from_le_bytes([fixed[12], fixed[13]]);
        if thread_count == 0 {
            return Err(corrupt("thread count is zero"));
        }
        if fixed[14] != PAGE_SHIFTS.len() as u8 || fixed[15..18] != PAGE_SHIFTS {
            return Err(corrupt(
                "page-size table differs from version 1's {12, 21, 30}",
            ));
        }
        let label_len = usize::from(u16::from_le_bytes([fixed[18], fixed[19]]));
        if fixed[20..24] != [0u8; 4] {
            return Err(corrupt("reserved header bytes are nonzero"));
        }
        let mut label_bytes = vec![0u8; label_len];
        read_exact(r, &mut label_bytes, "workload label")?;
        let label = String::from_utf8(label_bytes)
            .map_err(|_| corrupt("workload label is not valid UTF-8"))?;
        Ok(Self {
            asid,
            thread_count,
            label,
        })
    }
}

/// `read_exact` with NCT error mapping (`UnexpectedEof` → [`NctError::Truncated`]).
pub(crate) fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), NctError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            truncated(format!("{what} ends early"))
        } else {
            io_err(what, &e)
        }
    })
}

// ---------------------------------------------------------------------------
// Whole-file form.
// ---------------------------------------------------------------------------

/// One hardware thread's captured stream: its 2 MiB backing set plus its
/// event list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadStream {
    /// 2 MiB-aligned virtual frame numbers (VA ≫ 21) backed by
    /// superpages; everything else is 4 KiB-backed.
    pub superpage_frames: BTreeSet<u64>,
    /// The captured events, in order (≥ 1).
    pub events: Vec<TraceEvent>,
}

/// A complete NCT trace held in memory: the form the `nocstar-trace` CLI
/// records into, converts through, and inspects.
///
/// For replaying a large file with bounded memory, use
/// [`FileTrace`](crate::file_trace::FileTrace) instead — it streams one
/// block at a time and never holds a whole stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NctFile {
    asid: Asid,
    label: String,
    threads: Vec<ThreadStream>,
}

impl NctFile {
    /// Assembles a trace file from per-thread streams.
    ///
    /// # Errors
    ///
    /// Rejects zero or more than `u16::MAX` streams, an empty event list
    /// in any stream, and labels longer than `u16::MAX` bytes.
    pub fn new(
        asid: Asid,
        label: impl Into<String>,
        threads: Vec<ThreadStream>,
    ) -> Result<Self, NctError> {
        let label = label.into();
        if threads.is_empty() {
            return Err(corrupt("a trace needs at least one thread stream"));
        }
        if threads.len() > usize::from(u16::MAX) {
            return Err(corrupt(format!(
                "{} thread streams exceed the u16 directory limit",
                threads.len()
            )));
        }
        if label.len() > usize::from(u16::MAX) {
            return Err(corrupt("label longer than 65535 bytes"));
        }
        if let Some(i) = threads.iter().position(|t| t.events.is_empty()) {
            return Err(corrupt(format!("thread {i} has no events")));
        }
        Ok(Self {
            asid,
            label,
            threads,
        })
    }

    /// Builds a multi-thread file from per-thread [`RecordedTrace`]s
    /// (thread `i` of the file is `traces[i]`).
    ///
    /// # Errors
    ///
    /// Rejects an empty slice and traces whose ASIDs disagree (an NCT
    /// file models one address space).
    pub fn from_recorded(
        traces: &[RecordedTrace],
        label: impl Into<String>,
    ) -> Result<Self, NctError> {
        let first_asid = match traces.first() {
            Some(t) => t.asid(),
            None => return Err(corrupt("a trace needs at least one thread stream")),
        };
        if let Some(t) = traces.iter().find(|t| t.asid() != first_asid) {
            return Err(corrupt(format!(
                "thread ASIDs disagree ({} vs {})",
                first_asid.value(),
                t.asid().value()
            )));
        }
        let threads = traces
            .iter()
            .map(|t| ThreadStream {
                superpage_frames: t.superpage_frames().clone(),
                events: t.events().to_vec(),
            })
            .collect();
        Self::new(first_asid, label, threads)
    }

    /// Extracts one thread's stream as a [`RecordedTrace`] (the JSON
    /// interchange form). The label is dropped — JSON carries none.
    ///
    /// # Errors
    ///
    /// [`NctError::BadThreadIndex`] if `thread` is out of range.
    pub fn to_recorded(&self, thread: u16) -> Result<RecordedTrace, NctError> {
        let stream = self.threads.get(usize::from(thread)).ok_or({
            NctError::BadThreadIndex {
                requested: thread,
                available: self.threads.len() as u16,
            }
        })?;
        Ok(RecordedTrace::from_parts(
            self.asid,
            stream.events.clone(),
            stream.superpage_frames.clone(),
        ))
    }

    /// The trace's address space.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The workload label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The per-thread streams.
    pub fn threads(&self) -> &[ThreadStream] {
        &self.threads
    }

    /// Serializes to the on-disk byte form (header, label, directory,
    /// contiguous thread sections).
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = NctHeader {
            asid: self.asid,
            thread_count: self.threads.len() as u16,
            label: self.label.clone(),
        };
        let mut out = header.to_bytes();
        let dir_start = out.len();
        out.resize(dir_start + self.threads.len() * DIR_ENTRY_LEN, 0);
        for (i, stream) in self.threads.iter().enumerate() {
            let offset = out.len() as u64;
            encode_section(&mut out, stream);
            let length = out.len() as u64 - offset;
            let entry = dir_start + i * DIR_ENTRY_LEN;
            out[entry..entry + 8].copy_from_slice(&offset.to_le_bytes());
            out[entry + 8..entry + 16].copy_from_slice(&length.to_le_bytes());
        }
        out
    }

    /// Writes the file to `path`.
    ///
    /// # Errors
    ///
    /// I/O failures, as [`NctError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), NctError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| io_err(&format!("write {}", path.display()), &e))
    }

    /// Parses a complete NCT file from bytes, validating every block of
    /// every stream (checksums, event counts, exact section lengths).
    ///
    /// # Errors
    ///
    /// The structured reason the bytes are not a valid NCT file.
    pub fn parse(bytes: &[u8]) -> Result<Self, NctError> {
        let mut cursor = bytes;
        let header = NctHeader::read_from(&mut cursor)?;
        let mut threads = Vec::with_capacity(usize::from(header.thread_count));
        for i in 0..header.thread_count {
            let (offset, length) = read_dir_entry(bytes, &header, i)?;
            let end = offset
                .checked_add(length)
                .ok_or_else(|| corrupt(format!("thread {i} section offset overflows u64")))?;
            if end > bytes.len() as u64 {
                return Err(truncated(format!(
                    "thread {i} section extends past end of file"
                )));
            }
            let section = &bytes[offset as usize..end as usize];
            threads.push(decode_section(section, i)?);
        }
        Self::new(header.asid, header.label, threads)
    }

    /// Reads and fully validates the NCT file at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures and every decode error [`parse`](Self::parse) can
    /// return.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, NctError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| io_err(&format!("read {}", path.display()), &e))?;
        Self::parse(&bytes)
    }
}

/// Reads thread `index`'s directory entry out of the full file bytes.
fn read_dir_entry(bytes: &[u8], header: &NctHeader, index: u16) -> Result<(u64, u64), NctError> {
    let at = header.dir_entry_offset(index) as usize;
    let entry = bytes
        .get(at..at + DIR_ENTRY_LEN)
        .ok_or_else(|| truncated(format!("directory entry for thread {index} ends early")))?;
    let mut off = [0u8; 8];
    let mut len = [0u8; 8];
    off.copy_from_slice(&entry[0..8]);
    len.copy_from_slice(&entry[8..16]);
    Ok((u64::from_le_bytes(off), u64::from_le_bytes(len)))
}

/// Appends one thread section (frame table, event count, blocks) to `out`.
fn encode_section(out: &mut Vec<u8>, stream: &ThreadStream) {
    write_uvarint(out, stream.superpage_frames.len() as u64);
    let mut prev = 0u64;
    for (i, &frame) in stream.superpage_frames.iter().enumerate() {
        // BTreeSet iteration is ascending, so deltas are ≥ 1 after the
        // first (absolute) value.
        write_uvarint(out, if i == 0 { frame } else { frame - prev });
        prev = frame;
    }
    write_uvarint(out, stream.events.len() as u64);
    for chunk in stream.events.chunks(WRITER_BLOCK_EVENTS) {
        let payload = encode_block(chunk);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
}

/// Decodes one complete thread section, validating checksums and counts.
fn decode_section(section: &[u8], thread: u16) -> Result<ThreadStream, NctError> {
    let mut pos = 0usize;
    let superpage_frames = decode_frame_table(thread, || read_uvarint(section, &mut pos))?;
    let event_count = read_uvarint(section, &mut pos)?;
    if event_count == 0 {
        return Err(corrupt(format!("thread {thread} has zero events")));
    }
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut block = 0usize;
    while (events.len() as u64) < event_count {
        let (payload, block_events) = next_block(section, &mut pos, thread, block)?;
        if events.len() as u64 + block_events as u64 > event_count {
            return Err(corrupt(format!(
                "thread {thread} blocks hold more events than the declared {event_count}"
            )));
        }
        events.extend(decode_block(payload, block_events)?);
        block += 1;
    }
    if pos != section.len() {
        return Err(corrupt(format!(
            "thread {thread} section has {} trailing byte(s)",
            section.len() - pos
        )));
    }
    Ok(ThreadStream {
        superpage_frames: superpage_frames.into_iter().collect(),
        events,
    })
}

/// Decodes the delta-coded, strictly ascending superpage frame table,
/// drawing its varints from `varint`. The frames come back ascending.
pub(crate) fn decode_frame_table(
    thread: u16,
    mut varint: impl FnMut() -> Result<u64, NctError>,
) -> Result<Vec<u64>, NctError> {
    let frame_count = varint()?;
    let mut frames = Vec::new();
    let mut prev = 0u64;
    for i in 0..frame_count {
        let raw = varint()?;
        let frame = if i == 0 {
            raw
        } else {
            if raw == 0 {
                return Err(corrupt(format!(
                    "thread {thread} frame table is not strictly ascending"
                )));
            }
            prev.checked_add(raw)
                .ok_or_else(|| corrupt(format!("thread {thread} frame table overflows u64")))?
        };
        frames.push(frame);
        prev = frame;
    }
    Ok(frames)
}

/// Reads the next block header + checksummed payload from a section
/// slice, advancing `*pos` past it.
fn next_block<'a>(
    section: &'a [u8],
    pos: &mut usize,
    thread: u16,
    block: usize,
) -> Result<(&'a [u8], usize), NctError> {
    let header = section
        .get(*pos..*pos + BLOCK_HEADER_LEN)
        .and_then(|h| <&[u8; BLOCK_HEADER_LEN]>::try_from(h).ok())
        .ok_or_else(|| truncated(format!("thread {thread} block {block} header ends early")))?;
    let header = BlockHeader::parse(header, thread, block)?;
    *pos += BLOCK_HEADER_LEN;
    let payload = section
        .get(*pos..*pos + header.payload_len as usize)
        .ok_or_else(|| truncated(format!("thread {thread} block {block} payload ends early")))?;
    *pos += payload.len();
    if fnv1a64(payload) != header.checksum {
        return Err(NctError::ChecksumMismatch { thread, block });
    }
    Ok((payload, header.events as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::ThreadId;
    use proptest::prelude::*;

    fn access(va: u64, write: bool, gap: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            va: VirtAddr::new(va),
            is_write: write,
            gap: Cycles::new(gap),
        })
    }

    #[test]
    fn uvarint_spec_vectors() {
        for (value, bytes) in [
            (0u64, vec![0x00u8]),
            (0x7F, vec![0x7F]),
            (0x80, vec![0x80, 0x01]),
            (0x4000, vec![0x80, 0x80, 0x01]),
            (
                u64::MAX,
                vec![0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ] {
            let mut out = Vec::new();
            write_uvarint(&mut out, value);
            assert_eq!(out, bytes, "encoding {value:#x}");
            let mut pos = 0;
            assert_eq!(read_uvarint(&out, &mut pos).unwrap(), value);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overlength() {
        let mut pos = 0;
        assert!(matches!(
            read_uvarint(&[0x80], &mut pos),
            Err(NctError::Truncated(_))
        ));
        let eleven = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_uvarint(&eleven, &mut pos),
            Err(NctError::Corrupt(_))
        ));
        // 10th byte may only carry one bit.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut pos = 0;
        assert!(matches!(
            read_uvarint(&overflow, &mut pos),
            Err(NctError::Corrupt(_))
        ));
        // Non-shortest: 0x80 0x00 encodes 0 in two bytes.
        let mut pos = 0;
        assert!(matches!(
            read_uvarint(&[0x80, 0x00], &mut pos),
            Err(NctError::Corrupt(_))
        ));
    }

    #[test]
    fn zigzag_spec_vectors() {
        for (n, z) in [
            (0i64, 0u64),
            (-1, 1),
            (1, 2),
            (-2, 3),
            (i64::MAX, u64::MAX - 1),
        ] {
            assert_eq!(zigzag(n), z);
            assert_eq!(unzigzag(z), n);
        }
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of the empty string is the offset basis; of "a" it is
        // the published 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn block_round_trips_every_event_kind() {
        let events = vec![
            access(0x2000, false, 5),
            access(0x20_3008, true, 2),
            TraceEvent::ContextSwitch,
            TraceEvent::Remap(VirtPageNum::new(77, PageSize::Size4K)),
            TraceEvent::Promote(VirtPageNum::new(1, PageSize::Size2M)),
            TraceEvent::Demote(VirtPageNum::new(3, PageSize::Size1G)),
            access(0x1000, false, 0),         // backwards delta
            access(u64::MAX, true, u64::MAX), // extreme values
        ];
        let payload = encode_block(&events);
        assert_eq!(decode_block(&payload, events.len()).unwrap(), events);
    }

    #[test]
    fn decode_rejects_bad_tags_and_trailing_bytes() {
        assert!(matches!(
            decode_block(&[0x09], 1),
            Err(NctError::Corrupt(_))
        ));
        let mut payload = encode_block(&[TraceEvent::ContextSwitch]);
        payload.push(0x00);
        assert!(matches!(
            decode_block(&payload, 1),
            Err(NctError::Corrupt(_))
        ));
        // Page-size index out of table range.
        assert!(matches!(
            decode_block(&[0x03, 0x03, 0x01], 1),
            Err(NctError::Corrupt(_))
        ));
    }

    fn tiny_file() -> NctFile {
        let stream = ThreadStream {
            superpage_frames: [1u64].into_iter().collect(),
            events: vec![
                access(0x2000, false, 5),
                access(0x20_3008, true, 2),
                TraceEvent::Promote(VirtPageNum::new(1, PageSize::Size2M)),
            ],
        };
        NctFile::new(Asid::new(7), "example", vec![stream]).unwrap()
    }

    #[test]
    fn file_round_trips_through_bytes() {
        let file = tiny_file();
        let bytes = file.to_bytes();
        let back = NctFile::parse(&bytes).unwrap();
        assert_eq!(back, file);
        // Determinism: re-serializing reproduces the bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn multi_block_streams_round_trip() {
        let events: Vec<TraceEvent> = (0..(WRITER_BLOCK_EVENTS * 2 + 17))
            .map(|i| access(0x1000 * i as u64, i % 3 == 0, i as u64 % 9))
            .collect();
        let file = NctFile::new(
            Asid::new(2),
            "big",
            vec![ThreadStream {
                superpage_frames: BTreeSet::new(),
                events: events.clone(),
            }],
        )
        .unwrap();
        let back = NctFile::parse(&file.to_bytes()).unwrap();
        assert_eq!(back.threads()[0].events, events);
    }

    #[test]
    fn header_errors_are_structured() {
        let file = tiny_file();
        let good = file.to_bytes();

        assert!(matches!(NctFile::parse(&[]), Err(NctError::Truncated(_))));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            NctFile::parse(&bad_magic),
            Err(NctError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 9;
        assert!(matches!(
            NctFile::parse(&bad_version),
            Err(NctError::UnsupportedVersion(9))
        ));

        let mut bad_reserved = good.clone();
        bad_reserved[20] = 1;
        assert!(matches!(
            NctFile::parse(&bad_reserved),
            Err(NctError::Corrupt(_))
        ));

        let mut bad_table = good.clone();
        bad_table[16] = 22;
        assert!(matches!(
            NctFile::parse(&bad_table),
            Err(NctError::Corrupt(_))
        ));

        let truncated = &good[..good.len() - 3];
        assert!(matches!(
            NctFile::parse(truncated),
            Err(NctError::Truncated(_))
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(matches!(
            NctFile::parse(&flipped),
            Err(NctError::ChecksumMismatch {
                thread: 0,
                block: 0
            })
        ));
    }

    #[test]
    fn recorded_conversion_round_trips() {
        let spec = crate::preset::Preset::Canneal.spec();
        let recorded: Vec<RecordedTrace> = (0..2)
            .map(|t| {
                let mut live = spec.trace(Asid::new(3), ThreadId::new(t), 11, true);
                RecordedTrace::capture(&mut live, 300)
            })
            .collect();
        let file = NctFile::from_recorded(&recorded, "canneal").unwrap();
        assert_eq!(file.label(), "canneal");
        for (t, original) in recorded.iter().enumerate() {
            assert_eq!(&file.to_recorded(t as u16).unwrap(), original);
        }
        assert!(matches!(
            file.to_recorded(2),
            Err(NctError::BadThreadIndex {
                requested: 2,
                available: 2
            })
        ));
    }

    #[test]
    fn mismatched_asids_rejected() {
        let spec = crate::preset::Preset::Gups.spec();
        let a =
            RecordedTrace::capture(&mut spec.trace(Asid::new(1), ThreadId::new(0), 1, true), 10);
        let b =
            RecordedTrace::capture(&mut spec.trace(Asid::new(2), ThreadId::new(0), 1, true), 10);
        assert!(matches!(
            NctFile::from_recorded(&[a, b], "mixed"),
            Err(NctError::Corrupt(_))
        ));
        assert!(matches!(
            NctFile::from_recorded(&[], "none"),
            Err(NctError::Corrupt(_))
        ));
    }

    /// Raw draws for [`event_mix`]: `(kind and page size, va, shift, gap)`.
    type Draw = (u8, u64, u32, u64);

    fn draws() -> impl Strategy<Value = Vec<Draw>> {
        prop::collection::vec((0u8..18, any::<u64>(), 0u32..64, any::<u64>()), 1..80)
    }

    /// A random mix of every event kind, page size and varint length.
    fn event_mix(draws: &[Draw]) -> Vec<TraceEvent> {
        let sizes = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
        draws
            .iter()
            .map(|&(draw, va, shift, gap)| {
                let (kind, size) = (draw % 6, usize::from(draw / 6));
                let vpn = VirtPageNum::new(va >> shift, sizes[size]);
                match kind {
                    0 => TraceEvent::ContextSwitch,
                    1 => TraceEvent::Remap(vpn),
                    2 => TraceEvent::Promote(vpn),
                    3 => TraceEvent::Demote(vpn),
                    _ => access(va >> shift, kind == 5, gap >> shift),
                }
            })
            .collect()
    }

    proptest! {
        /// The cursor decodes a validated payload to `decode_block`'s
        /// events, whatever bytes follow it.
        #[test]
        fn prop_decode_event_matches_decode_block(draws in draws(), pad in 0usize..9) {
            let events = event_mix(&draws);
            let mut payload = encode_block(&events);
            prop_assert!(validate_block(&payload, events.len()).is_ok());
            let want = decode_block(&payload, events.len()).unwrap();
            payload.resize(payload.len() + pad, 0xFF);
            let (mut pos, mut prev_va) = (0, 0);
            let got: Vec<TraceEvent> = (0..events.len())
                .map(|_| decode_event(&payload, &mut pos, &mut prev_va))
                .collect();
            prop_assert_eq!(got, want);
        }

        /// The scan accepts exactly what `decode_block` accepts and
        /// reports its error, on damaged and on random payloads.
        #[test]
        fn prop_validate_block_agrees_with_decode_block(
            draws in draws(),
            flips in prop::collection::vec((any::<usize>(), 0u8..8), 0..3),
            cut in any::<usize>(),
            extra in 0usize..3,
            // Tags, page-size indexes and the varint bytes 0x00, 0x80
            // and 0xFF, so random strings often come close to valid.
            noise in prop::collection::vec(
                prop::sample::select(vec![0u8, 1, 2, 3, 4, 5, 6, 0x7F, 0x80, 0x81, 0xFF]),
                0..40,
            ),
        ) {
            let events = event_mix(&draws);
            let mut payload = encode_block(&events);
            for (at, bit) in flips {
                let at = at % payload.len();
                payload[at] ^= 1 << bit;
            }
            payload.truncate(payload.len() - cut % 2 * (cut % payload.len()));
            for (bytes, n) in [(&payload, events.len() + extra), (&noise, 1 + extra)] {
                prop_assert_eq!(validate_block(bytes, n), decode_block(bytes, n).map(drop));
            }
        }
    }

    proptest! {
        /// Four hashes in lockstep are four single hashes.
        #[test]
        fn prop_fnv_x4_matches_single(
            a in prop::collection::vec(any::<u8>(), 0..300),
            b in prop::collection::vec(any::<u8>(), 0..300),
            c in prop::collection::vec(any::<u8>(), 0..30),
            d in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let parts = [&a[..], &b[..], &c[..], &d[..]];
            prop_assert_eq!(fnv1a64_x4(parts), parts.map(fnv1a64));
        }
    }

    #[test]
    fn varint_scan_takes_the_fast_and_slow_paths() {
        // One-byte zero, 8-byte and 10-byte varints (both paths), and the
        // non-shortest and overlong forms each path must reject.
        for value in [0u64, 1 << 55, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, value);
            let len = buf.len();
            buf.extend_from_slice(&[0x7F; 8]);
            assert_eq!(skip_uvarint(&buf, 0), Some(len), "{value:#x}");
            let mut pos = 0;
            assert_eq!(uvarint_at(&buf, &mut pos), value);
            assert_eq!(pos, len);
        }
        assert_eq!(skip_uvarint(&[0x80, 0x00, 0, 0, 0, 0, 0, 0], 0), None);
        assert_eq!(skip_uvarint(&[0x80, 0x00], 0), None);
        assert_eq!(skip_uvarint(&[0xFF; 12], 0), None);
    }

    #[test]
    fn error_display_is_informative() {
        let e = NctError::ChecksumMismatch {
            thread: 3,
            block: 9,
        };
        assert!(e.to_string().contains("thread 3"));
        assert!(NctError::BadMagic.to_string().contains("magic"));
        assert!(NctError::UnsupportedVersion(4).to_string().contains('4'));
    }
}
