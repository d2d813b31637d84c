//! Streaming replay of on-disk NCT trace files with bounded memory.
//!
//! [`FileTrace`] is the scalable counterpart of
//! [`RecordedTrace`](crate::recorded::RecordedTrace): instead of holding
//! every event in memory, it keeps the raw bytes of one block (at most
//! [`WRITER_BLOCK_EVENTS`](crate::nct::WRITER_BLOCK_EVENTS) events from
//! files this crate writes) plus per-block metadata, and decodes one
//! event per [`next_event`](TraceSource::next_event). Like
//! `RecordedTrace`, replay wraps back to the first event after the last,
//! so a finite capture drives an arbitrarily long simulation.
//!
//! [`NctReader`] is the one-pass way to replay many streams of one file:
//! it opens the file once, reads the header and directory once, and
//! validates each distinct stream section once, however many traces
//! replay it.
//!
//! The on-disk format is specified normatively in `TRACE_FORMAT.md`;
//! encoding primitives and the whole-file in-memory form live in
//! [`crate::nct`].

use crate::nct::{self, BlockHeader, NctError, NctHeader};
use crate::trace::{TraceEvent, TraceSource};
use nocstar_types::{Asid, PageSize, VirtAddr};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Read-buffer size of the validation pass.
const READ_BUFFER: usize = 64 << 10;

/// An NCT file opened for replay, its header read and checked.
///
/// [`streams`](Self::streams) validates the requested stream sections
/// in one pass over the file and hands out one [`FileTrace`] per
/// request. Each distinct section is validated once, with O(one block)
/// memory: its checksums, and a structural scan of its events that
/// builds none of them. Traces of the same stream share the validated
/// section, including the raw bytes of its first block.
///
/// Descriptor policy: the file is open only while the reader lives,
/// unless some stream has more than one block. Then every returned
/// trace shares one handle to the file, and the file closes when the
/// last of them is dropped. A file whose streams are single blocks is
/// replayed from memory and holds no descriptor at all.
#[derive(Debug)]
pub struct NctReader {
    file: Arc<SharedFile>,
    reader: BufReader<Locked>,
    /// Offset in the file of the next byte `reader` yields.
    pos: u64,
    file_len: u64,
    header: NctHeader,
}

impl NctReader {
    /// Opens the NCT file at `path` and reads its header.
    ///
    /// # Errors
    ///
    /// I/O failure, bad magic, unsupported version, or any other header
    /// defect, as a structured [`NctError`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, NctError> {
        let path = path.as_ref().to_path_buf();
        let file =
            File::open(&path).map_err(|e| nct::io_err(&format!("open {}", path.display()), &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| nct::io_err(&format!("stat {}", path.display()), &e))?
            .len();
        let file = Arc::new(SharedFile {
            path,
            file: Mutex::new(file),
        });
        let mut reader = BufReader::with_capacity(READ_BUFFER, Locked(Arc::clone(&file)));
        let header = NctHeader::read_from(&mut reader)?;
        Ok(Self {
            file,
            reader,
            pos: header.dir_entry_offset(0),
            file_len,
            header,
        })
    }

    /// The file's header.
    pub fn header(&self) -> &NctHeader {
        &self.header
    }

    /// Validates the sections of `streams` and returns one trace per
    /// entry, in order; a stream may be requested any number of times.
    ///
    /// # Errors
    ///
    /// The first defect found, walking `streams` in order:
    /// [`NctError::BadThreadIndex`] for a stream the file lacks, else the
    /// structured reason its directory entry or section is truncated or
    /// corrupt, or a block checksum mismatch.
    pub fn streams(mut self, streams: &[u16]) -> Result<Vec<FileTrace>, NctError> {
        let available = self.header.thread_count;
        let (Some(&lo), Some(&hi)) = (streams.iter().min(), streams.iter().max()) else {
            return Ok(Vec::new());
        };
        // Directory entries of the valid streams only, read in one go.
        let dir_hi = hi.min(available.saturating_sub(1));
        let entries = if lo < available {
            self.directory(lo, dir_hi)?
        } else {
            Vec::new()
        };
        let mut sections: Vec<Option<Opened>> = vec![None; entries.len()];
        // Sections whose first block's checksum is still to be checked:
        // four are checked at once, and all before any later defect is
        // reported, so the first defect in file order wins.
        let mut unchecked = Vec::with_capacity(4);
        for &stream in streams {
            let ix = usize::from(stream - lo);
            let found = match entries.get(ix) {
                None => Err(NctError::BadThreadIndex {
                    requested: stream,
                    available,
                }),
                Some(_) if sections[ix].is_some() => continue,
                Some(&(offset, len)) => self.section(stream, offset, len),
            };
            match found {
                Ok(opened) => {
                    unchecked.push(opened.clone());
                    sections[ix] = Some(opened);
                    if unchecked.len() == 4 {
                        check_first_blocks(&mut unchecked)?;
                    }
                }
                Err(e) => {
                    check_first_blocks(&mut unchecked)?;
                    return Err(e);
                }
            }
        }
        check_first_blocks(&mut unchecked)?;
        let label: Arc<str> = Arc::from(self.header.label);
        let asid = self.header.asid;
        Ok(streams
            .iter()
            .filter_map(|&stream| sections[usize::from(stream - lo)].clone())
            .map(|(section, first)| FileTrace::replay(section, first, asid, Arc::clone(&label)))
            .collect())
    }

    /// Reads the directory entries `(offset, length)` of streams
    /// `lo..=hi`.
    fn directory(&mut self, lo: u16, hi: u16) -> Result<Vec<(u64, u64)>, NctError> {
        self.seek(self.header.dir_entry_offset(lo))?;
        let mut raw = vec![0u8; usize::from(hi - lo + 1) * nct::DIR_ENTRY_LEN];
        nct::read_exact(&mut self.reader, &mut raw, "thread directory entry")?;
        self.pos += raw.len() as u64;
        Ok(raw
            .chunks_exact(nct::DIR_ENTRY_LEN)
            .map(|entry| {
                let mut word = [0u8; 8];
                word.copy_from_slice(&entry[0..8]);
                let offset = u64::from_le_bytes(word);
                word.copy_from_slice(&entry[8..16]);
                (offset, u64::from_le_bytes(word))
            })
            .collect())
    }

    /// Moves the read position to `to`, keeping buffered bytes when `to`
    /// lies among them.
    fn seek(&mut self, to: u64) -> Result<(), NctError> {
        // Both offsets are at most the file's length or a directory entry's
        // offset, far below 2^63, so their difference fits in an i64.
        self.reader
            .seek_relative(to.wrapping_sub(self.pos) as i64)
            .map_err(|e| nct::io_err(&format!("seek in {}", self.file.path.display()), &e))?;
        self.pos = to;
        Ok(())
    }

    /// Validates stream `thread`'s section of `len` bytes at `offset`,
    /// except for its first block's checksum when the rest is sound, and
    /// returns it with that block's payload.
    fn section(&mut self, thread: u16, offset: u64, len: u64) -> Result<Opened, NctError> {
        let mut first = Vec::new();
        let mut first_checksum = None;
        match self.read_section(thread, offset, len, &mut first, &mut first_checksum) {
            Ok(section) => Ok((Arc::new(section), Arc::from(first))),
            // The first block's checksum precedes every later check.
            Err(_) if first_checksum.is_some_and(|sum| nct::fnv1a64(&first) != sum) => {
                Err(NctError::ChecksumMismatch { thread, block: 0 })
            }
            Err(e) => Err(e),
        }
    }

    /// [`section`](Self::section), reading the first block's payload into
    /// `first` and, once read, its checksum into `first_checksum`.
    fn read_section(
        &mut self,
        thread: u16,
        offset: u64,
        len: u64,
        first: &mut Vec<u8>,
        first_checksum: &mut Option<u64>,
    ) -> Result<Section, NctError> {
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= self.file_len)
            .ok_or_else(|| {
                NctError::Truncated(format!("thread {thread} section extends past end of file"))
            })?;
        self.seek(offset)?;
        let mut bytes = SectionBytes {
            reader: &mut self.reader,
            left: len,
        };
        let superpage_frames = nct::decode_frame_table(thread, || bytes.varint())?;
        let event_count = bytes.varint()?;
        if event_count == 0 {
            return Err(NctError::Corrupt(format!(
                "thread {thread} has zero events"
            )));
        }
        let mut scratch = Vec::new();
        let mut blocks = Vec::new();
        let mut seen: u64 = 0;
        while seen < event_count {
            let block = blocks.len();
            let header = bytes.block_header(thread, block)?;
            let payload_offset = end - bytes.left;
            let payload = if block == 0 {
                &mut *first
            } else {
                &mut scratch
            };
            bytes.payload(header, payload, thread, block)?;
            if block == 0 {
                *first_checksum = Some(header.checksum);
            } else if nct::fnv1a64(payload) != header.checksum {
                return Err(NctError::ChecksumMismatch { thread, block });
            }
            if seen + u64::from(header.events) > event_count {
                return Err(NctError::Corrupt(format!(
                    "thread {thread} blocks hold more events than the declared {event_count}"
                )));
            }
            nct::validate_block(payload, header.events as usize)?;
            seen += u64::from(header.events);
            blocks.push(BlockMeta {
                payload_offset,
                header,
            });
        }
        if bytes.left != 0 {
            return Err(NctError::Corrupt(format!(
                "thread {thread} section has {} trailing byte(s)",
                bytes.left
            )));
        }
        self.pos = end;
        // `event_count > 0`, so the loop read at least one block.
        let first = blocks[0].header;
        Ok(Section {
            thread,
            superpage_frames: Arc::from(superpage_frames),
            event_count,
            first,
            reread: (blocks.len() > 1).then(|| Reread {
                file: Arc::clone(&self.file),
                blocks,
            }),
        })
    }
}

/// The bytes of one section, read in order through the validation pass's
/// buffer and bounded by the section's declared length.
struct SectionBytes<'a> {
    reader: &'a mut BufReader<Locked>,
    /// Bytes of the section not yet read.
    left: u64,
}

impl SectionBytes<'_> {
    /// The next varint of the section.
    fn varint(&mut self) -> Result<u64, NctError> {
        nct::read_uvarint_with(|| {
            if self.left == 0 {
                return Ok(None);
            }
            let buf = self
                .reader
                .fill_buf()
                .map_err(|e| nct::io_err("thread section", &e))?;
            let Some(&byte) = buf.first() else {
                return Ok(None);
            };
            self.reader.consume(1);
            self.left -= 1;
            Ok(Some(byte))
        })
    }

    /// Reads block `block`'s header.
    fn block_header(&mut self, thread: u16, block: usize) -> Result<BlockHeader, NctError> {
        if self.left < nct::BLOCK_HEADER_LEN as u64 {
            return Err(NctError::Truncated(format!(
                "thread {thread} block {block} header ends early"
            )));
        }
        let mut raw = [0u8; nct::BLOCK_HEADER_LEN];
        nct::read_exact(self.reader, &mut raw, "block header")?;
        self.left -= raw.len() as u64;
        BlockHeader::parse(&raw, thread, block)
    }

    /// Reads block `block`'s payload into `payload`.
    fn payload(
        &mut self,
        header: BlockHeader,
        payload: &mut Vec<u8>,
        thread: u16,
        block: usize,
    ) -> Result<(), NctError> {
        if self.left < u64::from(header.payload_len) {
            return Err(NctError::Truncated(format!(
                "thread {thread} block {block} payload ends early"
            )));
        }
        payload.clear();
        payload.resize(header.payload_len as usize, 0);
        nct::read_exact(self.reader, payload, "block payload")?;
        self.left -= u64::from(header.payload_len);
        Ok(())
    }
}

/// The open trace file, shared by the validation pass and every trace
/// that re-reads blocks from it.
#[derive(Debug)]
struct SharedFile {
    path: PathBuf,
    file: Mutex<File>,
}

impl SharedFile {
    fn lock(&self) -> MutexGuard<'_, File> {
        // A poisoned lock guards no invariant here: every read seeks first.
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reads and seeks the shared file under its lock.
#[derive(Debug)]
struct Locked(Arc<SharedFile>);

impl Read for Locked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.lock().read(buf)
    }
}

impl Seek for Locked {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.0.lock().seek(pos)
    }
}

/// Location and header of one validated block.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// Absolute file offset of the block payload (past its header).
    payload_offset: u64,
    header: BlockHeader,
}

/// One validated stream section, shared by every trace replaying it.
#[derive(Debug)]
struct Section {
    thread: u16,
    superpage_frames: Arc<[u64]>,
    event_count: u64,
    /// Block 0's header.
    first: BlockHeader,
    /// The blocks of a multi-block section, re-read as replay reaches
    /// them; `None` for one block, which replay keeps in memory.
    reread: Option<Reread>,
}

/// A validated section and its first block's payload.
type Opened = (Arc<Section>, Arc<[u8]>);

/// Checks the first-block checksums of up to four `sections` at once,
/// in order, and empties the list.
fn check_first_blocks(sections: &mut Vec<Opened>) -> Result<(), NctError> {
    let mut parts: [&[u8]; 4] = [&[]; 4];
    for (part, (_, first)) in parts.iter_mut().zip(sections.iter()) {
        *part = first;
    }
    let sums = nct::fnv1a64_x4(parts);
    let bad = sections
        .iter()
        .zip(sums)
        .find(|((section, _), sum)| section.first.checksum != *sum)
        .map(|((section, _), _)| section.thread);
    sections.clear();
    match bad {
        Some(thread) => Err(NctError::ChecksumMismatch { thread, block: 0 }),
        None => Ok(()),
    }
}

/// The blocks of a multi-block section and the file they are re-read
/// from.
#[derive(Debug)]
struct Reread {
    file: Arc<SharedFile>,
    blocks: Vec<BlockMeta>,
}

impl Reread {
    /// Re-reads block `block` of stream `thread` and checks it against
    /// the checksum validated at open.
    fn read(&self, thread: u16, block: usize) -> Result<Arc<[u8]>, NctError> {
        let meta = self.blocks[block];
        let mut payload = vec![0u8; meta.header.payload_len as usize];
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(meta.payload_offset))
                .map_err(|e| nct::io_err("seek to block payload", &e))?;
            nct::read_exact(&mut *file, &mut payload, "block payload")?;
        }
        if nct::fnv1a64(&payload) != meta.header.checksum {
            return Err(NctError::ChecksumMismatch { thread, block });
        }
        Ok(Arc::from(payload))
    }
}

/// One thread's stream of an NCT trace file, replayed as a
/// [`TraceSource`] with bounded memory.
///
/// [`open`](Self::open) fully validates the selected thread's section —
/// header, directory entry, frame table, every block's checksum and
/// event encoding — so replay itself cannot encounter malformed data.
/// Opening is `O(section bytes)` in time but `O(one block)` in memory.
/// To replay several streams of one file, [`NctReader::streams`] opens
/// and validates it once for all of them.
///
/// Replay decodes the validated raw bytes of the current block one
/// event per [`next_event`](TraceSource::next_event). A single-block
/// stream wraps in memory; a multi-block stream re-reads and
/// re-checksums each block from its file as replay reaches it, the
/// first one again after a wrap.
///
/// # Examples
///
/// Capture 100 events from a live generator, round-trip them through an
/// on-disk NCT file, and replay them event-for-event:
///
/// ```
/// use nocstar_workloads::file_trace::FileTrace;
/// use nocstar_workloads::nct::NctFile;
/// use nocstar_workloads::preset::Preset;
/// use nocstar_workloads::recorded::RecordedTrace;
/// use nocstar_workloads::trace::TraceSource;
/// use nocstar_types::{Asid, ThreadId};
///
/// let spec = Preset::Redis.spec();
/// let mut live = spec.trace(Asid::new(1), ThreadId::new(0), 7, true);
/// let recorded = RecordedTrace::capture(&mut live, 100);
///
/// let path = std::env::temp_dir().join("nocstar_file_trace_doctest.nct");
/// NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
///     .unwrap()
///     .save(&path)
///     .unwrap();
///
/// let mut replay = FileTrace::open(&path, 0).unwrap();
/// assert_eq!(replay.asid(), Asid::new(1));
/// assert_eq!(replay.event_count(), 100);
/// for expected in recorded.events() {
///     assert_eq!(&replay.next_event(), expected);
/// }
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct FileTrace {
    section: Arc<Section>,
    /// 2 MiB-aligned virtual frames (VA ≫ 21) backed by superpages,
    /// ascending; shared by the traces of one stream.
    superpage_frames: Arc<[u64]>,
    asid: Asid,
    label: Arc<str>,
    /// Index of the current block within the section.
    block_ix: usize,
    /// Raw payload of the current block.
    payload: Arc<[u8]>,
    /// Offset in `payload` of the next event.
    pos: usize,
    /// Events of the current block not yet served.
    left: u32,
    /// The block's previous-VA register (TRACE_FORMAT.md §3.5).
    prev_va: u64,
}

impl FileTrace {
    /// Opens thread `thread` of the NCT file at `path`, validating that
    /// thread's entire section up front.
    ///
    /// # Errors
    ///
    /// Any structured [`NctError`]: I/O failure, bad magic, unsupported
    /// version, out-of-range thread index, truncated or corrupt section,
    /// or a block checksum mismatch.
    pub fn open(path: impl AsRef<Path>, thread: u16) -> Result<Self, NctError> {
        let reader = NctReader::open(path)?;
        let available = reader.header().thread_count;
        reader
            .streams(&[thread])?
            .pop()
            .ok_or(NctError::BadThreadIndex {
                requested: thread,
                available,
            })
    }

    /// A trace positioned at the first event of `section`, whose block 0
    /// payload is `first`.
    fn replay(section: Arc<Section>, first: Arc<[u8]>, asid: Asid, label: Arc<str>) -> Self {
        Self {
            superpage_frames: Arc::clone(&section.superpage_frames),
            payload: first,
            left: section.first.events,
            section,
            asid,
            label,
            block_ix: 0,
            pos: 0,
            prev_va: 0,
        }
    }

    /// The workload label stored in the file header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total events in this thread's stream (replay loops past the end).
    pub fn event_count(&self) -> u64 {
        self.section.event_count
    }

    /// Moves to the next block, wrapping from the last to the first.
    ///
    /// # Panics
    ///
    /// Panics if that block no longer reads back as validated.
    fn next_block(&mut self) {
        let section = &*self.section;
        match &section.reread {
            Some(reread) => {
                let next = (self.block_ix + 1) % reread.blocks.len();
                match reread.read(section.thread, next) {
                    Ok(payload) => {
                        self.payload = payload;
                        self.left = reread.blocks[next].header.events;
                        self.block_ix = next;
                    }
                    Err(e) => panic!(
                        "NCT trace {} (thread {}) changed during replay: {e}",
                        reread.file.path.display(),
                        section.thread
                    ),
                }
            }
            // A single block: replay it again from memory.
            None => self.left = section.first.events,
        }
        self.pos = 0;
        self.prev_va = 0;
    }
}

impl TraceSource for FileTrace {
    /// The next event, wrapping to the first block after the last.
    ///
    /// # Panics
    ///
    /// Panics only if a later block of the underlying file is truncated
    /// or rewritten *between* [`open`](Self::open) and replay — every
    /// static defect is caught at open time with a structured
    /// [`NctError`]. A trace file must stay immutable while a simulation
    /// replays it.
    fn next_event(&mut self) -> TraceEvent {
        if self.left == 0 {
            self.next_block();
        }
        self.left -= 1;
        nct::decode_event(&self.payload, &mut self.pos, &mut self.prev_va)
    }

    fn backing(&self, va: VirtAddr) -> PageSize {
        if self
            .superpage_frames
            .binary_search(&(va.value() >> 21))
            .is_ok()
        {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        }
    }

    fn asid(&self) -> Asid {
        self.asid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nct::NctFile;
    use crate::preset::Preset;
    use crate::recorded::RecordedTrace;
    use nocstar_types::ThreadId;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nocstar_file_trace_{}_{name}", std::process::id()))
    }

    fn capture(preset: Preset, thread: usize, count: usize) -> RecordedTrace {
        let mut live = preset
            .spec()
            .trace(Asid::new(1), ThreadId::new(thread), 42, true);
        RecordedTrace::capture(&mut live, count)
    }

    #[test]
    fn replays_event_for_event_and_loops() {
        let recorded = capture(Preset::Redis, 0, 250);
        let path = scratch("loop.nct");
        NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .save(&path)
            .unwrap();
        let mut replay = FileTrace::open(&path, 0).unwrap();
        assert_eq!(replay.label(), "redis");
        assert_eq!(replay.event_count(), 250);
        // Two full passes: the second must repeat the first (wrap).
        for pass in 0..2 {
            for (i, expected) in recorded.events().iter().enumerate() {
                assert_eq!(&replay.next_event(), expected, "pass {pass}, event {i}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multi_block_streams_replay_in_order() {
        // More events than one writer block, so replay crosses block
        // boundaries and wraps from the last block to the first.
        let count = crate::nct::WRITER_BLOCK_EVENTS + 100;
        let recorded = capture(Preset::Gups, 0, count);
        let path = scratch("multiblock.nct");
        NctFile::from_recorded(std::slice::from_ref(&recorded), "gups")
            .unwrap()
            .save(&path)
            .unwrap();
        let mut replay = FileTrace::open(&path, 0).unwrap();
        for expected in recorded.events() {
            assert_eq!(&replay.next_event(), expected);
        }
        // Wrap: next event is the first again.
        assert_eq!(replay.next_event(), recorded.events()[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn backing_matches_recorded_trace() {
        let recorded = capture(Preset::MongoDb, 1, 2_000);
        let path = scratch("backing.nct");
        NctFile::from_recorded(std::slice::from_ref(&recorded), "mongodb")
            .unwrap()
            .save(&path)
            .unwrap();
        let replay = FileTrace::open(&path, 0).unwrap();
        for event in recorded.events() {
            if let TraceEvent::Access(a) = event {
                assert_eq!(replay.backing(a.va), recorded.backing(a.va));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn second_thread_stream_is_independent() {
        let t0 = capture(Preset::Canneal, 0, 120);
        let t1 = capture(Preset::Canneal, 1, 120);
        let path = scratch("threads.nct");
        NctFile::from_recorded(&[t0.clone(), t1.clone()], "canneal")
            .unwrap()
            .save(&path)
            .unwrap();
        let mut r1 = FileTrace::open(&path, 1).unwrap();
        for expected in t1.events() {
            assert_eq!(&r1.next_event(), expected);
        }
        assert!(matches!(
            FileTrace::open(&path, 2),
            Err(NctError::BadThreadIndex {
                requested: 2,
                available: 2
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_serves_repeated_streams_in_request_order() {
        let t0 = capture(Preset::Gups, 0, crate::nct::WRITER_BLOCK_EVENTS + 7);
        let t1 = capture(Preset::Gups, 1, 30);
        let path = scratch("reader.nct");
        NctFile::from_recorded(&[t0.clone(), t1.clone()], "gups")
            .unwrap()
            .save(&path)
            .unwrap();
        let reader = NctReader::open(&path).unwrap();
        assert_eq!(reader.header().thread_count, 2);
        let mut traces = reader.streams(&[1, 0, 1]).unwrap();
        assert_eq!(
            traces.iter().map(|t| t.section.thread).collect::<Vec<_>>(),
            [1, 0, 1]
        );
        assert!(traces.iter().all(|t| t.label() == "gups"));
        // Traces sharing a section keep their own positions.
        let (e0, e1) = (t0.events(), t1.events());
        for expected in &e1[..3] {
            assert_eq!(&traces[0].next_event(), expected);
        }
        for i in 0..2 * e1.len() {
            assert_eq!(traces[2].next_event(), e1[i % e1.len()]);
        }
        for i in 3..2 * e1.len() {
            assert_eq!(traces[0].next_event(), e1[i % e1.len()]);
        }
        for i in 0..2 * e0.len() + 1 {
            assert_eq!(traces[1].next_event(), e0[i % e0.len()]);
        }
        assert!(NctReader::open(&path)
            .unwrap()
            .streams(&[])
            .unwrap()
            .is_empty());
        assert!(matches!(
            NctReader::open(&path).unwrap().streams(&[0, 2]),
            Err(NctError::BadThreadIndex {
                requested: 2,
                available: 2
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_missing_and_truncated_files() {
        assert!(matches!(
            FileTrace::open(scratch("does_not_exist.nct"), 0),
            Err(NctError::Io(_))
        ));
        let recorded = capture(Preset::Redis, 0, 50);
        let path = scratch("truncated.nct");
        let mut bytes = NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .to_bytes();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTrace::open(&path, 0),
            Err(NctError::Truncated(_) | NctError::Io(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_payloads() {
        let recorded = capture(Preset::Redis, 0, 50);
        let path = scratch("corrupt.nct");
        let mut bytes = NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTrace::open(&path, 0),
            Err(NctError::ChecksumMismatch {
                thread: 0,
                block: 0
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
