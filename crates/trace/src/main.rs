//! `nocstar-trace` — the NCT trace-file workbench.
//!
//! Subcommands (the on-disk format is specified in `TRACE_FORMAT.md`):
//!
//! * `record` — capture a synthetic preset workload into a `.nct` file,
//!   using the same defaults as the simulator (`--seed 0xcafe`, ASID 1,
//!   THP on) so a replay through `--trace-file` reproduces the
//!   live-generator run byte-for-byte.
//! * `convert` — translate between the JSON interchange format
//!   (`RecordedTrace`) and NCT, in either direction (by file extension).
//! * `inspect` — print header fields plus per-thread event breakdown,
//!   footprint, page-size split and exact reuse-distance statistics;
//!   `--windows <n>` adds a per-window footprint/reuse table (windows of
//!   `n` accesses) for sanity-checking sampled-replay window placement
//!   against trace phase behaviour (`SAMPLING.md §7`).
//!
//! Exit codes: 2 for usage errors, 1 for runtime failures (I/O, corrupt
//! files), 0 on success — including when the reader of standard output
//! closes it early (`inspect big.nct | head`).

use nocstar_types::{Asid, PageSize, ThreadId};
use nocstar_workloads::nct::NctFile;
use nocstar_workloads::preset::Preset;
use nocstar_workloads::recorded::RecordedTrace;
use nocstar_workloads::trace::TraceEvent;
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
nocstar-trace — record, convert and inspect NCT trace files (see TRACE_FORMAT.md)

USAGE:
    nocstar-trace record --preset <name> --out <file.nct>
                         [--threads <n>] [--events <n>] [--seed <u64>]
                         [--asid <u16>] [--no-thp] [--label <text>]
    nocstar-trace convert <in.{json|nct}> <out.{nct|json}>
                         [--thread <i>] [--label <text>]
    nocstar-trace inspect <file.nct> [--windows <accesses>]

Defaults: --threads 1, --events 10000, --seed 0xcafe, --asid 1, THP on,
label = preset name. `--seed` accepts decimal or 0x-prefixed hex.
Conversion direction follows the file extensions; NCT -> JSON needs
--thread when the file holds more than one stream. `inspect --windows n`
adds a per-window footprint/reuse table over windows of n accesses.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..], &mut out),
        Some("convert") => cmd_convert(&args[1..], &mut out),
        Some("inspect") => cmd_inspect(&args[1..], &mut out),
        Some("--help" | "-h" | "help") => writeln!(out, "{USAGE}"),
        _ => usage("expected a subcommand: record, convert or inspect"),
    };
    match result.and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader closed the pipe: it has all the output it wanted.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints a usage error and terminates with exit code 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`, if present (usage error when the flag is
/// the last argument).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    })
}

/// Parses a decimal or `0x`-prefixed hexadecimal unsigned integer.
fn parse_u64(text: &str) -> Result<u64, std::num::ParseIntError> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
}

/// Parses the value of `flag` as an integer, with a default (usage error
/// on malformed input).
fn flag_u64(args: &[String], flag: &str, default: u64) -> u64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => parse_u64(&v).unwrap_or_else(|e| usage(&format!("bad {flag} value {v:?}: {e}"))),
    }
}

/// Positional (non-flag) arguments: everything not consumed as a flag or
/// a flag's value.
fn positionals(args: &[String], value_flags: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            if value_flags.contains(&a.as_str()) {
                skip = true;
            }
            continue;
        }
        let _ = i;
        out.push(a.clone());
    }
    out
}

fn cmd_record(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let preset_name =
        flag_value(args, "--preset").unwrap_or_else(|| usage("record needs --preset <name>"));
    let preset = Preset::from_name(&preset_name)
        .unwrap_or_else(|| usage(&format!("unknown preset {preset_name:?}")));
    let path = PathBuf::from(
        flag_value(args, "--out").unwrap_or_else(|| usage("record needs --out <file.nct>")),
    );
    let threads = flag_u64(args, "--threads", 1);
    if threads == 0 || threads > u64::from(u16::MAX) {
        usage("--threads must be between 1 and 65535");
    }
    let events = flag_u64(args, "--events", 10_000);
    if events == 0 {
        usage("--events must be at least 1");
    }
    let seed = flag_u64(args, "--seed", 0xcafe);
    let asid = flag_u64(args, "--asid", 1);
    if asid == 0 || asid > u64::from(u16::MAX) {
        usage("--asid must be between 1 and 65535");
    }
    let thp = !args.iter().any(|a| a == "--no-thp");
    let label = flag_value(args, "--label").unwrap_or_else(|| preset.name().to_string());

    let spec = preset.spec();
    let traces: Vec<RecordedTrace> = (0..threads)
        .map(|t| {
            let mut src = spec.trace(Asid::new(asid as u16), ThreadId::new(t as usize), seed, thp);
            RecordedTrace::capture(&mut src, events as usize)
        })
        .collect();
    let file = NctFile::from_recorded(&traces, &label).map_err(io::Error::other)?;
    file.save(&path).map_err(io::Error::other)?;
    let bytes = std::fs::metadata(&path)?.len();
    writeln!(
        out,
        "recorded {threads} thread(s) x {events} events of {} -> {} ({bytes} bytes, {:.2} bytes/event)",
        preset.name(),
        path.display(),
        bytes as f64 / (threads * events) as f64,
    )?;
    Ok(())
}

/// File-extension-driven conversion direction.
enum Direction {
    JsonToNct,
    NctToJson,
}

fn direction(input: &Path, output: &Path) -> Direction {
    let ext = |p: &Path| {
        p.extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase)
    };
    match (ext(input).as_deref(), ext(output).as_deref()) {
        (Some("json"), Some("nct")) => Direction::JsonToNct,
        (Some("nct"), Some("json")) => Direction::NctToJson,
        _ => usage("convert needs one .json and one .nct path (direction follows the extensions)"),
    }
}

fn cmd_convert(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let pos = positionals(args, &["--thread", "--label"]);
    let [input, output] = pos.as_slice() else {
        usage("convert needs exactly two paths: <in> <out>");
    };
    let input = PathBuf::from(input);
    let output = PathBuf::from(output);
    match direction(&input, &output) {
        Direction::JsonToNct => {
            let text = std::fs::read_to_string(&input)
                .map_err(|e| io::Error::other(format!("{}: {e}", input.display())))?;
            let trace = RecordedTrace::from_json(&text).map_err(io::Error::other)?;
            let label = flag_value(args, "--label").unwrap_or_else(|| "recorded".to_string());
            let file = NctFile::from_recorded(std::slice::from_ref(&trace), &label)
                .map_err(io::Error::other)?;
            file.save(&output).map_err(io::Error::other)?;
            writeln!(
                out,
                "converted {} -> {} ({} events)",
                input.display(),
                output.display(),
                trace.len()
            )?;
        }
        Direction::NctToJson => {
            let file = NctFile::load(&input).map_err(io::Error::other)?;
            let thread = match flag_value(args, "--thread") {
                Some(v) => parse_u64(&v)
                    .ok()
                    .and_then(|n| u16::try_from(n).ok())
                    .unwrap_or_else(|| usage(&format!("bad --thread value {v:?}"))),
                None if file.threads().len() == 1 => 0,
                None => usage(&format!(
                    "the file holds {} thread streams; pick one with --thread <i>",
                    file.threads().len()
                )),
            };
            let trace = file.to_recorded(thread).map_err(io::Error::other)?;
            std::fs::write(&output, trace.to_json())?;
            writeln!(
                out,
                "converted {} (thread {thread}) -> {} ({} events)",
                input.display(),
                output.display(),
                trace.len()
            )?;
        }
    }
    Ok(())
}

fn cmd_inspect(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let pos = positionals(args, &["--windows"]);
    let [path] = pos.as_slice() else {
        usage("inspect needs exactly one path: <file.nct>");
    };
    let windows = flag_value(args, "--windows").map(|v| {
        let n = parse_u64(&v).unwrap_or_else(|e| usage(&format!("bad --windows value {v:?}: {e}")));
        if n == 0 {
            usage("--windows must be at least 1 access");
        }
        n
    });
    let file = NctFile::load(path).map_err(io::Error::other)?;
    let bytes = std::fs::metadata(path)?.len();
    writeln!(out, "file:    {path} ({bytes} bytes)")?;
    writeln!(out, "label:   {}", file.label())?;
    writeln!(out, "asid:    {}", file.asid().value())?;
    writeln!(out, "threads: {}", file.threads().len())?;
    for (t, stream) in file.threads().iter().enumerate() {
        let stats = StreamStats::of(&stream.events, &stream.superpage_frames);
        writeln!(out, "\nthread {t}: {} events", stream.events.len())?;
        writeln!(
            out,
            "  kinds:          {} reads, {} writes, {} ctx switches, {} remaps, {} promotes, {} demotes",
            stats.reads, stats.writes, stats.ctx_switches, stats.remaps, stats.promotes, stats.demotes
        )?;
        writeln!(
            out,
            "  footprint:      {} pages at backing granularity ({} x 4K + {} x 2M = {})",
            stats.pages_4k + stats.pages_2m,
            stats.pages_4k,
            stats.pages_2m,
            human_bytes(stats.footprint_bytes())
        )?;
        writeln!(
            out,
            "  accesses:       {:.1}% to 4K pages, {:.1}% to 2M pages",
            100.0 * stats.accesses_4k as f64 / stats.accesses().max(1) as f64,
            100.0 * stats.accesses_2m as f64 / stats.accesses().max(1) as f64,
        )?;
        match stats.reuse {
            None => writeln!(out, "  reuse distance: every access is a cold miss")?,
            Some(ref r) => writeln!(
                out,
                "  reuse distance: mean {:.1}, p50 {}, max {} (over 4K pages; {} cold)",
                r.mean, r.p50, r.max, r.cold
            )?,
        }
        if let Some(per_window) = windows {
            writeln!(out, "  windows of {per_window} accesses:")?;
            writeln!(
                out,
                "    window  events  accesses  distinct_4k  new_4k  reuse%"
            )?;
            for (w, win) in window_summaries(&stream.events, per_window)
                .iter()
                .enumerate()
            {
                writeln!(
                    out,
                    "    {w:<6}  {:<6}  {:<8}  {:<11}  {:<6}  {:.1}",
                    win.events,
                    win.accesses,
                    win.distinct,
                    win.new_pages,
                    100.0 * win.reused as f64 / win.accesses.max(1) as f64,
                )?;
            }
        }
    }
    Ok(())
}

/// One `inspect --windows` row: the footprint and reuse behaviour of a
/// window of consecutive accesses, for sanity-checking sampled-replay
/// window placement against trace phases (`SAMPLING.md §7`).
struct WindowSummary {
    /// All events that fell in the window (accesses plus OS events).
    events: u64,
    /// Memory accesses (the window boundary unit; the final window may be
    /// shorter than the requested size).
    accesses: u64,
    /// Distinct 4K pages touched within the window.
    distinct: u64,
    /// Pages whose *first touch in the whole stream* is in this window —
    /// growth of the cold footprint.
    new_pages: u64,
    /// Accesses to a page already touched earlier in the same window —
    /// the window's intra-window locality.
    reused: u64,
}

/// Splits a thread stream into consecutive windows of `per_window`
/// accesses (OS events ride with the window they fall in) and summarises
/// each; a final partial window is included when the stream length is not
/// a multiple.
fn window_summaries(events: &[TraceEvent], per_window: u64) -> Vec<WindowSummary> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut in_window = std::collections::BTreeSet::new();
    let mut cur = WindowSummary {
        events: 0,
        accesses: 0,
        distinct: 0,
        new_pages: 0,
        reused: 0,
    };
    for ev in events {
        cur.events += 1;
        if let TraceEvent::Access(a) = ev {
            cur.accesses += 1;
            let page = a.va.value() >> PageSize::Size4K.shift();
            if seen.insert(page) {
                cur.new_pages += 1;
            }
            if !in_window.insert(page) {
                cur.reused += 1;
            }
            if cur.accesses == per_window {
                cur.distinct = in_window.len() as u64;
                in_window.clear();
                out.push(std::mem::replace(
                    &mut cur,
                    WindowSummary {
                        events: 0,
                        accesses: 0,
                        distinct: 0,
                        new_pages: 0,
                        reused: 0,
                    },
                ));
            }
        }
    }
    if cur.events > 0 {
        cur.distinct = in_window.len() as u64;
        out.push(cur);
    }
    out
}

fn human_bytes(n: u64) -> String {
    if n >= 1 << 30 {
        format!("{:.2} GiB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.2} MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.2} KiB", n as f64 / (1u64 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

/// Exact reuse-distance summary (finite distances only).
struct ReuseStats {
    mean: f64,
    p50: u64,
    max: u64,
    /// Cold (first-touch) accesses, which have no reuse distance.
    cold: u64,
}

/// Everything `inspect` prints for one thread stream.
struct StreamStats {
    reads: u64,
    writes: u64,
    ctx_switches: u64,
    remaps: u64,
    promotes: u64,
    demotes: u64,
    /// Unique 4K pages touched that are not covered by a superpage frame.
    pages_4k: u64,
    /// Unique 2M superpage frames touched.
    pages_2m: u64,
    accesses_4k: u64,
    accesses_2m: u64,
    reuse: Option<ReuseStats>,
}

impl StreamStats {
    fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    fn footprint_bytes(&self) -> u64 {
        self.pages_4k * PageSize::Size4K.bytes() + self.pages_2m * PageSize::Size2M.bytes()
    }

    fn of(events: &[TraceEvent], superpage_frames: &std::collections::BTreeSet<u64>) -> Self {
        let mut s = StreamStats {
            reads: 0,
            writes: 0,
            ctx_switches: 0,
            remaps: 0,
            promotes: 0,
            demotes: 0,
            pages_4k: 0,
            pages_2m: 0,
            accesses_4k: 0,
            accesses_2m: 0,
            reuse: None,
        };
        let mut touched_4k = std::collections::BTreeSet::new();
        let mut touched_2m = std::collections::BTreeSet::new();
        let mut pages_in_order = Vec::new();
        for ev in events {
            match ev {
                TraceEvent::Access(a) => {
                    if a.is_write {
                        s.writes += 1;
                    } else {
                        s.reads += 1;
                    }
                    let frame_2m = a.va.value() >> PageSize::Size2M.shift();
                    if superpage_frames.contains(&frame_2m) {
                        s.accesses_2m += 1;
                        touched_2m.insert(frame_2m);
                    } else {
                        s.accesses_4k += 1;
                        touched_4k.insert(a.va.value() >> PageSize::Size4K.shift());
                    }
                    pages_in_order.push(a.va.value() >> PageSize::Size4K.shift());
                }
                TraceEvent::ContextSwitch => s.ctx_switches += 1,
                TraceEvent::Remap(_) => s.remaps += 1,
                TraceEvent::Promote(_) => s.promotes += 1,
                TraceEvent::Demote(_) => s.demotes += 1,
            }
        }
        s.pages_4k = touched_4k.len() as u64;
        s.pages_2m = touched_2m.len() as u64;
        s.reuse = reuse_distances(&pages_in_order);
        s
    }
}

/// A Fenwick (binary indexed) tree over `n` positions supporting point
/// add and prefix sum, both O(log n) — the standard exact-reuse-distance
/// engine.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based); 0 for `i == usize::MAX` sentinel.
    fn prefix(&self, i: usize) -> u64 {
        let mut sum = 0u64;
        let mut i = i + 1;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Exact per-access reuse distances over 4K page numbers: for each access,
/// the number of *distinct* pages touched since the previous access to the
/// same page (cold first touches are counted separately). O(n log n).
fn reuse_distances(pages: &[u64]) -> Option<ReuseStats> {
    let mut fen = Fenwick::new(pages.len());
    let mut last: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    let mut distances = Vec::new();
    let mut cold = 0u64;
    for (i, &page) in pages.iter().enumerate() {
        match last.insert(page, i) {
            None => cold += 1,
            Some(j) => {
                // Distinct pages in (j, i) = marked last-positions there.
                let upto_i = if i == 0 { 0 } else { fen.prefix(i - 1) };
                distances.push(upto_i - fen.prefix(j));
                fen.add(j, -1);
            }
        }
        fen.add(i, 1);
    }
    if distances.is_empty() {
        return None;
    }
    distances.sort_unstable();
    let mean = distances.iter().sum::<u64>() as f64 / distances.len() as f64;
    Some(ReuseStats {
        mean,
        p50: distances[distances.len() / 2],
        max: *distances.last().expect("nonempty"),
        cold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_prefix_sums_match_naive() {
        let values = [3i64, 0, 5, 1, 0, 2, 7];
        let mut fen = Fenwick::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            fen.add(i, v);
        }
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            acc += v as u64;
            assert_eq!(fen.prefix(i), acc);
        }
        fen.add(2, -5);
        assert_eq!(fen.prefix(6), acc - 5);
    }

    #[test]
    fn reuse_distances_match_hand_computation() {
        // A B C A B B: A reused over {B,C} = 2; B over {C,A} = 2; B over {} = 0.
        let pages = [10, 20, 30, 10, 20, 20];
        let r = reuse_distances(&pages).expect("has reuses");
        assert_eq!(r.cold, 3);
        assert_eq!(r.max, 2);
        assert_eq!(r.p50, 2); // sorted distances [0, 2, 2]
        assert!((r.mean - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_cold_streams_have_no_reuse_stats() {
        assert!(reuse_distances(&[1, 2, 3]).is_none());
        assert!(reuse_distances(&[]).is_none());
    }

    #[test]
    fn parse_u64_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("51966"), Ok(51966));
        assert_eq!(parse_u64("0xcafe"), Ok(0xcafe));
        assert_eq!(parse_u64("0XCAFE"), Ok(0xcafe));
        assert!(parse_u64("xyz").is_err());
    }

    #[test]
    fn positionals_skip_flags_and_their_values() {
        let args: Vec<String> = ["a.json", "--label", "x", "b.nct", "--flag"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(positionals(&args, &["--label"]), ["a.json", "b.nct"]);
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(80), "80 B");
        assert_eq!(human_bytes(2 * 1024 * 1024), "2.00 MiB");
    }

    #[test]
    fn window_summaries_track_footprint_growth_and_reuse() {
        use nocstar_types::time::Cycles;
        use nocstar_types::VirtAddr;
        use nocstar_workloads::trace::MemAccess;
        let access = |page: u64| {
            TraceEvent::Access(MemAccess {
                va: VirtAddr::new(page << 12),
                is_write: false,
                gap: Cycles::new(1),
            })
        };
        // Window 0: pages A B A (distinct 2, new 2, reused 1, + one OS event).
        // Window 1: pages B C (partial; distinct 2, new 1 — B is stream-old
        // but window-fresh, so not reused).
        let events = [
            access(10),
            TraceEvent::ContextSwitch,
            access(20),
            access(10),
            access(20),
            access(30),
        ];
        let wins = window_summaries(&events, 3);
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].events, 4);
        assert_eq!(wins[0].accesses, 3);
        assert_eq!(wins[0].distinct, 2);
        assert_eq!(wins[0].new_pages, 2);
        assert_eq!(wins[0].reused, 1);
        assert_eq!(wins[1].events, 2);
        assert_eq!(wins[1].accesses, 2);
        assert_eq!(wins[1].distinct, 2);
        assert_eq!(wins[1].new_pages, 1);
        assert_eq!(wins[1].reused, 0);
    }

    #[test]
    fn window_summaries_of_an_empty_stream_are_empty() {
        assert!(window_summaries(&[], 5).is_empty());
    }

    #[test]
    fn stream_stats_split_accesses_by_backing() {
        use nocstar_types::time::Cycles;
        use nocstar_types::VirtAddr;
        use nocstar_workloads::trace::MemAccess;
        let frames: std::collections::BTreeSet<u64> = [1u64].into_iter().collect();
        let access = |va: u64, is_write: bool| {
            TraceEvent::Access(MemAccess {
                va: VirtAddr::new(va),
                is_write,
                gap: Cycles::new(1),
            })
        };
        let events = [
            access(0x1000, false),    // 4K page
            access(0x20_0000, true),  // inside superpage frame 1
            access(0x20_1000, false), // same superpage frame
            TraceEvent::ContextSwitch,
        ];
        let s = StreamStats::of(&events, &frames);
        assert_eq!((s.reads, s.writes, s.ctx_switches), (2, 1, 1));
        assert_eq!((s.accesses_4k, s.accesses_2m), (1, 2));
        assert_eq!((s.pages_4k, s.pages_2m), (1, 1));
        assert_eq!(s.footprint_bytes(), 4096 + 2 * 1024 * 1024);
    }
}
