//! File descriptors held by NCT replay (Linux only: counts
//! `/proc/self/fd`). Opening a many-stream trace must not cost a
//! descriptor per stream, or a 1,024-core replay fails under the common
//! `ulimit -n 1024` default with "Too many open files".
//!
//! This file is its own test binary holding one test, so no other test
//! opens files while it counts.

#![cfg(target_os = "linux")]

use nocstar::prelude::*;
use nocstar::workloads::nct::{NctFile, ThreadStream};
use nocstar::workloads::trace::{MemAccess, TraceEvent};
use std::path::PathBuf;

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// A file of `streams` streams of `events` accesses each.
fn write_trace(name: &str, streams: usize, events: usize) -> PathBuf {
    let threads = (0..streams)
        .map(|t| ThreadStream {
            superpage_frames: Default::default(),
            events: (0..events)
                .map(|i| {
                    TraceEvent::Access(MemAccess {
                        va: VirtAddr::new(((t * events + i) as u64) << 12),
                        is_write: i % 3 == 0,
                        gap: Cycles::new(2),
                    })
                })
                .collect(),
        })
        .collect();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("nct_descriptors_{}_{name}", std::process::id()));
    NctFile::new(Asid::new(1), "fds", threads)
        .expect("assemble")
        .save(&path)
        .expect("save");
    path
}

#[test]
fn trace_file_assignments_hold_at_most_one_descriptor() {
    // 1,100 single-block streams, one hardware thread each: replayed from
    // memory, so no descriptor outlives the open.
    let path = write_trace("single.nct", 1100, 20);
    let before = open_descriptors();
    let config = SystemConfig::new(1100, TlbOrg::paper_private());
    let assignment = WorkloadAssignment::from_trace_file(&config, &path).expect("open");
    assert_eq!(assignment.len(), 1100);
    let held = open_descriptors().saturating_sub(before);
    assert!(
        held <= 2,
        "1,100 single-block streams hold {held} descriptors"
    );
    drop(assignment);
    std::fs::remove_file(&path).expect("remove");

    // Multi-block streams re-read later blocks through one shared handle,
    // closed with the last trace.
    let path = write_trace("multi.nct", 6, 5000);
    let before = open_descriptors();
    let config = SystemConfig::new(24, TlbOrg::paper_private());
    let assignment = WorkloadAssignment::from_trace_file(&config, &path).expect("open");
    let held = open_descriptors().saturating_sub(before);
    assert!(held <= 2, "24 multi-block traces hold {held} descriptors");
    drop(assignment);
    assert!(
        open_descriptors() <= before,
        "the shared handle outlived its traces"
    );
    std::fs::remove_file(&path).expect("remove");
}
