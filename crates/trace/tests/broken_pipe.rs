//! A reader that closes standard output early (`nocstar-trace inspect
//! big.nct | head -2`) ends the CLI normally: exit code 0, no panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn inspect_into_a_closed_pipe_exits_cleanly() {
    let exe = env!("CARGO_BIN_EXE_nocstar-trace");
    let nct = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("broken_pipe.nct");
    let nct = nct.to_str().expect("utf-8 temp path");
    let recorded = Command::new(exe)
        .args([
            "record",
            "--preset",
            "gups",
            "--threads",
            "2",
            "--events",
            "20000",
        ])
        .args(["--out", nct])
        .output()
        .expect("run record");
    assert!(recorded.status.success(), "{recorded:?}");

    // One row per 10 accesses: far more than a pipe buffer holds, so the
    // CLI is still writing when the pipe closes.
    let mut child = Command::new(exe)
        .args(["inspect", nct, "--windows", "10"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn inspect");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("file:"), "{first:?}");

    let done = child.wait_with_output().expect("wait for inspect");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(done.status.success(), "{:?}: {stderr}", done.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
