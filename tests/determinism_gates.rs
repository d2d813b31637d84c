//! Coverage invariants of the determinism gates (DESIGN.md §10). Every
//! crate under `crates/` is classified `sim` or `tools` here, so a new
//! crate cannot silently escape the sim class. Each sim crate must take
//! the workspace `clippy.toml` unchanged and deny `unwrap`/`expect` in its
//! library code, and every `clippy.toml` must keep the entropy ban.

use std::path::{Path, PathBuf};

/// Crates whose code can affect a SimReport (`.` is the facade).
const SIM_CRATES: &[&str] = &[
    ".",
    "crates/core",
    "crates/energy",
    "crates/faults",
    "crates/json",
    "crates/mem",
    "crates/noc",
    "crates/stats",
    "crates/tlb",
    "crates/types",
    "crates/workloads",
];

/// Harness crates that drive runs. One may carry its own `clippy.toml`
/// (crates/bench times runs with the host clock), but it must still ban
/// `RandomState`: harness randomness is seeded too.
const TOOLS_CRATES: &[&str] = &["crates/bench", "crates/trace"];

/// The line every sim crate's lib.rs carries.
const UNWRAP_DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";

/// What every `clippy.toml` in the repository must ban.
const ENTROPY_BAN: &str = "\"std::collections::hash_map::RandomState\"";

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_crate_is_classified_once() {
    let mut on_disk = vec![".".to_string()];
    for entry in std::fs::read_dir(workspace_root().join("crates")).expect("crates/ listable") {
        let path = entry.expect("entry readable").path();
        if path.join("Cargo.toml").is_file() {
            let name = path.file_name().expect("named").to_string_lossy();
            on_disk.push(format!("crates/{name}"));
        }
    }
    on_disk.sort();
    let mut classified: Vec<&str> = SIM_CRATES.iter().chain(TOOLS_CRATES).copied().collect();
    classified.sort();
    assert_eq!(
        classified, on_disk,
        "every crate under crates/ and the facade must sit in exactly one of \
         SIM_CRATES and TOOLS_CRATES, so none can escape the determinism gates"
    );
}

#[test]
fn sim_crates_take_the_workspace_clippy_config_and_deny_unwrap() {
    let root = workspace_root();
    assert!(
        root.join("clippy.toml").is_file(),
        "the workspace clippy.toml is missing"
    );
    for dir in SIM_CRATES {
        let krate = root.join(dir);
        if *dir != "." {
            for name in ["clippy.toml", ".clippy.toml"] {
                assert!(
                    !krate.join(name).exists(),
                    "sim crate `{dir}` must not carry its own {name}: it would \
                     replace the workspace determinism bans"
                );
            }
        }
        let lib = std::fs::read_to_string(krate.join("src/lib.rs")).expect("lib.rs readable");
        assert!(
            lib.lines().any(|l| l.trim() == UNWRAP_DENY),
            "sim crate `{dir}` must carry `{UNWRAP_DENY}` in its lib.rs"
        );
    }
}

#[test]
fn every_clippy_config_keeps_the_entropy_ban() {
    let root = workspace_root();
    let mut configs = vec![root.join("clippy.toml")];
    for parent in ["crates", "third_party"] {
        for entry in std::fs::read_dir(root.join(parent)).expect("listable") {
            let dir = entry.expect("entry readable").path();
            configs.extend(
                ["clippy.toml", ".clippy.toml"]
                    .iter()
                    .map(|name| dir.join(name))
                    .filter(|p| p.exists()),
            );
        }
    }
    for config in &configs {
        let text = std::fs::read_to_string(config).expect("clippy.toml readable");
        assert!(
            text.contains(ENTROPY_BAN),
            "{} must keep RandomState in disallowed-types: randomness is seeded everywhere",
            config.display()
        );
    }
    let root_config = std::fs::read_to_string(&configs[0]).expect("readable");
    for banned in [
        "\"std::collections::HashMap\"",
        "\"std::collections::HashSet\"",
        "\"std::time::Instant\"",
        "\"std::time::SystemTime\"",
        "\"std::time::Instant::now\"",
        "\"std::time::SystemTime::now\"",
    ] {
        assert!(
            root_config.contains(banned),
            "the workspace clippy.toml must ban {banned}"
        );
    }
}

#[test]
fn unwrap_waivers_are_justified_expectations() {
    // A waiver must be `#[expect(…, reason = "…")]`: an `allow` would
    // outlive the unwrap it excused, and an unexplained one says nothing.
    let root = workspace_root();
    let mut waivers = 0;
    for dir in SIM_CRATES {
        let mut files = Vec::new();
        rs_files(&root.join(dir).join("src"), &mut files);
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable");
            for attr in text.split("#[").skip(1) {
                let attr = attr.split(")]").next().unwrap_or("");
                if attr.contains("clippy::unwrap_used") || attr.contains("clippy::expect_used") {
                    waivers += 1;
                    assert!(
                        attr.starts_with("expect(") && attr.contains("reason = \""),
                        "{}: unwrap/expect waivers must be `#[expect(…, reason = \"…\")]`: #[{attr})]",
                        path.display()
                    );
                }
            }
        }
    }
    assert!(
        waivers > 0,
        "no waiver found: is the scan looking in the right place?"
    );
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("listable") {
        let path = entry.expect("entry readable").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
