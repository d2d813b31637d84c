//! Coverage invariants of the determinism gates. `nocstar-lint.toml`
//! must classify every workspace crate, so a new crate cannot silently
//! escape the sim class, and the sim crates cannot be declassified. Each
//! sim crate must take the workspace `clippy.toml` unchanged and deny
//! `unwrap`/`expect` in its library code, every `clippy.toml` must keep
//! the entropy ban, and the tree must pass the float-accumulation lint.

use nocstar_lint::{lint_files, parse_classes, sim_sources};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn shipped_classes() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(workspace_root().join("nocstar-lint.toml"))
        .expect("nocstar-lint.toml readable");
    parse_classes(&text).expect("shipped classification parses")
}

fn sim_crates() -> Vec<String> {
    let classes = shipped_classes();
    classes
        .into_iter()
        .filter(|(_, class)| class == "sim")
        .map(|(dir, _)| dir)
        .collect()
}

/// Crates whose code can affect a SimReport; these must stay in the
/// `sim` class no matter how the classification is edited.
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

/// The line every sim crate's lib.rs carries.
const UNWRAP_DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";

/// What every `clippy.toml` in the repository must ban.
const ENTROPY_BAN: &str = "\"std::collections::hash_map::RandomState\"";

#[test]
fn every_workspace_crate_is_classified() {
    let root = workspace_root();
    let classes = shipped_classes();
    let mut entries: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ listable")
        .map(|e| e.expect("entry readable").path())
        .collect();
    entries.sort();
    let missing: Vec<String> = entries
        .iter()
        .filter(|path| path.join("Cargo.toml").is_file())
        .map(|path| format!("crates/{}", path.file_name().unwrap().to_string_lossy()))
        .filter(|rel| !classes.contains_key(rel))
        .collect();
    assert!(
        classes.contains_key("."),
        "the root facade crate must be classified (add `\".\"` to [crates])"
    );
    assert!(
        missing.is_empty(),
        "crates missing from nocstar-lint.toml [crates] (classify each as \
         `sim` or `tools` so it cannot escape the determinism gates): {missing:?}"
    );
}

#[test]
fn classified_dirs_all_exist() {
    let root = workspace_root();
    for dir in shipped_classes().keys() {
        assert!(
            root.join(dir).join("src").is_dir(),
            "nocstar-lint.toml classifies `{dir}` but it has no src/ directory"
        );
    }
}

#[test]
fn sim_crates_cannot_be_declassified() {
    let classes = shipped_classes();
    for dir in SIM_CRATES {
        assert_eq!(
            classes.get(*dir).map(String::as_str),
            Some("sim"),
            "`{dir}` holds simulation state and must stay in the sim class"
        );
    }
}

#[test]
fn sim_crates_take_the_workspace_clippy_config_and_deny_unwrap() {
    let root = workspace_root();
    assert!(
        root.join("clippy.toml").is_file(),
        "the workspace clippy.toml is missing"
    );
    for dir in sim_crates() {
        let krate = root.join(&dir);
        if dir != "." {
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
    for dir in sim_crates() {
        let mut files = Vec::new();
        rs_files(&root.join(&dir).join("src"), &mut files);
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

#[test]
fn repo_tree_lints_clean() {
    let root = workspace_root();
    let files = sim_sources(&root).expect("classified");
    let report = lint_files(&root, &files).expect("lints");
    let errors: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{} {} — {}", f.path.display(), f.line, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "the repo must lint clean (fix or justify each):\n{}",
        errors.join("\n")
    );
    assert!(
        files.len() > 60,
        "suspiciously few sim files scanned ({}): classification broke?",
        files.len()
    );
}
