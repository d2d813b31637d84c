//! The `nocstar-lint` command-line driver.

use nocstar_lint::{float_accumulation::HINT, lint_files, sim_sources, RULE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p nocstar-lint [-- FILES...]

With no FILES, checks the src/ tree of every crate nocstar-lint.toml
classifies as sim; FILES are checked as sim code. Exit status: 0 clean,
1 on any finding, 2 on a usage or I/O error.
";

/// Lints and prints the findings; true when there are none.
fn run(args: &[String]) -> Result<bool, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = if args.is_empty() {
        sim_sources(&root)?
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    let report = lint_files(&root, &files)?;
    for f in &report.findings {
        let (rule, path, line) = (f.rule, f.path.display(), f.line);
        eprintln!("error[{rule}]: {path}:{line}: {}", f.message);
        if rule == RULE {
            eprintln!("    hint: {HINT}");
        }
    }
    let (scanned, found, waived) = (files.len(), report.findings.len(), report.suppressed);
    eprintln!(
        "nocstar-lint: {scanned} file(s) scanned, {found} finding(s), \
         {waived} justified suppression(s)"
    );
    Ok(found == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        let help = flag == "--help" || flag == "-h";
        if !help {
            eprintln!("nocstar-lint: unknown option `{flag}`");
        }
        eprint!("{USAGE}");
        return ExitCode::from(if help { 0 } else { 2 });
    }
    match run(&args) {
        Ok(clean) => ExitCode::from(u8::from(!clean)),
        Err(e) => {
            eprintln!("nocstar-lint: {e}");
            ExitCode::from(2)
        }
    }
}
