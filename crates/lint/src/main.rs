//! The `nocstar-lint` command-line driver.

use nocstar_lint::policy::Policy;
use nocstar_lint::{lint_source, lint_workspace, output, rules, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
nocstar-lint — determinism & simulator-invariant static analysis

USAGE:
    cargo run -p nocstar-lint [--] [OPTIONS] [FILES...]

With no FILES, lints every src/ tree the policy classifies. Explicit
FILES are linted under the class given by --class.

OPTIONS:
    --root <dir>       workspace root (default: the repo this binary lives in)
    --policy <path>    policy file (default: <root>/nocstar-lint.toml)
    --class <name>     lint class for explicitly listed FILES (default: sim)
    --json-out <path>  also write a JSON report
    --sarif-out <path> also write a SARIF 2.1.0 report
    --quiet            suppress per-finding human output (summary only)
    --list-rules       print the rule table and exit
    --help             this text

EXIT STATUS:
    0  no error-severity findings
    1  at least one error-severity finding
    2  usage, policy, or I/O error
";

struct Opts {
    root: PathBuf,
    policy: Option<PathBuf>,
    class: String,
    json_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    quiet: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Option<Opts>, String> {
    // Default root: this crate lives at <root>/crates/lint.
    let mut opts = Opts {
        root: Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
        policy: None,
        class: "sim".to_string(),
        json_out: None,
        sarif_out: None,
        quiet: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--list-rules" => {
                for rule in rules::registry() {
                    println!("{:<24} {}", rule.id(), rule.description());
                    println!("{:<24} fix: {}", "", rule.fix_hint());
                }
                println!(
                    "{:<24} suppression comment without a justification (always an error)",
                    rules::INVALID_SUPPRESSION
                );
                return Ok(None);
            }
            "--root" => opts.root = PathBuf::from(value("--root")?),
            "--policy" => opts.policy = Some(PathBuf::from(value("--policy")?)),
            "--class" => opts.class = value("--class")?,
            "--json-out" => opts.json_out = Some(PathBuf::from(value("--json-out")?)),
            "--sarif-out" => opts.sarif_out = Some(PathBuf::from(value("--sarif-out")?)),
            "--quiet" | "-q" => opts.quiet = true,
            f if !f.starts_with('-') => opts.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(Some(opts))
}

fn run(opts: &Opts) -> Result<Report, String> {
    let policy_path = opts
        .policy
        .clone()
        .unwrap_or_else(|| opts.root.join("nocstar-lint.toml"));
    let policy = Policy::load(&policy_path).map_err(|e| e.to_string())?;
    if opts.files.is_empty() {
        return lint_workspace(&opts.root, &policy);
    }
    let mut report = Report::default();
    for path in &opts.files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(&opts.root).unwrap_or(path);
        report.merge(lint_source(rel, &opts.class, &text, &policy));
    }
    report.sort();
    Ok(report)
}

fn write_artifact(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nocstar-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nocstar-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let text = output::human(&report);
    if opts.quiet {
        if let Some(summary) = text.lines().last() {
            eprintln!("{summary}");
        }
    } else {
        eprint!("{text}");
    }
    for (path, contents) in [
        (&opts.json_out, output::json(&report)),
        (&opts.sarif_out, output::sarif(&report)),
    ] {
        if let Some(path) = path {
            if let Err(e) = write_artifact(path, &contents) {
                eprintln!("nocstar-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if report.error_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
