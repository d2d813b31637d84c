//! One module per paper figure/table, robustness study and tool; each
//! exposes `run(effort)`, which prints the regenerated rows and saves a
//! CSV under `bench_results/`. [`STEPS`] lists them for the
//! `nocstar-bench` binary, whose command line [`run_command_line`] runs.
//!
//! See DESIGN.md §3 for the experiment index mapping figures to modules.

use crate::{bail, parallel_map, settings, Effort, Flag, Settings, SETTINGS};
use nocstar::prelude::*;
use std::time::Instant;

/// One experiment of the `nocstar-bench` binary: `nocstar-bench <name>
/// [flags]` runs it.
#[derive(Debug)]
pub struct Step {
    /// The name that selects it on the command line.
    pub name: &'static str,
    /// Regenerates its tables at the given effort under the process-wide
    /// [`settings`].
    pub run: fn(Effort),
    /// The flags it accepts besides the harness's own. Only the tools
    /// (`replay`, `calibrate`) have any, and `all` runs neither.
    pub flags: &'static [Flag],
    /// Whether it is a robustness study, which sets faults, recovery and
    /// sampling per run itself and so refuses `--faults`, `--recovery` and
    /// `--sample` (see [`Settings::study_flag`]).
    pub study: bool,
}

const fn step(name: &'static str, run: fn(Effort)) -> Step {
    Step {
        name,
        run,
        flags: &[],
        study: false,
    }
}

/// Every step, in the order `all` runs those without flags of their own.
pub const STEPS: [Step; 28] = [
    step("table1", table1::run),
    step("table2", table2::run),
    step("fig03", fig03::run),
    step("fig09", fig09::run),
    step("fig11a", fig11a::run),
    step("fig11b", fig11b::run),
    step("fig11c", fig11c::run),
    step("fig02", fig02::run),
    step("fig04", fig04::run),
    step("fig05", fig05::run),
    step("fig06", fig06::run),
    step("fig12", fig12::run),
    step("fig13", fig13::run),
    step("fig14", fig14::run),
    step("fig15", fig15::run),
    step("fig16", fig16::run),
    step("fig17", fig17::run),
    step("fig19", fig19::run),
    step("slice_ubench", slice_ubench::run),
    step("table3", table3::run),
    step("ablation", ablation::run),
    step("scaleup", scaleup::run),
    step("fig18", fig18::run),
    Step {
        study: true,
        ..step("faultsweep", faultsweep::run)
    },
    Step {
        study: true,
        ..step("recovery", recovery::run)
    },
    Step {
        study: true,
        ..step("sampled", sampled::run)
    },
    Step {
        flags: replay::FLAGS,
        ..step("replay", replay::run)
    },
    Step {
        flags: calibrate::FLAGS,
        ..step("calibrate", calibrate::run)
    },
];

/// The steps `all` runs, in order: every step without flags of its own.
fn all_steps() -> impl Iterator<Item = &'static Step> {
    STEPS.iter().filter(|s| s.flags.is_empty())
}

/// Runs the `nocstar-bench` command line `args` (without the program
/// name), `<step> [flags]`, where `<step>` is a [`STEPS`] name or `all`.
/// A bad command line exits with code 2 before anything runs.
pub fn run_command_line(args: &[String]) {
    let (step, parsed) = parse_command_line(args).unwrap_or_else(|e| bail(e));
    let effort = Effort::for_settings(&parsed);
    SETTINGS
        .set(parsed)
        .expect("the settings are set once, before any step runs");
    match step {
        Some(step) => (step.run)(effort),
        None => run_all(effort),
    }
}

/// The step `args` names (`None` for `all`) and its settings.
///
/// # Errors
///
/// A message naming the problem: no step, an unknown step (listing the
/// valid ones), a flag the step does not take, a malformed flag value, or
/// a study given a flag it refuses.
fn parse_command_line(args: &[String]) -> Result<(Option<&'static Step>, Settings), String> {
    let valid = || {
        let names: Vec<&str> = STEPS.iter().map(|s| s.name).collect();
        format!("expected all or one of {}", names.join(", "))
    };
    let (name, rest) = match args.split_first() {
        Some((name, rest)) if !name.starts_with('-') => (name.as_str(), rest),
        _ => {
            return Err(format!(
                "no step given (usage: <step> [flags]); {}",
                valid()
            ))
        }
    };
    let step = match name {
        "all" => None,
        _ => Some(
            STEPS
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown step {name:?}; {}", valid()))?,
        ),
    };
    let parsed =
        Settings::parse(rest, step.map_or(&[], |s| s.flags)).map_err(|e| format!("{name}: {e}"))?;
    if let (Some(true), Some(flag)) = (step.map(|s| s.study), parsed.study_flag()) {
        return Err(format!(
            "{name} sets its own fault plans, recovery and sampling per run; drop {flag}"
        ));
    }
    Ok((step, parsed))
}

/// `all`: each of [`all_steps`] in turn, timed on stderr. The studies are
/// skipped under a flag they refuse.
fn run_all(effort: Effort) {
    let t0 = Instant::now();
    for step in all_steps() {
        if let (true, Some(flag)) = (step.study, settings().study_flag()) {
            eprintln!("[{} skipped: it refuses {flag}]", step.name);
            continue;
        }
        let t = Instant::now();
        (step.run)(effort);
        eprintln!("[{} done in {:.1}s]", step.name, t.elapsed().as_secs_f32());
    }
    eprintln!("all experiments done in {:.1}s", t0.elapsed().as_secs_f32());
}

/// Per-workload speedups of `orgs` versus the private baseline, plus an
/// average row — the shape of Figs 12, 13 and 15.
pub(crate) fn speedup_table(
    effort: Effort,
    cores: usize,
    orgs: &[(&str, TlbOrg)],
    thp: bool,
) -> Table {
    let jobs: Vec<Preset> = Preset::ALL.to_vec();
    let rows = parallel_map(jobs, |&preset| {
        let baseline = effort.run_with(cores, TlbOrg::paper_private(), preset, |c| c.thp = thp);
        let speeds: Vec<f64> = orgs
            .iter()
            .map(|&(_, org)| {
                effort
                    .run_with(cores, org, preset, |c| c.thp = thp)
                    .speedup_vs(&baseline)
            })
            .collect();
        (preset, speeds)
    });
    let mut headers = vec!["workload".to_string()];
    headers.extend(orgs.iter().map(|(name, _)| name.to_string()));
    let mut table = Table::new(headers);
    let mut columns = vec![Vec::new(); orgs.len()];
    for (preset, speeds) in rows {
        table.row_values(preset.name(), &speeds);
        for (c, s) in columns.iter_mut().zip(&speeds) {
            c.push(*s);
        }
    }
    let avgs: Vec<f64> = columns
        .iter()
        .map(|c| Summary::of(c.clone()).mean())
        .collect();
    table.row_values("average", &avgs);
    table
}

pub mod ablation;
pub mod calibrate;
pub mod faultsweep;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig09;
pub mod fig11a;
pub mod fig11b;
pub mod fig11c;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod recovery;
pub mod replay;
pub mod sampled;
pub mod scaleup;
pub mod slice_ubench;
pub mod table1;
pub mod table2;
pub mod table3;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Option<&'static Step>, Settings), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_command_line(&args)
    }

    fn names(steps: impl Iterator<Item = &'static Step>) -> Vec<&'static str> {
        steps.map(|s| s.name).collect()
    }

    #[test]
    fn step_names_are_unique() {
        let mut sorted = names(STEPS.iter());
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), STEPS.len());
        assert!(!sorted.contains(&"all"));
    }

    #[test]
    fn every_experiment_module_with_a_run_is_a_step() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut modules = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if std::fs::read_to_string(&path)
                .unwrap()
                .contains("\npub fn run(")
            {
                modules.push(path.file_stem().unwrap().to_str().unwrap().to_owned());
            }
        }
        modules.sort_unstable();
        let mut steps = names(STEPS.iter());
        steps.sort_unstable();
        assert_eq!(modules, steps);
    }

    #[test]
    fn all_runs_the_paper_steps_and_studies_in_order() {
        assert_eq!(
            names(all_steps()),
            [
                "table1",
                "table2",
                "fig03",
                "fig09",
                "fig11a",
                "fig11b",
                "fig11c",
                "fig02",
                "fig04",
                "fig05",
                "fig06",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig19",
                "slice_ubench",
                "table3",
                "ablation",
                "scaleup",
                "fig18",
                "faultsweep",
                "recovery",
                "sampled",
            ]
        );
        let (step, settings) = parse("all --quick").unwrap();
        assert!(step.is_none() && settings.quick);
    }

    #[test]
    fn the_studies_are_faultsweep_recovery_and_sampled() {
        let studies = names(STEPS.iter().filter(|s| s.study));
        assert_eq!(studies, ["faultsweep", "recovery", "sampled"]);
        for study in studies {
            let err = parse(&format!("{study} --quick --faults deny@0-10")).unwrap_err();
            assert!(err.contains(study) && err.contains("--faults"), "{err}");
        }
        assert!(parse("all --sample 1000:60:30").is_ok());
        assert!(parse("fig12 --recovery all").is_ok());
    }

    #[test]
    fn a_steps_own_flag_is_refused_by_every_other_step() {
        let err = parse("fig02 --quick --cores 4").unwrap_err();
        assert!(err.contains("fig02") && err.contains("--cores"), "{err}");
        for owner in &STEPS {
            for &flag in owner.flags {
                let (name, arg) = match flag {
                    Flag::Bare(name) => (name, name.to_owned()),
                    Flag::Value(name) => (name, format!("{name} 4")),
                };
                assert!(parse(&format!("{} {arg}", owner.name)).is_ok(), "{arg}");
                for other in STEPS.iter().filter(|s| s.name != owner.name) {
                    let err = parse(&format!("{} {arg}", other.name)).unwrap_err();
                    assert!(err.contains(name), "{}: {err}", other.name);
                }
                assert!(parse(&format!("all {arg}")).unwrap_err().contains(name));
            }
        }
    }

    #[test]
    fn no_step_or_an_unknown_step_is_an_error_listing_the_steps() {
        for line in ["", "--quick fig02", "fig99 --quick"] {
            let err = parse(line).unwrap_err();
            assert!(
                err.contains("all") && err.contains("fig02") && err.contains("calibrate"),
                "{err}"
            );
        }
        assert!(parse("").unwrap_err().contains("no step"));
        assert!(parse("fig99").unwrap_err().contains("\"fig99\""));
    }
}
