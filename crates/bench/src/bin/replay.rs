//! Runs one simulation (optionally from a captured `.nct` trace via
//! `--trace-file`) and saves the full report JSON; see `experiments::replay`.
use nocstar_bench::experiments::replay;

fn main() {
    nocstar_bench::settings_accepting(replay::FLAGS);
    replay::run(nocstar_bench::Effort::from_env());
}
