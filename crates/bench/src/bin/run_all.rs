//! Regenerates every figure and table of the paper in sequence
//! (`--quick` for an abbreviated pass); results land in `bench_results/`.
use nocstar_bench::experiments as ex;
use nocstar_bench::{settings, Effort};

type Step = (&'static str, fn(Effort));

fn main() {
    let effort = Effort::from_env();
    let t0 = std::time::Instant::now();
    let steps: [Step; 26] = [
        ("table1", ex::table1::run),
        ("table2", ex::table2::run),
        ("fig03", ex::fig03::run),
        ("fig09", ex::fig09::run),
        ("fig11a", ex::fig11a::run),
        ("fig11b", ex::fig11b::run),
        ("fig11c", ex::fig11c::run),
        ("fig02", ex::fig02::run),
        ("fig04", ex::fig04::run),
        ("fig05", ex::fig05::run),
        ("fig06", ex::fig06::run),
        ("fig12", ex::fig12::run),
        ("fig13", ex::fig13::run),
        ("fig14", ex::fig14::run),
        ("fig15", ex::fig15::run),
        ("fig16", ex::fig16::run),
        ("fig17", ex::fig17::run),
        ("fig19", ex::fig19::run),
        ("slice_ubench", ex::slice_ubench::run),
        ("table3", ex::table3::run),
        ("ablation", ex::ablation::run),
        ("scaleup", ex::scaleup::run),
        ("fig18", ex::fig18::run),
        ("faultsweep", ex::faultsweep::run),
        ("recovery", ex::recovery::run),
        ("sampled", ex::sampled::run),
    ];
    for (name, step) in steps {
        // The robustness studies set these flags per run themselves.
        if let Some(flag) = settings().study_flag() {
            if matches!(name, "faultsweep" | "recovery" | "sampled") {
                eprintln!("[{name} skipped: it refuses {flag}]");
                continue;
            }
        }
        let t = std::time::Instant::now();
        step(effort);
        eprintln!("[{name} done in {:.1}s]", t.elapsed().as_secs_f32());
    }
    eprintln!("all experiments done in {:.1}s", t0.elapsed().as_secs_f32());
}
