//! `nocstar-bench <step> [flags]`: regenerates one figure or table of the
//! paper, or every one with `all` (see `experiments::STEPS`); `--quick`
//! runs at CI size. A bad command line exits with code 2.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    nocstar_bench::experiments::run_command_line(&args);
}
