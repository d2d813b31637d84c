//! Calibration sweep (not a paper figure): for every preset, report the
//! quantities the paper anchors its analysis on — L1 TLB miss rate,
//! private L2 TLB miss rate (target band 5–18 %), shared-TLB miss
//! elimination at 16/32/64 cores (target 70–90 % at higher core counts),
//! mean translation latency, and headline speedups — so workload
//! parameters can be tuned against them. Pass `--no-thp` for the 4 KiB-
//! only mode, `--quick` for short runs.

use crate::{parallel_map, settings, Effort, Flag};
use nocstar::prelude::*;

/// The flag `calibrate` accepts besides the harness's own.
pub const FLAGS: &[Flag] = &[Flag::Bare("--no-thp")];

/// Prints the calibration table (no CSV: it tunes presets, it is not a
/// result).
pub fn run(effort: Effort) {
    let thp = !settings().has("--no-thp");
    println!(
        "calibration at {} accesses/thread (warmup {}), THP {}\n",
        effort.accesses,
        effort.warmup,
        if thp { "on" } else { "off" }
    );

    let jobs: Vec<Preset> = Preset::ALL.to_vec();
    let rows = parallel_map(jobs, |&preset| {
        let run = |cores: usize, org: TlbOrg| {
            effort.run_with(cores, org, preset, |config| config.thp = thp)
        };
        let p16 = run(16, TlbOrg::paper_private());
        let p32 = run(32, TlbOrg::paper_private());
        let p64 = run(64, TlbOrg::paper_private());
        let i16 = run(16, TlbOrg::paper_ideal());
        let i32r = run(32, TlbOrg::paper_ideal());
        let i64r = run(64, TlbOrg::paper_ideal());
        let n16 = run(16, TlbOrg::paper_nocstar());
        let d16 = run(16, TlbOrg::paper_distributed());
        let m16 = run(16, TlbOrg::paper_monolithic(16));
        vec![
            preset.name().to_string(),
            format!("{:.1}", p16.l1.miss_rate() * 100.0),
            format!("{:.1}", p16.l2.miss_rate() * 100.0),
            format!("{:.0}", i16.misses_eliminated_vs(&p16)),
            format!("{:.0}", i32r.misses_eliminated_vs(&p32)),
            format!("{:.0}", i64r.misses_eliminated_vs(&p64)),
            format!("{:.1}", p16.translation_latency.mean()),
            format!("{:.3}", m16.speedup_vs(&p16)),
            format!("{:.3}", d16.speedup_vs(&p16)),
            format!("{:.3}", n16.speedup_vs(&p16)),
            format!("{:.3}", i16.speedup_vs(&p16)),
        ]
    });

    let mut table = Table::new([
        "workload",
        "L1miss%",
        "privL2miss%",
        "elim16%",
        "elim32%",
        "elim64%",
        "xlat(priv)",
        "mono",
        "dist",
        "nocstar",
        "ideal",
    ]);
    for row in rows {
        table.row(row);
    }
    println!("{table}");
}
