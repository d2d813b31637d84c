//! Integration tests pinning the paper's qualitative claims, so a
//! regression that flips a headline conclusion fails the suite (absolute
//! numbers are asserted loosely; EXPERIMENTS.md records the exact values).

use nocstar::noc::circuit::{AcquireMode, CircuitFabric};
use nocstar::noc::mesh::MeshNoc;
use nocstar::noc::traffic::run_uniform_random;
use nocstar::prelude::*;

fn speedup(cores: usize, org: TlbOrg, preset: Preset) -> f64 {
    let go = |org: TlbOrg| {
        let config = SystemConfig::new(cores, org);
        Simulation::new(config, WorkloadAssignment::preset(&config, preset))
            .run_measured(4_000, 6_000)
    };
    go(org).speedup_vs(&go(TlbOrg::paper_private()))
}

#[test]
fn claim_nocstar_beats_private_and_distributed_beats_monolithic() {
    // §V performance: NOCSTAR > private; distributed > monolithic.
    for preset in [Preset::Canneal, Preset::Gups] {
        let nocstar = speedup(16, TlbOrg::paper_nocstar(), preset);
        let distributed = speedup(16, TlbOrg::paper_distributed(), preset);
        let monolithic = speedup(16, TlbOrg::paper_monolithic(16), preset);
        assert!(nocstar > 1.0, "{preset}: nocstar {nocstar}");
        assert!(nocstar > distributed, "{preset}");
        assert!(distributed > monolithic, "{preset}");
        assert!(monolithic < 1.0, "{preset}: monolithic should degrade");
    }
}

#[test]
fn claim_monolithic_loses_at_realistic_latency_and_gains_as_latency_falls() {
    // Fig 4, at 16 cores: a monolithic shared TLB behind a free
    // interconnect, at a realistic 25-cycle access, degrades performance
    // against private L2 TLBs, and cutting its latency to an unrealizable
    // 9 cycles does not make it worse.
    let monolithic = |latency| TlbOrg::Monolithic {
        entries_per_core: 1024,
        banks: 4,
        net: MonolithicNet::Ideal,
        latency_override: Some(Cycles::new(latency)),
    };
    for preset in [Preset::Canneal, Preset::Gups] {
        let realistic = speedup(16, monolithic(25), preset);
        let unrealizable = speedup(16, monolithic(9), preset);
        assert!(realistic < 1.0, "{preset}: {realistic} at 25 cycles");
        assert!(
            unrealizable >= realistic,
            "{preset}: {unrealizable} at 9 cycles < {realistic} at 25"
        );
    }
}

#[test]
fn claim_nocstar_within_95_percent_of_ideal() {
    let nocstar = speedup(16, TlbOrg::paper_nocstar(), Preset::Canneal);
    let ideal = speedup(16, TlbOrg::paper_ideal(), Preset::Canneal);
    assert!(
        nocstar / ideal > 0.93,
        "nocstar {nocstar} vs ideal {ideal}: ratio {:.3}",
        nocstar / ideal
    );
}

#[test]
fn claim_fabric_latency_stays_low_at_tlb_like_injection_rates() {
    // §V interconnect: at 0.1 msgs/core/cycle the fabric's average
    // latency stays within ~3 cycles.
    let mesh = MeshShape::square_for(64);
    let mut fabric = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
    let report = run_uniform_random(&mut fabric, mesh, 0.1, 3_000, 1);
    assert!(
        report.mean_latency <= 3.5,
        "fabric latency {} at rate 0.1",
        report.mean_latency
    );
}

#[test]
fn claim_fabric_beats_multi_hop_mesh_under_load() {
    let mesh = MeshShape::square_for(64);
    let mut fabric = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
    let fab = run_uniform_random(&mut fabric, mesh, 0.05, 2_000, 2);
    let mut multihop = MeshNoc::contended(mesh);
    let mh = run_uniform_random(&mut multihop, mesh, 0.05, 2_000, 2);
    assert!(fab.mean_latency * 2.0 < mh.mean_latency);
}

#[test]
fn claim_one_way_acquire_beats_round_trip() {
    // Fig 16 (left): acquiring links separately for each message delivers
    // better performance than round-trip reservation.
    let go = |acquire: AcquireMode| {
        let org = TlbOrg::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
            acquire,
            ideal_fabric: false,
        };
        let config = SystemConfig::new(16, org);
        Simulation::new(config, WorkloadAssignment::preset(&config, Preset::Gups))
            .run_measured(3_000, 5_000)
    };
    let one_way = go(AcquireMode::OneWay);
    let round_trip = go(AcquireMode::RoundTrip);
    assert!(
        one_way.cycles <= round_trip.cycles,
        "one-way {} vs round-trip {}",
        one_way.cycles,
        round_trip.cycles
    );
}

#[test]
#[ignore = "nightly: 512/1024-core scale-up comparison (run with --release)"]
fn claim_hier_beats_flat_mesh_at_scale() {
    // The scale-up motivation for the hierarchical fabric: past a few
    // hundred cores the flat mesh's ~2*sqrt(N) hop latency dominates every
    // shared-L2 lookup, while the cluster fabric keeps lookups inside a
    // one-cycle bus and pays the overlay only on shootdowns. Average
    // translation latency must favor `hier` at 512 and 1024 cores.
    let go = |cores: usize, org: TlbOrg| {
        let config = SystemConfig::new(cores, org);
        Simulation::new(config, WorkloadAssignment::preset(&config, Preset::Redis))
            .run_measured(300, 700)
    };
    for cores in [512usize, 1024] {
        let hier = go(cores, TlbOrg::paper_hier(16));
        let mesh = go(cores, TlbOrg::paper_distributed());
        let (h, m) = (
            hier.translation_latency.mean(),
            mesh.translation_latency.mean(),
        );
        assert!(
            h < m,
            "{cores} cores: hier latency {h:.2} >= flat mesh {m:.2}"
        );
    }
}

#[test]
fn claim_superpages_cut_shared_l2_misses() {
    // Fig 13 rationale: superpages reduce shared-L2 misses.
    let go = |thp: bool| {
        let mut config = SystemConfig::new(16, TlbOrg::paper_nocstar());
        config.thp = thp;
        Simulation::new(config, WorkloadAssignment::preset(&config, Preset::Canneal))
            .run_measured(4_000, 6_000)
    };
    let with = go(true);
    let without = go(false);
    assert!(
        with.l2.misses() < without.l2.misses(),
        "THP {} vs 4K-only {}",
        with.l2.misses(),
        without.l2.misses()
    );
}

#[test]
fn claim_shared_tlbs_save_translation_energy() {
    // Fig 14 (right): shared organizations save address-translation
    // energy by eliminating page walks; the savings grow with core count
    // (more aggregate capacity eliminates more of the DRAM-bound walks).
    let go = |org: TlbOrg| {
        let config = SystemConfig::new(32, org);
        Simulation::new(config, WorkloadAssignment::preset(&config, Preset::Canneal))
            .run_measured(8_000, 10_000)
    };
    let private = go(TlbOrg::paper_private());
    let nocstar = go(TlbOrg::paper_nocstar());
    let saved = nocstar.energy.percent_saved_vs(&private.energy);
    assert!(saved > 5.0, "only {saved:.0}% translation energy saved");
    assert!(nocstar.walks < private.walks);
    assert!(nocstar.energy.walk_pj < private.energy.walk_pj);
}
