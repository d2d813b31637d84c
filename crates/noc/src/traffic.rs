//! Synthetic uniform-random traffic (paper Fig 11(c)).
//!
//! The paper stresses the NOCSTAR fabric on a 64-core system with random
//! traffic at increasing injection rates, showing that even at 0.1
//! messages/core/cycle ("high for TLB traffic") the average latency stays
//! within ~3 cycles, and reports the fraction of messages that acquire
//! their path with no contention.

use crate::message::{Message, MsgKind};
use crate::Interconnect;
use nocstar_types::time::Cycle;
use nocstar_types::{CoreId, MeshShape};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Results of one synthetic-traffic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficReport {
    /// Offered injection rate (messages per core per cycle).
    pub injection_rate: f64,
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered (equals injected when the run drains).
    pub delivered: u64,
    /// Mean end-to-end network latency in cycles.
    pub mean_latency: f64,
    /// Fraction of messages that saw no contention.
    pub no_contention_fraction: f64,
}

/// Drives `noc` with uniform-random traffic: every cycle, each core
/// injects a message to a uniformly random *other* core with probability
/// `injection_rate`, for `cycles` cycles, then drains the network.
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `injection_rate` is outside `[0, 1]`, if the mesh has fewer
/// than two tiles, or if the network fails to drain (a deadlock — never
/// expected from the models in this crate).
pub fn run_uniform_random<I: Interconnect>(
    noc: &mut I,
    mesh: MeshShape,
    injection_rate: f64,
    cycles: u64,
    seed: u64,
) -> TrafficReport {
    assert!(
        (0.0..=1.0).contains(&injection_rate),
        "injection rate must be a probability, got {injection_rate}"
    );
    let n = mesh.tiles();
    assert!(n >= 2, "uniform-random traffic needs at least two tiles");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut injected = 0u64;
    let mut next_id = 0u64;
    // Deliveries are counted by the network's stats, so one buffer is
    // emptied after every cycle.
    let mut delivered = Vec::new();

    for c in 0..cycles {
        let now = Cycle::new(c);
        for src in 0..n {
            if rng.gen::<f64>() < injection_rate {
                let mut dst = rng.gen_range(0..n - 1);
                if dst >= src {
                    dst += 1;
                }
                next_id += 1;
                noc.submit(
                    now,
                    Message::new(
                        next_id,
                        CoreId::new(src),
                        CoreId::new(dst),
                        MsgKind::TlbRequest,
                    ),
                );
                injected += 1;
            }
        }
        noc.advance_into(now, &mut delivered);
        delivered.clear();
    }

    // Drain: keep advancing until the network is quiescent.
    crate::drain_until_idle(noc, Cycle::new(cycles), 1_000_000)
        .unwrap_or_else(|e| panic!("network failed to drain: {e}"));

    let stats = noc.stats();
    TrafficReport {
        injection_rate,
        injected,
        delivered: stats.delivered,
        mean_latency: stats.latency.mean(),
        no_contention_fraction: stats.no_contention_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{AcquireMode, CircuitFabric};
    use crate::mesh::MeshNoc;

    #[test]
    fn all_injected_messages_are_delivered() {
        let mesh = MeshShape::square_for(16);
        let mut fabric = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        let report = run_uniform_random(&mut fabric, mesh, 0.1, 500, 42);
        assert!(report.injected > 0);
        assert_eq!(report.delivered, report.injected);
    }

    #[test]
    fn low_load_latency_is_near_two_cycles() {
        let mesh = MeshShape::square_for(64);
        let mut fabric = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        let report = run_uniform_random(&mut fabric, mesh, 0.01, 2000, 7);
        assert!(
            report.mean_latency < 3.0,
            "latency {} too high at low load",
            report.mean_latency
        );
        assert!(report.no_contention_fraction > 0.8);
    }

    #[test]
    fn latency_grows_with_injection_rate() {
        let mesh = MeshShape::square_for(64);
        let low = {
            let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            run_uniform_random(&mut f, mesh, 0.01, 1500, 3).mean_latency
        };
        let high = {
            let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            run_uniform_random(&mut f, mesh, 0.2, 1500, 3).mean_latency
        };
        assert!(
            high > low,
            "contention must raise latency ({low} vs {high})"
        );
    }

    #[test]
    fn nocstar_beats_the_multi_hop_mesh_on_latency() {
        let mesh = MeshShape::square_for(64);
        let fabric_lat = {
            let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            run_uniform_random(&mut f, mesh, 0.05, 1500, 11).mean_latency
        };
        let mesh_lat = {
            let mut m = MeshNoc::contended(mesh);
            run_uniform_random(&mut m, mesh, 0.05, 1500, 11).mean_latency
        };
        assert!(
            fabric_lat < mesh_lat / 2.0,
            "NOCSTAR ({fabric_lat}) should be far below the mesh ({mesh_lat})"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let mesh = MeshShape::square_for(16);
        let a = {
            let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            run_uniform_random(&mut f, mesh, 0.1, 300, 5)
        };
        let b = {
            let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
            run_uniform_random(&mut f, mesh, 0.1, 300, 5)
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_injection_rate_rejected() {
        let mesh = MeshShape::square_for(4);
        let mut f = CircuitFabric::new(mesh, 16, AcquireMode::OneWay);
        run_uniform_random(&mut f, mesh, 1.5, 10, 0);
    }
}
