//! The interconnect instance a simulated system drives.
//!
//! Wraps the network models behind one enum (plus `None` for the
//! private and zero-latency-ideal organizations) so the simulation loop is
//! organization-agnostic.

use nocstar_faults::{
    DiagSnapshot, FaultPlan, FaultStats, RecoveryPolicy, RecoveryStats, SimError,
};
use nocstar_noc::circuit::{AcquireMode, CircuitFabric};
use nocstar_noc::hier::HierNoc;
use nocstar_noc::mesh::MeshNoc;
use nocstar_noc::message::{Delivery, Message, MsgKind};
use nocstar_noc::smart::SmartNoc;
use nocstar_noc::{Interconnect, NocStats};
use nocstar_types::time::Cycle;
use nocstar_types::MeshShape;

/// The network under an L2 TLB organization.
// One instance exists per simulation, so the variant size skew (HierNoc
// aggregates per-cluster fabrics) costs nothing worth a box's
// indirection on the per-cycle advance path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NetworkModel {
    /// No network (private TLBs, or the zero-latency ideal).
    None,
    /// Contention-free multi-hop mesh (distributed / monolithic baselines).
    Mesh(MeshNoc),
    /// SMART bypass mesh (monolithic-SMART of Fig 15).
    Smart(SmartNoc),
    /// The NOCSTAR circuit-switched fabric.
    Circuit(CircuitFabric),
    /// The two-level hierarchical fabric (`hier` organizations).
    Hier(HierNoc),
}

impl NetworkModel {
    /// Builds the NOCSTAR fabric (optionally the contention-free ideal).
    pub fn nocstar(mesh: MeshShape, hpc_max: usize, acquire: AcquireMode, ideal: bool) -> Self {
        if ideal {
            NetworkModel::Circuit(CircuitFabric::ideal(mesh, hpc_max))
        } else {
            NetworkModel::Circuit(CircuitFabric::new(mesh, hpc_max, acquire))
        }
    }

    /// True when requests reserve a round-trip path (NOCSTAR round-trip
    /// acquire mode): responses must use
    /// [`respond`](Self::respond) instead of `submit`.
    pub fn is_round_trip(&self) -> bool {
        matches!(
            self,
            NetworkModel::Circuit(f) if f.mode() == AcquireMode::RoundTrip
        )
    }

    /// Submits a message (no-op immediate delivery is impossible here:
    /// callers must not submit through `None`).
    ///
    /// # Panics
    ///
    /// Panics if called on [`NetworkModel::None`].
    pub fn submit(&mut self, now: Cycle, msg: Message) {
        match self {
            NetworkModel::None => panic!("no network in this organization"),
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.submit(now, msg),
            NetworkModel::Circuit(n) => n.submit(now, msg),
            NetworkModel::Hier(n) => n.submit(now, msg),
        }
    }

    /// Sends a response over a held round-trip reservation, or as a plain
    /// message otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if the fabric's reservation state is
    /// violated (the reservation vanished between the check and the send).
    pub fn respond(&mut self, msg: Message, depart_at: Cycle) -> Result<(), Box<SimError>> {
        debug_assert_eq!(msg.kind, MsgKind::TlbResponse);
        match self {
            NetworkModel::Circuit(f)
                if f.mode() == AcquireMode::RoundTrip && f.has_reservation(msg.id) =>
            {
                f.send_response(msg, depart_at)
            }
            _ => {
                self.submit(depart_at, msg);
                Ok(())
            }
        }
    }

    /// Advances to `cycle`, returning deliveries.
    pub fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        match self {
            NetworkModel::None => Vec::new(),
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.advance(cycle),
            NetworkModel::Circuit(n) => n.advance(cycle),
            NetworkModel::Hier(n) => n.advance(cycle),
        }
    }

    /// Earliest cycle with pending network work.
    pub fn next_activity(&self) -> Option<Cycle> {
        match self {
            NetworkModel::None => None,
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.next_activity(),
            NetworkModel::Circuit(n) => n.next_activity(),
            NetworkModel::Hier(n) => n.next_activity(),
        }
    }

    /// Clears aggregate statistics (after warmup).
    pub fn reset_stats(&mut self) {
        match self {
            NetworkModel::None => {}
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.reset_stats(),
            NetworkModel::Circuit(n) => n.reset_stats(),
            NetworkModel::Hier(n) => n.reset_stats(),
        }
    }

    /// Aggregate statistics, if a network exists.
    pub fn stats(&self) -> Option<&NocStats> {
        match self {
            NetworkModel::None => None,
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => Some(n.stats()),
            NetworkModel::Circuit(n) => Some(n.stats()),
            NetworkModel::Hier(n) => Some(n.stats()),
        }
    }

    /// Installs a fault plan into the underlying model (no-op for `None`).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        match self {
            NetworkModel::None => {}
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.install_faults(plan),
            NetworkModel::Circuit(n) => n.install_faults(plan),
            NetworkModel::Hier(n) => n.install_faults(plan),
        }
    }

    /// Fault-action statistics, if a network exists.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        match self {
            NetworkModel::None => None,
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.fault_stats(),
            NetworkModel::Circuit(n) => n.fault_stats(),
            NetworkModel::Hier(n) => n.fault_stats(),
        }
    }

    /// Installs a closed-loop recovery policy (no-op for `None`).
    pub fn install_recovery(&mut self, policy: RecoveryPolicy) {
        match self {
            NetworkModel::None => {}
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.install_recovery(policy),
            NetworkModel::Circuit(n) => n.install_recovery(policy),
            NetworkModel::Hier(n) => n.install_recovery(policy),
        }
    }

    /// Recovery-action statistics, if a network tracks them. The
    /// hierarchical fabric merges gateway-failover counts with its
    /// overlay's re-routing stats, so this returns an owned aggregate.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        match self {
            NetworkModel::None => None,
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.recovery_stats().cloned(),
            NetworkModel::Circuit(n) => n.recovery_stats().cloned(),
            NetworkModel::Hier(n) => Some(n.recovery_stats_merged()),
        }
    }

    /// A diagnostic snapshot of the network's in-flight state at `cycle`.
    pub fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        match self {
            NetworkModel::None => DiagSnapshot {
                cycle: cycle.value(),
                ..DiagSnapshot::default()
            },
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => n.diagnostics(cycle),
            NetworkModel::Circuit(n) => n.diagnostics(cycle),
            NetworkModel::Hier(n) => n.diagnostics(cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::CoreId;

    #[test]
    fn round_trip_detection() {
        let mesh = MeshShape::square_for(16);
        assert!(!NetworkModel::nocstar(mesh, 16, AcquireMode::OneWay, false).is_round_trip());
        assert!(NetworkModel::nocstar(mesh, 16, AcquireMode::RoundTrip, false).is_round_trip());
        assert!(!NetworkModel::None.is_round_trip());
    }

    #[test]
    fn respond_falls_back_to_submit_in_one_way_mode() {
        let mesh = MeshShape::square_for(16);
        let mut net = NetworkModel::nocstar(mesh, 16, AcquireMode::OneWay, false);
        let resp = Message::new(1, CoreId::new(3), CoreId::new(0), MsgKind::TlbResponse);
        net.respond(resp, Cycle::new(5)).unwrap();
        // Arbitrated like any message: setup at 5, deliver at 6.
        assert!(net.advance(Cycle::new(5)).is_empty());
        let d = net.advance(Cycle::new(6));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mesh = MeshShape::square_for(16);
        let mut net = NetworkModel::nocstar(mesh, 16, AcquireMode::OneWay, false);
        net.submit(
            Cycle::ZERO,
            Message::new(1, CoreId::new(0), CoreId::new(3), MsgKind::TlbRequest),
        );
        net.advance(Cycle::ZERO);
        net.advance(Cycle::new(1));
        assert_eq!(net.stats().unwrap().delivered, 1);
        net.reset_stats();
        assert_eq!(net.stats().unwrap().delivered, 0);
        // Resetting a network-less model is a no-op.
        NetworkModel::None.reset_stats();
    }

    #[test]
    #[should_panic(expected = "no network")]
    fn submitting_through_none_panics() {
        let msg = Message::new(1, CoreId::new(0), CoreId::new(1), MsgKind::TlbRequest);
        NetworkModel::None.submit(Cycle::ZERO, msg);
    }

    #[test]
    fn none_network_is_always_idle() {
        let mut none = NetworkModel::None;
        assert_eq!(none.next_activity(), None);
        assert!(none.advance(Cycle::new(5)).is_empty());
        assert!(none.stats().is_none());
    }
}
