//! The interconnect instance a simulated system drives.
//!
//! Wraps the network models behind one enum (plus `None` for the
//! private and zero-latency-ideal organizations) so the simulation loop is
//! organization-agnostic. Every call except the round-trip ones goes to
//! the fabric that [`as_dyn`](NetworkModel::as_dyn) picks.

use crate::config::{MonolithicNet, SystemConfig, TlbOrg};
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
    /// The fabric `config`'s organization runs over.
    pub fn for_config(config: &SystemConfig) -> Self {
        let mesh = config.mesh();
        match config.org {
            TlbOrg::Private { .. } | TlbOrg::IdealShared { .. } => NetworkModel::None,
            TlbOrg::Distributed { .. } => NetworkModel::Mesh(MeshNoc::contention_free(mesh)),
            TlbOrg::Monolithic { net, .. } => match net {
                MonolithicNet::Mesh => NetworkModel::Mesh(MeshNoc::contention_free(mesh)),
                MonolithicNet::Smart(hpc) => NetworkModel::Smart(SmartNoc::new(mesh, hpc)),
                MonolithicNet::Ideal => NetworkModel::None,
            },
            TlbOrg::Nocstar {
                hpc_max,
                acquire,
                ideal_fabric,
                ..
            } => NetworkModel::nocstar(mesh, hpc_max, acquire, ideal_fabric),
            TlbOrg::Hier {
                cluster_size,
                intra,
                inter,
                ..
            } => NetworkModel::Hier(HierNoc::new(config.cores, cluster_size, intra, inter)),
        }
    }

    /// Builds the NOCSTAR fabric (optionally the contention-free ideal).
    pub fn nocstar(mesh: MeshShape, hpc_max: usize, acquire: AcquireMode, ideal: bool) -> Self {
        if ideal {
            NetworkModel::Circuit(CircuitFabric::ideal(mesh, hpc_max))
        } else {
            NetworkModel::Circuit(CircuitFabric::new(mesh, hpc_max, acquire))
        }
    }

    /// The fabric, if there is one.
    pub fn as_dyn(&self) -> Option<&dyn Interconnect> {
        match self {
            NetworkModel::None => None,
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => Some(n),
            NetworkModel::Circuit(n) => Some(n),
            NetworkModel::Hier(n) => Some(n),
        }
    }

    /// The fabric, mutably, if there is one.
    pub fn as_dyn_mut(&mut self) -> Option<&mut dyn Interconnect> {
        match self {
            NetworkModel::None => None,
            NetworkModel::Mesh(n) | NetworkModel::Smart(n) => Some(n),
            NetworkModel::Circuit(n) => Some(n),
            NetworkModel::Hier(n) => Some(n),
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
        let Some(n) = self.as_dyn_mut() else {
            panic!("no network in this organization");
        };
        n.submit(now, msg);
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
        self.as_dyn_mut()
            .map_or_else(Vec::new, |n| n.advance(cycle))
    }

    /// Earliest cycle with pending network work.
    pub fn next_activity(&self) -> Option<Cycle> {
        self.as_dyn()?.next_activity()
    }

    /// Clears aggregate statistics (after warmup).
    pub fn reset_stats(&mut self) {
        if let Some(n) = self.as_dyn_mut() {
            n.reset_stats();
        }
    }

    /// Aggregate statistics, if a network exists.
    pub fn stats(&self) -> Option<&NocStats> {
        self.as_dyn().map(|n| n.stats())
    }

    /// Installs a fault plan into the underlying model (no-op for `None`).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if let Some(n) = self.as_dyn_mut() {
            n.install_faults(plan);
        }
    }

    /// How many directed links a fault plan's `link:L` clauses can name
    /// (none without a network).
    pub fn fault_links(&self) -> usize {
        self.as_dyn().map_or(0, |n| n.fault_links())
    }

    /// Fault-action statistics, if a network exists.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.as_dyn()?.fault_stats()
    }

    /// Installs a closed-loop recovery policy (no-op for `None`).
    pub fn install_recovery(&mut self, policy: RecoveryPolicy) {
        if let Some(n) = self.as_dyn_mut() {
            n.install_recovery(policy);
        }
    }

    /// Recovery-action statistics, if a network tracks them. The
    /// hierarchical fabric's include its gateway failovers.
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.as_dyn()?.recovery_stats()
    }

    /// A diagnostic snapshot of the network's in-flight state at `cycle`.
    pub fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        match self.as_dyn() {
            Some(n) => n.diagnostics(cycle),
            None => DiagSnapshot {
                cycle: cycle.value(),
                ..DiagSnapshot::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_types::CoreId;

    #[test]
    fn for_config_maps_every_organization_to_its_fabric() {
        use nocstar_noc::hier::{InterKind, IntraKind};
        let monolithic = |net| TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: 4,
            net,
            latency_override: None,
        };
        let nocstar = |acquire, ideal_fabric| TlbOrg::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
            acquire,
            ideal_fabric,
        };
        let cases = [
            (TlbOrg::paper_private(), "None"),
            (TlbOrg::paper_ideal(), "None"),
            (monolithic(MonolithicNet::Ideal), "None"),
            (TlbOrg::paper_distributed(), "Mesh"),
            (monolithic(MonolithicNet::Mesh), "Mesh"),
            (monolithic(MonolithicNet::Smart(4)), "Smart"),
            (nocstar(AcquireMode::OneWay, false), "Circuit"),
            (nocstar(AcquireMode::RoundTrip, false), "Circuit"),
            (nocstar(AcquireMode::OneWay, true), "Circuit"),
            (TlbOrg::paper_hier(4), "Hier"),
            (
                TlbOrg::Hier {
                    slice_entries: 1024,
                    cluster_size: 4,
                    intra: IntraKind::Xbar,
                    inter: InterKind::Smart(8),
                },
                "Hier",
            ),
        ];
        for (org, expected) in cases {
            let net = NetworkModel::for_config(&SystemConfig::new(16, org));
            let variant = match &net {
                NetworkModel::None => "None",
                NetworkModel::Mesh(_) => "Mesh",
                NetworkModel::Smart(_) => "Smart",
                NetworkModel::Circuit(_) => "Circuit",
                NetworkModel::Hier(_) => "Hier",
            };
            assert_eq!(variant, expected, "{}", org.label());
        }
        let round_trip = nocstar(AcquireMode::RoundTrip, false);
        assert!(NetworkModel::for_config(&SystemConfig::new(16, round_trip)).is_round_trip());
    }

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
