//! The hierarchical cluster interconnect (`hier`).
//!
//! NOCSTAR's four flat fabrics all degrade past a few hundred tiles: bus
//! bandwidth is chip-wide-serial, mesh diameter grows as sqrt(N), and
//! SMART/NOCSTAR bypass runs are cut short by contention on long paths.
//! Following TeraNoC-style hybrid designs, [`HierNoc`] composes two of the
//! existing fabric models into a two-level topology:
//!
//! * an **intra-cluster fabric** per cluster of `cluster_size` contiguous
//!   tiles — a shared [`BusNoc`] (1-cycle arbitration + broadcast) or a
//!   non-blocking [`XbarNoc`] (per-output-port arbitration, 1-cycle
//!   traversal);
//! * an **inter-cluster overlay** connecting one gateway tile per cluster
//!   — a contended [`MeshNoc`] or a SMART bypass [`MeshNoc`] over the
//!   cluster grid.
//!
//! A same-cluster message takes one intra-fabric leg. A cross-cluster
//! message takes three store-and-forward legs: source tile to its
//! cluster's gateway, gateway to gateway over the overlay, and gateway to
//! the destination tile. Degenerate legs (the source *is* the gateway)
//! are local messages to the member fabric and cost nothing, so a
//! `cluster_size = 1` configuration collapses exactly to the overlay.
//!
//! Member fabrics see one leg at a time under the original message id
//! (ids are only used for arbitration tie-breaks, and a message occupies
//! one leg at any instant, so ids stay unique per fabric). `HierNoc`
//! tracks leg progress in a route table and reports *end-to-end*
//! statistics: `latency` is submit-to-final-arrival, and `no_contention`
//! counts messages that matched their route's zero-queueing floor.
//!
//! Fault plans target the overlay: `link:L` clauses index the overlay
//! mesh's directed links (the cluster-local wires are short, wide and
//! assumed reliable). `HierNoc` has no fault block of its own: it reads
//! the overlay's plan and policy and counts its gateway failovers in the
//! overlay's recovery stats, so one block reports the whole fabric.
//! Whole clusters are taken offline via the fault plan's `cluster:K/S@..`
//! clause, which the *simulator* maps to slice offline windows — the
//! network itself keeps routing.

use crate::arrivals::{land, Lane};
use crate::bus::BusNoc;
use crate::mesh::MeshNoc;
use crate::message::{Delivery, Message};
use crate::{FaultState, Interconnect, NocStats};
use nocstar_faults::DiagSnapshot;
use nocstar_types::cluster::ClusterMap;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{CoreId, MeshShape};
use std::collections::BTreeMap;

/// Intra-cluster fabric choice (`--cluster-intra`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraKind {
    /// Shared bus: 1-cycle grant + broadcast, one message per cycle per
    /// cluster.
    Bus,
    /// Non-blocking crossbar: per-output-port arbitration, one message
    /// per output per cycle.
    Xbar,
}

/// Inter-cluster overlay choice (`--cluster-inter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterKind {
    /// Contended multi-hop mesh over the cluster grid.
    Mesh,
    /// SMART bypass mesh with the given HPCmax.
    Smart(usize),
}

/// A non-blocking crossbar: every output port arbitrates independently
/// (oldest message first, ids breaking ties) and a granted message takes
/// one cycle to traverse. Contention only arises when two inputs target
/// the same output. Used as the intra-cluster fabric of [`HierNoc`];
/// injected faults are handled at the overlay level, so this model keeps
/// no fault state.
#[derive(Debug, Clone)]
pub struct XbarNoc {
    /// First core index served by this crossbar (ports are addressed as
    /// `dst - base`).
    base: usize,
    /// Index-addressed output ports — the flat arena replacing per-tile
    /// allocations at 1024-core scale.
    ports: Vec<OutPort>,
    local: Lane,
    stats: NocStats,
}

#[derive(Debug, Clone, Default)]
struct OutPort {
    /// Waiting messages: (message, submitted_at).
    pending: Vec<(Message, Cycle)>,
    /// The granted traversal: (message, arrival, submitted_at).
    in_flight: Option<(Message, Cycle, Cycle)>,
}

impl XbarNoc {
    /// A crossbar serving cores `[base, base + ports)`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(base: usize, ports: usize) -> Self {
        assert!(ports > 0, "a crossbar needs at least one port");
        Self {
            base,
            ports: vec![OutPort::default(); ports],
            local: Lane::default(),
            stats: NocStats::with_links(ports),
        }
    }

    fn port_of(&self, dst: CoreId) -> usize {
        dst.index() - self.base
    }
}

impl Interconnect for XbarNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.local.push(msg, now, now);
            return;
        }
        let port = self.port_of(msg.dst);
        self.ports[port].pending.push((msg, now));
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.local.land_due(cycle, &mut self.stats, &mut out);
        for (p, port) in self.ports.iter_mut().enumerate() {
            if let Some((msg, at, submitted)) = port.in_flight {
                if at <= cycle {
                    port.in_flight = None;
                    land(&mut self.stats, msg, at, submitted, Cycles::ONE, &mut out);
                }
            }
            if port.in_flight.is_none() {
                // Oldest waiter wins the output port, ids breaking ties.
                let next = port
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, at))| at <= cycle)
                    .min_by_key(|(_, &(msg, at))| (at, msg.id))
                    .map(|(i, _)| i);
                if let Some(i) = next {
                    let (msg, submitted) = port.pending.remove(i);
                    port.in_flight = Some((msg, cycle + Cycles::ONE, submitted));
                    self.stats.grants += 1;
                    self.stats.link_busy[p] += 1;
                }
            }
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flights = self
            .ports
            .iter()
            .filter_map(|p| p.in_flight.map(|(_, at, _)| at));
        // A queued message behind an occupied output port cannot win
        // arbitration until the in-flight transfer lands, so clamp its
        // reported activity to that arrival (see BusNoc::next_activity).
        let queued = self.ports.iter().flat_map(|p| {
            let busy = p.in_flight.map(|(_, at, _)| at);
            p.pending
                .iter()
                .map(move |&(_, at)| busy.map_or(at, |b| at.max(b)))
        });
        flights.chain(queued).chain(self.local.next_at()).min()
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let pending_messages = self
            .ports
            .iter()
            .flat_map(|p| p.pending.iter())
            .map(|&(msg, submitted_at)| msg.pending(submitted_at, 0))
            .collect();
        DiagSnapshot {
            cycle: cycle.value(),
            pending_messages,
            ..DiagSnapshot::default()
        }
    }
}

/// Which leg of its route a message is riding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Single intra-cluster leg; delivery is final.
    Direct,
    /// Source tile -> source-cluster gateway.
    IntraSrc,
    /// Gateway -> gateway over the overlay.
    Overlay,
    /// Destination-cluster gateway -> destination tile; final.
    IntraDst,
}

/// Leg-progress record for one in-flight message.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// The original end-to-end message.
    msg: Message,
    stage: Stage,
    submitted_at: Cycle,
    /// Zero-queueing end-to-end latency for this route (the
    /// `no_contention` threshold).
    floor: Cycles,
}

/// The composed hierarchical fabric. See the module docs for the model.
#[derive(Debug)]
pub struct HierNoc {
    map: ClusterMap,
    overlay_shape: MeshShape,
    /// Index-addressed per-cluster fabrics: buses or crossbars.
    intra: Vec<Box<dyn Interconnect>>,
    /// The overlay: a contended mesh or SMART over the cluster grid.
    inter: MeshNoc,
    routes: BTreeMap<u64, Route>,
    stats: NocStats,
}

impl HierNoc {
    /// Builds the fabric for `cores` tiles in clusters of `cluster_size`.
    ///
    /// # Panics
    ///
    /// Panics unless `cluster_size` evenly partitions `cores` (see
    /// [`ClusterMap::new`]), or if a SMART overlay is given `HPCmax = 0`.
    pub fn new(cores: usize, cluster_size: usize, intra: IntraKind, inter: InterKind) -> Self {
        let map = ClusterMap::new(cores, cluster_size);
        let overlay_shape = MeshShape::square_for(map.clusters());
        let intra = (0..map.clusters())
            .map(|k| -> Box<dyn Interconnect> {
                match intra {
                    IntraKind::Bus => Box::new(BusNoc::new(overlay_shape)),
                    IntraKind::Xbar => Box::new(XbarNoc::new(map.base(k), cluster_size)),
                }
            })
            .collect();
        let inter = match inter {
            InterKind::Mesh => MeshNoc::contended(overlay_shape),
            InterKind::Smart(hpc) => MeshNoc::new(overlay_shape, hpc),
        };
        Self {
            map,
            overlay_shape,
            intra,
            inter,
            routes: BTreeMap::new(),
            stats: NocStats::with_links(0),
        }
    }

    /// The gateway tile serving cluster `k` at `cycle`. Statically this
    /// is the cluster base; with gateway failover armed and the static
    /// gateway's tile offline (a `slice:`/`cluster:` window covering it),
    /// the lowest-indexed surviving cluster member is elected instead.
    /// Election is a pure function of `(plan, policy, cycle)`, so every
    /// leg of a message — and every repeat of the run — agrees on it;
    /// the static gateway resumes as soon as its window ends. With no
    /// survivor (the whole cluster is down) the static gateway stands,
    /// and the simulator's slice re-homing redirects traffic instead.
    fn gateway_at(&mut self, k: usize, cycle: Cycle) -> CoreId {
        let gw = self.map.gateway(k);
        let faults = &mut self.inter.faults;
        if !faults.policy.failover
            || faults.plan.is_empty()
            || !faults.plan.slice_offline(gw.index(), cycle.value())
        {
            return gw;
        }
        let base = self.map.base(k);
        for member in base..base + self.map.cluster_size() {
            if !faults.plan.slice_offline(member, cycle.value()) {
                faults.recovery.gateway_failovers += 1;
                return CoreId::new(member);
            }
        }
        gw
    }

    /// Zero-queueing end-to-end latency of the `src -> dst` route: one
    /// cycle per non-degenerate intra leg plus the overlay's uncontended
    /// traversal of the gateway-to-gateway path.
    fn route_floor(&self, src: CoreId, dst: CoreId) -> Cycles {
        let (cs, cd) = (self.map.cluster_of(src), self.map.cluster_of(dst));
        if cs == cd {
            return if src == dst {
                Cycles::ZERO
            } else {
                Cycles::ONE
            };
        }
        let hops = self.overlay_shape.hops(CoreId::new(cs), CoreId::new(cd)) as u64;
        let overlay = self.inter.uncontended_latency(hops);
        let leg1 = u64::from(src != self.map.gateway(cs));
        let leg3 = u64::from(dst != self.map.gateway(cd));
        Cycles::new(leg1 + leg3) + overlay
    }

    /// Routes one member-fabric delivery: forwards the next leg (true) or
    /// emits the final end-to-end delivery into `out` (false).
    fn step_route(&mut self, d: Delivery, out: &mut Vec<Delivery>) -> bool {
        let Some(route) = self.routes.get_mut(&d.msg.id) else {
            debug_assert!(false, "delivery for unrouted message {}", d.msg.id);
            return false;
        };
        let Route { msg, floor, .. } = *route;
        let cd = self.map.cluster_of(msg.dst);
        match route.stage {
            Stage::Direct | Stage::IntraDst => {
                let submitted_at = route.submitted_at;
                self.routes.remove(&d.msg.id);
                land(&mut self.stats, msg, d.at(), submitted_at, floor, out);
                return false;
            }
            Stage::IntraSrc => {
                // At the source gateway: hop onto the overlay, addressed
                // by cluster ids.
                route.stage = Stage::Overlay;
                let cs = CoreId::new(self.map.cluster_of(msg.src));
                let leg = Message::new(msg.id, cs, CoreId::new(cd), msg.kind);
                self.inter.submit(d.at(), leg);
            }
            Stage::Overlay => {
                // At the destination gateway: final intra leg.
                route.stage = Stage::IntraDst;
                let gw = self.gateway_at(cd, d.at());
                self.intra[cd].submit(d.at(), Message::new(msg.id, gw, msg.dst, msg.kind));
            }
        }
        self.stats.grants += 1;
        true
    }
}

impl Interconnect for HierNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        let floor = self.route_floor(msg.src, msg.dst);
        let cs = self.map.cluster_of(msg.src);
        let cd = self.map.cluster_of(msg.dst);
        let (stage, leg) = if cs == cd {
            (Stage::Direct, msg)
        } else {
            // First leg: source tile to its gateway (a free local message
            // when the source *is* the gateway).
            let gw = self.gateway_at(cs, now);
            (Stage::IntraSrc, Message::new(msg.id, msg.src, gw, msg.kind))
        };
        let route = Route {
            msg,
            stage,
            submitted_at: now,
            floor,
        };
        self.routes.insert(msg.id, route);
        self.intra[cs].submit(now, leg);
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        let mut out = Vec::new();
        // A leg completing this cycle may hand off to a member fabric
        // that was already advanced, so cascade: re-advance until no leg
        // was forwarded. Member fabrics tolerate repeated same-cycle
        // advances (flights are gated on `ready_at`), and a message has
        // at most three legs, so this terminates quickly.
        loop {
            let mut legs: Vec<Delivery> = Vec::new();
            for f in &mut self.intra {
                legs.extend(f.advance(cycle));
            }
            legs.extend(self.inter.advance(cycle));
            let mut forwarded = false;
            for d in legs {
                forwarded |= self.step_route(d, &mut out);
            }
            if !forwarded {
                break;
            }
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        self.intra
            .iter()
            .filter_map(|f| f.next_activity())
            .chain(self.inter.next_activity())
            .min()
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        for f in &mut self.intra {
            f.reset_stats();
        }
        self.inter.reset_stats();
    }

    /// The overlay's block: link faults target the overlay (cluster-local
    /// wires are assumed reliable, and cluster outages are slice-offline
    /// windows the simulator handles), and re-routing and escalation act
    /// on its links, while gateway failover is counted here.
    fn fault_state(&self) -> Option<&FaultState> {
        self.inter.fault_state()
    }

    fn fault_state_mut(&mut self) -> Option<&mut FaultState> {
        self.inter.fault_state_mut()
    }

    /// Link faults act on the overlay between the cluster gateways.
    fn fault_links(&self) -> usize {
        self.inter.fault_links()
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let pending_messages = self
            .routes
            .values()
            .map(|r| r.msg.pending(r.submitted_at, 0))
            .collect();
        DiagSnapshot {
            pending_messages,
            ..self.inter.diagnostics(cycle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drain_until_idle;
    use crate::message::MsgKind;
    use nocstar_faults::RecoveryPolicy;

    fn msg(id: u64, src: usize, dst: usize) -> Message {
        Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest)
    }

    fn hier(cores: usize, cluster: usize) -> HierNoc {
        HierNoc::new(cores, cluster, IntraKind::Bus, InterKind::Mesh)
    }

    fn drain(noc: &mut HierNoc, from: Cycle) -> Vec<Delivery> {
        drain_until_idle(noc, from, 100_000).expect("hier fabric must quiesce")
    }

    #[test]
    fn same_cluster_messages_never_touch_the_overlay() {
        let mut noc = hier(64, 16);
        noc.submit(Cycle::ZERO, msg(1, 1, 14));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        // Bus: grant at 0, broadcast during 1.
        assert_eq!(d[0].at(), Cycle::new(1));
        assert_eq!(d[0].msg.dst, CoreId::new(14));
        assert_eq!(noc.stats().delivered, 1);
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn cross_cluster_messages_take_three_legs() {
        let mut noc = hier(64, 16);
        // Core 5 (cluster 0) to core 50 (cluster 3): intra leg (1 cycle),
        // overlay 0->3 on the 2x2 cluster grid (2 hops, 2 cycles each),
        // intra leg (1 cycle).
        noc.submit(Cycle::ZERO, msg(1, 5, 50));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg.src, CoreId::new(5));
        assert_eq!(d[0].msg.dst, CoreId::new(50));
        let floor = noc.route_floor(CoreId::new(5), CoreId::new(50));
        assert_eq!(floor, Cycles::new(1 + 4 + 1));
        assert_eq!(d[0].at(), Cycle::ZERO + floor);
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn gateway_to_gateway_skips_degenerate_legs() {
        let mut noc = hier(64, 16);
        // Gateways are cores 0/16/32/48; 0 -> 16 is one overlay hop.
        noc.submit(Cycle::ZERO, msg(1, 0, 16));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at(), Cycle::new(2));
    }

    #[test]
    fn local_messages_deliver_in_the_submit_cycle() {
        let mut noc = hier(64, 16);
        noc.submit(Cycle::new(7), msg(1, 9, 9));
        let d = drain(&mut noc, Cycle::new(7));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at(), Cycle::new(7));
    }

    #[test]
    fn clusters_have_independent_bandwidth() {
        // One message per cluster, all at once: every cluster's bus grants
        // in the same cycle (a flat bus would serialize all four).
        let mut noc = hier(64, 16);
        for k in 0..4 {
            noc.submit(Cycle::ZERO, msg(k as u64, k * 16 + 1, k * 16 + 9));
        }
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 4);
        assert!(d.iter().all(|d| d.at() == Cycle::new(1)));
    }

    #[test]
    fn xbar_same_cycle_local_delivery_precedes_the_port_arrival() {
        let mut xbar = XbarNoc::new(0, 4);
        xbar.submit(Cycle::ZERO, msg(1, 0, 3));
        assert!(xbar.advance(Cycle::ZERO).is_empty());
        xbar.submit(Cycle::new(1), msg(2, 2, 2));
        let d = xbar.advance(Cycle::new(1));
        let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at().value())).collect();
        assert_eq!(order, [(2, 1), (1, 1)]);
    }

    #[test]
    fn xbar_outputs_arbitrate_independently() {
        let mut noc = HierNoc::new(32, 8, IntraKind::Xbar, InterKind::Mesh);
        // Two messages to *different* outputs: both traverse in parallel.
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 4));
        // Two messages to the *same* output: serialized.
        noc.submit(Cycle::ZERO, msg(3, 2, 5));
        noc.submit(Cycle::ZERO, msg(4, 6, 5));
        let d = drain(&mut noc, Cycle::ZERO);
        let at = |id: u64| d.iter().find(|d| d.msg.id == id).expect("delivered").at();
        assert_eq!(at(1), Cycle::new(1));
        assert_eq!(at(2), Cycle::new(1));
        assert_eq!(at(3), Cycle::new(1));
        assert_eq!(at(4), Cycle::new(2));
    }

    #[test]
    fn smart_overlay_bypasses_multiple_cluster_hops() {
        let mut noc = HierNoc::new(256, 16, IntraKind::Bus, InterKind::Smart(8));
        // Cluster grid is 4x4; corner to corner is 6 overlay hops, all
        // bypassed in one cycle after setup.
        noc.submit(Cycle::ZERO, msg(1, 1, 255));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        // 1 intra + (1 setup + 1 bypass) + 1 intra.
        assert_eq!(d[0].at(), Cycle::new(4));
    }

    #[test]
    fn single_tile_clusters_collapse_to_the_overlay() {
        let mut noc = HierNoc::new(16, 1, IntraKind::Bus, InterKind::Mesh);
        noc.submit(Cycle::ZERO, msg(1, 0, 1));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d[0].at(), Cycle::new(2));
    }

    #[test]
    fn overlay_outage_blocks_only_cross_cluster_traffic() {
        let mut noc = hier(64, 16);
        noc.install_faults("link:*@0-50=off; retry=inf".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 1, 9)); // same cluster
        noc.submit(Cycle::ZERO, msg(2, 1, 50)); // cross cluster
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 2);
        let at = |id: u64| d.iter().find(|d| d.msg.id == id).expect("delivered").at();
        assert_eq!(at(1), Cycle::new(1), "intra traffic unaffected");
        assert!(at(2) >= Cycle::new(50), "overlay leg waits out the outage");
        assert!(
            noc.fault_stats()
                .expect("overlay tracks faults")
                .link_blocked
                > 0
        );
    }

    #[test]
    fn gateway_failover_elects_a_surviving_member_and_reverts() {
        let mut noc = hier(64, 16);
        // Gateway tile 48 (cluster 3's base) offline for [0, 100).
        noc.install_faults("slice:48@0-100".parse().unwrap());
        noc.install_recovery("failover".parse().unwrap());
        // Cross-cluster message into cluster 3 during the outage: the
        // final leg runs through elected gateway 49, not 48.
        noc.submit(Cycle::ZERO, msg(1, 5, 50));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg.dst, CoreId::new(50));
        assert!(noc.recovery_stats().unwrap().gateway_failovers > 0);
        let merged = noc.recovery_stats().unwrap();
        assert!(merged.gateway_failovers > 0);
        // After the window the static gateway is re-elected.
        assert_eq!(noc.gateway_at(3, Cycle::new(100)), CoreId::new(48));
        assert_eq!(noc.gateway_at(3, Cycle::new(50)), CoreId::new(49));
    }

    #[test]
    fn whole_cluster_outage_leaves_the_static_gateway() {
        let mut noc = hier(64, 16);
        noc.install_faults("cluster:3/16@0-100".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        // No surviving member: the static gateway stands (the simulator's
        // re-homing layer redirects traffic away from the cluster).
        assert_eq!(noc.gateway_at(3, Cycle::new(50)), CoreId::new(48));
    }

    #[test]
    fn overlay_recovery_flows_through_the_installed_policy() {
        let mut noc = hier(64, 16);
        noc.install_faults("link:*@0-100000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 1, 50));
        let d = drain(&mut noc, Cycle::ZERO);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].at() < Cycle::new(100000),
            "overlay must escalate, not wait"
        );
        let merged = noc.recovery_stats().unwrap();
        assert!(merged.escalations > 0 || merged.reroutes > 0);
    }

    #[test]
    fn end_to_end_latency_is_recorded_once_per_message() {
        let mut noc = hier(64, 16);
        noc.submit(Cycle::ZERO, msg(1, 5, 50));
        noc.submit(Cycle::ZERO, msg(2, 1, 2));
        drain(&mut noc, Cycle::ZERO);
        assert_eq!(noc.stats().delivered, 2);
        assert_eq!(noc.stats().latency.count(), 2);
    }

    #[test]
    fn reset_stats_clears_members_too() {
        let mut noc = hier(64, 16);
        noc.submit(Cycle::ZERO, msg(1, 5, 50));
        drain(&mut noc, Cycle::ZERO);
        noc.reset_stats();
        assert_eq!(noc.stats().delivered, 0);
        noc.submit(Cycle::new(100), msg(2, 5, 50));
        let d = drain(&mut noc, Cycle::new(100));
        assert_eq!(d.len(), 1);
        assert_eq!(noc.stats().delivered, 1);
    }
}
