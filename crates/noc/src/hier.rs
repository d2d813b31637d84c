//! The hierarchical cluster interconnect (`hier`).
//!
//! NOCSTAR's four flat fabrics all degrade past a few hundred tiles: bus
//! bandwidth is chip-wide-serial, mesh diameter grows as sqrt(N), and
//! SMART/NOCSTAR bypass runs are cut short by contention on long paths.
//! Following TeraNoC-style hybrid designs, [`HierNoc`] composes two of the
//! existing fabric models into a two-level topology:
//!
//! * an **intra-cluster fabric** per cluster of `cluster_size` contiguous
//!   tiles — a shared bus (1-cycle arbitration + broadcast, as
//!   [`BusNoc`](crate::bus::BusNoc) with no faults) or a non-blocking
//!   crossbar (per-output-port arbitration, 1-cycle traversal);
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
//! tracks leg progress in a route table keyed by id and reports
//! *end-to-end* statistics: `latency` is submit-to-final-arrival, and
//! `no_contention` counts messages that matched their route's
//! zero-queueing floor. The cluster fabrics are compact arbiters with no
//! statistics or fault block of their own.
//!
//! `HierNoc` keeps an activity index: each member's next activity (the
//! clusters', then the overlay's) and their minimum. A cycle advances
//! only the members due at it, and `next_activity` reads the cached
//! minimum. Skipping the others is exact, since a member advanced before
//! its next activity does nothing (DESIGN.md §13, "How `HierNoc`
//! advances").
//!
//! Fault plans target the overlay: `link:L` clauses index the overlay
//! mesh's directed links (the cluster-local wires are short, wide and
//! assumed reliable). `HierNoc` has no fault block of its own: it reads
//! the overlay's plan and policy and counts its gateway failovers in the
//! overlay's recovery stats, so one block reports the whole fabric.
//! Whole clusters are taken offline via the fault plan's `cluster:K/S@..`
//! clause, which the *simulator* maps to slice offline windows — the
//! network itself keeps routing.

use crate::arrivals::land;
use crate::mesh::MeshNoc;
use crate::message::{Delivery, Message};
use crate::{FaultState, Interconnect, NocStats};
use cluster::ClusterArbiter;
use nocstar_faults::DiagSnapshot;
use nocstar_types::cluster::ClusterMap;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{CoreId, IdTable, MeshShape};

mod cluster;
mod reference;

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
    intra: IntraKind,
    /// Index-addressed per-cluster arbiters.
    clusters: Vec<ClusterArbiter>,
    /// The overlay: a contended mesh or SMART over the cluster grid.
    inter: MeshNoc,
    routes: IdTable<Route>,
    /// The activity index, always equal to what each member would
    /// report: every cluster's next activity as a cycle value, or
    /// [`IDLE`], and the overlay's.
    cluster_next: Vec<u64>,
    overlay_next: Option<Cycle>,
    /// The earliest of `cluster_next`; stale only inside `advance`,
    /// which rescans it at its end if the cluster that held it moved
    /// later.
    clusters_earliest: u64,
    stale: bool,
    stats: NocStats,
}

/// A cluster with no work in the activity index. An arbiter's activity
/// is a submit cycle or the cycle after a grant, so it never reaches
/// `u64::MAX` itself (the overlay's saturating fault penalties can, which
/// is why its entry stays an `Option`).
const IDLE: u64 = u64::MAX;

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
        let ports = match intra {
            IntraKind::Bus => 1,
            IntraKind::Xbar => cluster_size,
        };
        let clusters = vec![ClusterArbiter::new(ports); map.clusters()];
        let inter = match inter {
            InterKind::Mesh => MeshNoc::contended(overlay_shape),
            InterKind::Smart(hpc) => MeshNoc::new(overlay_shape, hpc),
        };
        Self {
            cluster_next: vec![IDLE; clusters.len()],
            overlay_next: None,
            map,
            overlay_shape,
            intra,
            clusters,
            inter,
            routes: IdTable::new(),
            clusters_earliest: IDLE,
            stale: false,
            stats: NocStats::with_links(0),
        }
    }

    /// Cluster `k`'s next activity is now `at`, no later than before.
    fn lower(&mut self, k: usize, at: Cycle) {
        let at = at.value();
        self.cluster_next[k] = self.cluster_next[k].min(at);
        self.clusters_earliest = self.clusters_earliest.min(at);
    }

    /// Cluster `k` was advanced and its next activity is now `at`, which
    /// may be later than before.
    fn refresh(&mut self, k: usize, at: Option<Cycle>) {
        let at = at.map_or(IDLE, Cycle::value);
        let was = std::mem::replace(&mut self.cluster_next[k], at);
        if at < self.clusters_earliest {
            self.clusters_earliest = at;
        } else if was == self.clusters_earliest && at != was {
            self.stale = true;
        }
    }

    /// Queues `leg` on cluster `k`'s arbiter at `now`.
    fn submit_leg(&mut self, k: usize, now: Cycle, leg: Message) {
        let port = match self.intra {
            IntraKind::Bus => 0,
            IntraKind::Xbar => leg.dst.index() - self.map.base(k),
        };
        if let Some(at) = self.clusters[k].submit(now, leg, port, self.intra) {
            self.lower(k, at);
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

    /// Routes one member-fabric delivery: forwards the next leg (`None`)
    /// or returns the final end-to-end delivery.
    fn step_route(&mut self, d: Delivery) -> Option<Delivery> {
        let Some(route) = self.routes.get_mut(d.msg.id) else {
            debug_assert!(false, "delivery for unrouted message {}", d.msg.id);
            return None;
        };
        let Route { msg, floor, .. } = *route;
        let cd = self.map.cluster_of(msg.dst);
        match route.stage {
            Stage::Direct | Stage::IntraDst => {
                let submitted_at = route.submitted_at;
                self.routes.remove(d.msg.id);
                return Some(land(&mut self.stats, msg, d.at(), submitted_at, floor));
            }
            Stage::IntraSrc => {
                // At the source gateway: hop onto the overlay, addressed
                // by cluster ids.
                route.stage = Stage::Overlay;
                let cs = CoreId::new(self.map.cluster_of(msg.src));
                let leg = Message::new(msg.id, cs, CoreId::new(cd), msg.kind);
                self.inter.submit(d.at(), leg);
                // The leg is a new flight, ready at `d.at()`.
                self.overlay_next = Some(self.overlay_next.map_or(d.at(), |at| at.min(d.at())));
            }
            Stage::Overlay => {
                // At the destination gateway: final intra leg.
                route.stage = Stage::IntraDst;
                let gw = self.gateway_at(cd, d.at());
                self.submit_leg(cd, d.at(), Message::new(msg.id, gw, msg.dst, msg.kind));
            }
        }
        self.stats.grants += 1;
        None
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
        self.submit_leg(cs, now, leg);
    }

    fn advance_into(&mut self, cycle: Cycle, out: &mut Vec<Delivery>) {
        // The due members append their landed legs to `out` past `start`.
        // Each pass then rewrites final legs in place as end-to-end
        // deliveries and drops the forwarded ones. A leg completing this
        // cycle may hand off to a member that was already advanced, so
        // cascade: re-advance the due members until no leg was forwarded.
        // Members tolerate repeated same-cycle advances (flights are gated
        // on their ready cycle), and a message has at most three legs, so
        // this terminates quickly.
        let mut start = out.len();
        loop {
            for k in 0..self.clusters.len() {
                if self.cluster_next[k] <= cycle.value() {
                    self.clusters[k].advance(cycle, self.intra, out);
                    let at = self.clusters[k].next_activity(self.intra);
                    self.refresh(k, at);
                }
            }
            if self.overlay_next.is_some_and(|at| at <= cycle) {
                self.inter.advance_into(cycle, out);
                self.overlay_next = self.inter.next_activity();
            }
            let landed = out.len();
            let mut kept = start;
            for i in start..landed {
                if let Some(d) = self.step_route(out[i]) {
                    out[kept] = d;
                    kept += 1;
                }
            }
            out.truncate(kept);
            if kept == landed {
                break;
            }
            start = kept;
        }
        if self.stale {
            self.clusters_earliest = self.cluster_next.iter().copied().min().unwrap_or(IDLE);
            self.stale = false;
        }
    }

    fn next_activity(&self) -> Option<Cycle> {
        let clusters = (self.clusters_earliest != IDLE).then(|| Cycle::new(self.clusters_earliest));
        match (clusters, self.overlay_next) {
            (Some(c), Some(o)) => Some(c.min(o)),
            (c, o) => c.or(o),
        }
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
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
            .iter()
            .map(|(_, r)| r.msg.pending(r.submitted_at, 0))
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
    fn reset_stats_restarts_the_end_to_end_counters() {
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
