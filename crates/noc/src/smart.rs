//! The SMART NoC baseline (Krishna et al., HPCA 2013; paper Table I).
//!
//! SMART lets a flit dynamically construct a multi-hop bypass over a mesh:
//! after a one-cycle setup (SA-G), the flit covers up to `HPCmax` hops per
//! cycle as long as the routers along the run are not claimed by another
//! flit that cycle; on contention it latches at the blocking router and
//! continues next cycle. Unlike NOCSTAR, bypass runs are opportunistic —
//! partial progress is made rather than retrying the whole path.
//!
//! SMART is the contended mesh's flit engine with a run limit above one
//! hop; [`crate::mesh`] tabulates where the two differ.

/// The SMART network model: [`MeshNoc`](crate::mesh::MeshNoc) built by
/// [`MeshNoc::new`](crate::mesh::MeshNoc::new).
///
/// # Examples
///
/// ```
/// use nocstar_noc::smart::SmartNoc;
/// use nocstar_noc::message::{Message, MsgKind};
/// use nocstar_noc::Interconnect;
/// use nocstar_types::{CoreId, Cycle, MeshShape};
///
/// let mut smart = SmartNoc::new(MeshShape::new(8, 8), 8);
/// smart.submit(Cycle::ZERO, Message::new(1, CoreId::new(0), CoreId::new(63), MsgKind::TlbRequest));
/// let mut d = Vec::new();
/// for c in 0..4 {
///     d.extend(smart.advance(Cycle::new(c)));
/// }
/// // 14 hops at HPCmax=8: 1 setup + 2 bypass cycles.
/// assert_eq!(d[0].at(), Cycle::new(3));
/// ```
pub type SmartNoc = crate::mesh::MeshNoc;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Delivery, Message, MsgKind};
    use crate::Interconnect;
    use nocstar_faults::RecoveryPolicy;
    use nocstar_types::time::{Cycle, Cycles};
    use nocstar_types::{CoreId, MeshShape};

    fn msg(id: u64, src: usize, dst: usize) -> Message {
        Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest)
    }

    fn drain(noc: &mut SmartNoc) -> Vec<Delivery> {
        crate::drain_until_idle(noc, Cycle::ZERO, 100_000).expect("smart did not quiesce")
    }

    #[test]
    fn same_cycle_deliveries_come_in_push_order() {
        // SA-G at cycle 0, the bypass run at 1 schedules the remote flit
        // for cycle 2; the local message is pushed at cycle 2, after it.
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        assert!(noc.advance(Cycle::ZERO).is_empty());
        assert!(noc.advance(Cycle::new(1)).is_empty());
        noc.submit(Cycle::new(2), msg(2, 1, 1));
        let d = noc.advance(Cycle::new(2));
        let order: Vec<(u64, u64)> = d.iter().map(|d| (d.msg.id, d.at().value())).collect();
        assert_eq!(order, [(1, 2), (2, 2)]);
    }

    #[test]
    fn outage_blocks_then_recovers_without_losing_the_flit() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.install_faults("link:*@0-50=off".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        assert!(d[0].at() >= Cycle::new(50));
        assert!(noc.fault_stats().unwrap().link_blocked > 0);
    }

    #[test]
    fn permanent_outage_escapes_after_retry_budget() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.install_faults("link:*@0-1000000=off; retry=3".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1, "escape path must deliver the flit");
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn reroute_detours_around_a_partial_outage() {
        // 4x4 mesh, first east link dead: the flit detours through the
        // next row instead of backing off.
        let mut noc = SmartNoc::new(MeshShape::new(4, 4), 8);
        noc.install_faults("link:0@0-1000000=off".parse().unwrap());
        noc.install_recovery("reroute".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.reroutes, 1);
        assert_eq!(rs.detour_extra_hops, 2);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 0);
        // Setup (1) + blocked detect (1) + 5-hop bypass run (1).
        assert_eq!(d[0].at(), Cycle::new(3));
    }

    #[test]
    fn escalation_escapes_faster_than_the_plan_budget() {
        let shape = MeshShape::new(4, 1);
        let open = {
            let mut noc = SmartNoc::new(shape, 8);
            noc.install_faults("link:*@0-1000000=off".parse().unwrap());
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at()
        };
        let mut noc = SmartNoc::new(shape, 8);
        noc.install_faults("link:*@0-1000000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let closed = drain(&mut noc)[0].at();
        assert!(closed < open, "{closed:?} vs {open:?}");
        assert_eq!(noc.recovery_stats().unwrap().escalations, 1);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn uncontended_latency_is_setup_plus_bypass_runs() {
        // 6 hops at HPCmax=8: 1 setup + 1 bypass cycle.
        let mut noc = SmartNoc::new(MeshShape::new(4, 4), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = drain(&mut noc);
        assert_eq!(d[0].at(), Cycle::new(2));
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn hpc_limits_bypass_length() {
        // 14 hops at HPCmax=4: 1 setup + ceil(14/4)=4 cycles.
        let mut noc = SmartNoc::new(MeshShape::new(8, 8), 4);
        noc.submit(Cycle::ZERO, msg(1, 0, 63));
        let d = drain(&mut noc);
        assert_eq!(d[0].at(), Cycle::new(5));
    }

    #[test]
    fn contention_latches_the_younger_flit_mid_path() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 2);
        let first = d.iter().find(|d| d.msg.id == 1).unwrap();
        let second = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert_eq!(first.at(), Cycle::new(2));
        assert!(second.at() > first.at());
        assert!(noc.stats().retries > 0);
    }

    #[test]
    fn partial_progress_beats_full_retry() {
        // Unlike NOCSTAR, a SMART flit blocked ahead still advances up to
        // the blocked router. Message 2's first link (1->2) conflicts with
        // message 1's run, but 2 advances as soon as 1's claim expires.
        let mut noc = SmartNoc::new(MeshShape::new(8, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 7));
        noc.submit(Cycle::ZERO, msg(2, 1, 7));
        let d = drain(&mut noc);
        let second = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert_eq!(second.at(), Cycle::new(3)); // setup, blocked cycle 1, bypass cycle 2
    }

    #[test]
    fn local_messages_skip_setup() {
        let mut noc = SmartNoc::new(MeshShape::new(4, 4), 8);
        noc.submit(Cycle::new(9), msg(1, 2, 2));
        let d = noc.advance(Cycle::new(9));
        assert_eq!(d[0].at(), Cycle::new(9));
    }

    proptest::proptest! {
        /// No message is lost or duplicated under arbitrary traffic.
        #[test]
        fn prop_smart_delivers_everything(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 0u64..30), 1..50),
            contended in proptest::prelude::any::<bool>(),
        ) {
            let shape = MeshShape::square_for(16);
            let hpc = if contended { 2 } else { 8 };
            let mut noc = SmartNoc::new(shape, hpc);
            for (i, &(src, dst, at)) in sends.iter().enumerate() {
                noc.submit(Cycle::new(at), msg(i as u64, src, dst));
            }
            let mut seen = std::collections::BTreeSet::new();
            let mut cycle = Cycle::ZERO;
            for _ in 0..100_000 {
                match noc.next_activity() {
                    None => break,
                    Some(next) => {
                        cycle = cycle.max(next);
                        for d in noc.advance(cycle) {
                            proptest::prop_assert!(seen.insert(d.msg.id), "duplicate");
                        }
                        cycle += Cycles::ONE;
                    }
                }
            }
            proptest::prop_assert_eq!(seen.len(), sends.len());
            proptest::prop_assert_eq!(noc.next_activity(), None);
        }
    }
}
