//! The translation path: an L1 miss sends a request to the home
//! structure, the structure does its SRAM lookup, a page walk runs on a
//! miss, and the response returns to the requester. Also the chip-wide
//! shootdown and the network deliveries that carry each leg.

use super::rehome::ResolvedHome;
use super::{trace_kind, Simulation, SLICE_COMPONENT_BASE};
use crate::config::{TlbOrg, WalkPolicy};
use crate::event::Event;
use crate::network::NetworkModel;
use nocstar_energy::model;
use nocstar_faults::SimError;
use nocstar_mem::hierarchy::ServicedBy;
use nocstar_noc::message::{Delivery, Message, MsgKind};
use nocstar_stats::tracing::TraceRecord;
use nocstar_tlb::entry::TlbEntry;
use nocstar_tlb::shootdown::Invalidation;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Asid, CoreId, VirtAddr, VirtPageNum};

/// Out-of-order cores overlap most data-miss latency with independent
/// work; translation latency, in contrast, serializes in front of the
/// access (paper §I). Data accesses therefore charge their L1 latency in
/// full and only 1/8 of any additional miss latency.
const DATA_MLP_SHIFT: u32 = 3;

/// Pipeline-replay penalty charged once per L2 TLB miss, on top of the
/// page-walk latency. An out-of-order core squashes and replays the
/// instructions dependent on a translation miss; prior work measures this
/// replay cost as a first-order component of the "address translation
/// wall" (Bhattacharjee, MICRO Top Picks 2018). Without it, miss-rate
/// differences between organizations under-contribute to runtime relative
/// to the paper's Table III sensitivity results.
const WALK_REPLAY_PENALTY: Cycles = Cycles::new(40);

#[derive(Debug, Clone, Copy)]
pub(super) struct LookupTx {
    thread: usize,
    requester: CoreId,
    va: VirtAddr,
    asid: Asid,
    vpn: VirtPageNum,
    is_write: bool,
    issued_at: Cycle,
    /// The structure servicing this lookup, resolved at issue time.
    home: ResolvedHome,
    /// The translation, once known (slice hit or completed walk).
    entry: Option<TlbEntry>,
    /// Whether the slice-level concurrency trackers were closed.
    tracker_closed: bool,
    /// When the home structure's lookup result became available — the
    /// boundary between slice time and walk/response time in the per-core
    /// stall breakdown.
    slice_done_at: Cycle,
    /// Walk cycles (including the replay penalty) charged to this access.
    walk_cycles: u64,
}

/// An in-flight transaction, keyed by its message id.
#[derive(Debug, Clone, Copy)]
pub(super) enum TxState {
    Lookup(LookupTx),
    Insert(TlbEntry),
    Inval {
        inv: Invalidation,
        home_idx: usize,
        /// Next hop: false = travelling to the leader (dropped there — the
        /// leader relays on its own), true = travelling to the home slice.
        at_leader: bool,
    },
}

impl Simulation {
    pub(super) fn issue(&mut self, t: usize) -> Result<(), Box<SimError>> {
        let Some(pending) = self.threads[t].pending.take() else {
            return Err(
                self.protocol_error(format!("issue event for thread {t} with no pending access"))
            );
        };
        let core = self.threads[t].core;
        let asid = pending.asid;
        let access = pending.access;
        let va = access.va;
        self.stats.energy.add_l1_lookup();
        if let Some(entry) = self.l1s[core.index()].lookup(asid, va) {
            // L1 TLB hit: translation overlaps the L1-cache access. An L1
            // entry exists only for a mapped page, and mapped-ness is
            // monotone, so there is nothing to demand-map.
            let pa = entry.translate(va);
            let data = self.mem.access(core, pa, access.is_write);
            self.complete_access(t, self.now + data_cost(data.latency));
            return Ok(());
        }
        // L1 miss: go to the L2 organization. Miss detection costs the
        // one-cycle L1 lookup.
        let size = self.traces[t].backing(va);
        // Demand-map on first touch at the workload's chosen page size.
        if self.mem.translate(asid, va).is_none() {
            self.mem.ensure_mapped(asid, va, size);
        }
        let t_req = self.now + Cycles::ONE;
        let vpn = va.page_number(size);
        let home = self.resolve_home(vpn, core);
        let id = self.alloc_tx();
        let lookup = LookupTx {
            thread: t,
            requester: core,
            va,
            asid,
            vpn,
            is_write: access.is_write,
            issued_at: self.now,
            home,
            entry: None,
            tracker_closed: false,
            slice_done_at: self.now,
            walk_cycles: 0,
        };
        self.trace.emit(TraceRecord {
            cycle: self.now.value(),
            component: core.index() as u32,
            kind: trace_kind::ISSUE,
            a: va.value(),
            b: t as u64,
        });
        self.org.chip_tracker.begin();
        self.org.trackers[home.idx].begin();
        self.txs.insert(id, TxState::Lookup(lookup));
        if self.is_local(&lookup) {
            self.schedule_slice_lookup(id, t_req)?;
        } else {
            self.charge_message(core, home.tile);
            self.net.submit(
                t_req,
                Message::new(id, core, home.tile, MsgKind::TlbRequest),
            );
        }
        Ok(())
    }

    /// Schedules the home structure's SRAM lookup starting at `at` and
    /// performs the functional lookup. A slice inside an injected offline
    /// window answers miss-only: the lookup reads nothing (and inserts are
    /// dropped), but the structure stays electrically present, so the
    /// request falls back to a page walk instead of being lost.
    fn schedule_slice_lookup(&mut self, id: u64, at: Cycle) -> Result<(), Box<SimError>> {
        let Some(TxState::Lookup(mut lookup)) = self.txs.get(id).copied() else {
            return Err(self.protocol_error(format!("slice lookup for unknown transaction {id}")));
        };
        if !self.faults.is_empty() {
            let off = self.faults.slice_offline(lookup.home.idx, at.value());
            self.org.structure_mut(lookup.home.idx).set_offline(off);
            if off {
                self.stats.fault_slice_misses += 1;
                self.trace.emit(TraceRecord {
                    cycle: at.value(),
                    component: SLICE_COMPONENT_BASE + lookup.home.idx as u32,
                    kind: trace_kind::FAULT,
                    a: 1,
                    b: 0,
                });
            }
        }
        self.stats.energy.add_l2_lookup(self.org.lookup_pj());
        let slice = self.org.structure_mut(lookup.home.idx);
        let done = slice.schedule_read(at);
        lookup.entry = slice.lookup(lookup.asid, lookup.vpn);
        self.txs.insert(id, TxState::Lookup(lookup));
        self.events.push(done, Event::SliceDone(id));
        Ok(())
    }

    pub(super) fn slice_done(&mut self, id: u64) -> Result<(), Box<SimError>> {
        let Some(TxState::Lookup(mut lookup)) = self.txs.get(id).copied() else {
            return Err(self.protocol_error(format!("slice done for unknown transaction {id}")));
        };
        // The L2 access itself is over: close the concurrency trackers.
        if !lookup.tracker_closed {
            lookup.tracker_closed = true;
            lookup.slice_done_at = self.now;
            self.org.chip_tracker.end();
            self.org.trackers[lookup.home.idx].end();
            self.txs.insert(id, TxState::Lookup(lookup));
            self.trace.emit(TraceRecord {
                cycle: self.now.value(),
                component: SLICE_COMPONENT_BASE + lookup.home.idx as u32,
                kind: trace_kind::SLICE_DONE,
                a: lookup.va.value(),
                b: lookup.entry.is_some() as u64,
            });
        }
        let local = self.is_local(&lookup);
        match (lookup.entry, local) {
            (Some(_), true) => self.complete_translation(id)?,
            (Some(_), false) => self.respond(id, &lookup)?,
            (None, _) => {
                // Slice miss: walk per policy.
                let walk_here = local || self.config.walk_policy == WalkPolicy::AtRemote;
                if walk_here {
                    let walk_core = if local {
                        lookup.requester
                    } else {
                        lookup.home.tile
                    };
                    self.start_walk(id, walk_core)?;
                } else {
                    // Miss message back to the requester, which walks.
                    self.respond(id, &lookup)?;
                }
            }
        }
        Ok(())
    }

    /// Whether `lookup`'s home is reachable without the interconnect: on
    /// the requester's own tile, or in an organization without a network.
    fn is_local(&self, lookup: &LookupTx) -> bool {
        lookup.home.tile == lookup.requester || matches!(self.net, NetworkModel::None)
    }

    /// Sends lookup `id`'s response — a translation or a miss — from its
    /// home back to the requester.
    fn respond(&mut self, id: u64, lookup: &LookupTx) -> Result<(), Box<SimError>> {
        self.charge_message(lookup.home.tile, lookup.requester);
        self.net.respond(
            Message::new(id, lookup.home.tile, lookup.requester, MsgKind::TlbResponse),
            self.now,
        )
    }

    /// Removes and returns a lookup transaction, or a protocol error if it
    /// is missing or of another kind (the caller just observed it).
    fn take_lookup(&mut self, id: u64) -> Result<LookupTx, Box<SimError>> {
        match self.txs.remove(id) {
            Some(TxState::Lookup(l)) => Ok(l),
            other => {
                if let Some(state) = other {
                    self.txs.insert(id, state);
                }
                Err(self.protocol_error(format!("transaction {id} vanished mid-completion")))
            }
        }
    }

    fn start_walk(&mut self, id: u64, walk_core: CoreId) -> Result<(), Box<SimError>> {
        let Some(TxState::Lookup(mut lookup)) = self.txs.get(id).copied() else {
            return Err(self.protocol_error(format!("walk for unknown transaction {id}")));
        };
        // Cluster-homed organizations may shift the walk to the home
        // tile's walker when it is free strictly earlier; both candidates
        // are in the requester's cluster, so no overlay traffic is added.
        // A re-homed lookup's backup lives in *another* cluster, so the
        // walk stays where it is (no cross-cluster walker stealing).
        let walk_core = match self.config.org {
            TlbOrg::Hier { cluster_size, .. }
                if walk_core.index() / cluster_size == lookup.home.tile.index() / cluster_size =>
            {
                nocstar_mem::walker::cluster_walker(
                    walk_core,
                    lookup.home.tile,
                    cluster_size,
                    &self.walker_free,
                )
            }
            _ => walk_core,
        };
        let start = self.now.max(self.walker_free[walk_core.index()]);
        let multiplier = if self.faults.is_empty() {
            1
        } else {
            self.faults.walk_multiplier(self.now.value())
        };
        if multiplier > 1 {
            self.stats.fault_walk_spikes += 1;
            self.trace.emit(TraceRecord {
                cycle: self.now.value(),
                component: walk_core.index() as u32,
                kind: trace_kind::FAULT,
                a: 2,
                b: multiplier,
            });
        }
        let result = self.mem.walk_spiked(
            walk_core,
            lookup.asid,
            lookup.va,
            self.config.walk_latency,
            multiplier,
        );
        self.stats.walks += 1;
        if result.touched_llc_or_memory() {
            self.stats.walks_llc_or_mem += 1;
        }
        for read in result.pte_reads.iter() {
            self.stats.energy.add_walk_access(match read {
                ServicedBy::Pwc => model::PWC_PJ,
                ServicedBy::L1 => model::L1_CACHE_PJ,
                ServicedBy::L2 => model::L2_CACHE_PJ,
                ServicedBy::Llc => model::LLC_CACHE_PJ,
                ServicedBy::Dram => model::DRAM_PJ,
            });
        }
        // Saturating: a `walk=xN` spike may stretch the walk to u64::MAX.
        let walker_free = start.saturating_add(result.latency);
        let done = walker_free.saturating_add(WALK_REPLAY_PENALTY);
        self.walker_free[walk_core.index()] = walker_free;
        debug_assert_eq!(result.vpn, lookup.vpn, "walk resolved a different page");
        lookup.entry = Some(TlbEntry::new(lookup.asid, result.vpn, result.ppn));
        lookup.walk_cycles = lookup.walk_cycles.saturating_add((done - self.now).value());
        self.txs.insert(id, TxState::Lookup(lookup));
        self.events.push(done, Event::WalkDone(id));
        Ok(())
    }

    pub(super) fn walk_done(&mut self, id: u64) -> Result<(), Box<SimError>> {
        let Some(TxState::Lookup(lookup)) = self.txs.get(id).copied() else {
            return Err(self.protocol_error(format!("walk done for unknown transaction {id}")));
        };
        let Some(entry) = lookup.entry else {
            return Err(
                self.protocol_error(format!("walk for transaction {id} stored no translation"))
            );
        };
        self.trace.emit(TraceRecord {
            cycle: self.now.value(),
            component: lookup.requester.index() as u32,
            kind: trace_kind::WALK_DONE,
            a: lookup.va.value(),
            b: lookup.walk_cycles,
        });
        self.prefetch_around(lookup.vpn, lookup.asid);
        let local = self.is_local(&lookup);
        let walked_at_requester = local || self.config.walk_policy == WalkPolicy::AtRequester;
        if walked_at_requester {
            // Insert into the home structure (remotely if needed), then the
            // translation is immediately usable at the requester.
            if local {
                self.insert_resolved(lookup.home, entry);
            } else {
                let iid = self.alloc_tx();
                self.txs.insert(iid, TxState::Insert(entry));
                self.charge_message(lookup.requester, lookup.home.tile);
                self.net.submit(
                    self.now,
                    Message::new(iid, lookup.requester, lookup.home.tile, MsgKind::Insert),
                );
            }
            self.complete_translation(id)?;
        } else {
            // Walked at the remote node: insert locally, respond.
            self.insert_resolved(lookup.home, entry);
            self.respond(id, &lookup)?;
        }
        Ok(())
    }

    pub(super) fn insert_home(&mut self, home_idx: usize, entry: TlbEntry) {
        let now = self.now;
        if !self.faults.is_empty() {
            let off = self.faults.slice_offline(home_idx, now.value());
            self.org.structure_mut(home_idx).set_offline(off);
        }
        self.stats.energy.add_l2_lookup(self.org.lookup_pj());
        let slice = self.org.structure_mut(home_idx);
        slice.schedule_write(now);
        slice.insert(entry);
    }

    /// Adjacent-page prefetching into the shared structures (Table III).
    fn prefetch_around(&mut self, vpn: VirtPageNum, asid: Asid) {
        for (idx, entry) in self.prefetch_fills(vpn, asid) {
            self.insert_home(idx, entry);
        }
    }

    /// The prefetch fills a walk of `vpn` triggers: one entry per
    /// neighbouring candidate page mapped at that exact page size, with
    /// the index of the home structure it fills.
    pub(super) fn prefetch_fills(&self, vpn: VirtPageNum, asid: Asid) -> Vec<(usize, TlbEntry)> {
        if !self.config.prefetch.is_enabled() {
            return Vec::new();
        }
        self.config
            .prefetch
            .candidates(vpn)
            .filter_map(|cand| {
                let (mapped_vpn, ppn) = self.mem.translate(asid, cand.base())?;
                (mapped_vpn == cand).then(|| {
                    let (idx, _) = self.org.home_of(cand, CoreId::new(0));
                    (idx, TlbEntry::new(asid, cand, ppn))
                })
            })
            .collect()
    }

    /// Retires lookup `id` at its requester: records the latency, fills
    /// the L1 and performs the data access.
    fn complete_translation(&mut self, id: u64) -> Result<(), Box<SimError>> {
        let lookup = self.take_lookup(id)?;
        debug_assert!(lookup.tracker_closed, "trackers left open");
        let Some(entry) = lookup.entry else {
            return Err(self.protocol_error(format!(
                "translation for {} completed unresolved",
                lookup.va
            )));
        };
        let total = self.now - lookup.issued_at;
        self.stats.translation_latency.record(total);
        let core = lookup.requester.index();
        let slice_stall = (lookup.slice_done_at - lookup.issued_at).value();
        let response_stall = total
            .value()
            .saturating_sub(slice_stall.saturating_add(lookup.walk_cycles));
        self.metrics.add(self.stall_slice[core], slice_stall);
        self.metrics.add(self.stall_walk[core], lookup.walk_cycles);
        self.metrics.add(self.stall_response[core], response_stall);
        self.trace.emit(TraceRecord {
            cycle: self.now.value(),
            component: core as u32,
            kind: trace_kind::TRANSLATION_DONE,
            a: lookup.va.value(),
            b: total.value(),
        });
        if lookup.home.rehomed {
            self.stats.recovered_translations += 1;
            if let Some(r) = self.rehomed.get_mut(&lookup.home.orig_idx) {
                if !r.first_served {
                    r.first_served = true;
                    self.stats
                        .detect_to_recovered
                        .record((self.now - r.since).value());
                }
            }
        } else if lookup.home.degraded {
            self.stats.degraded_translations += 1;
        }
        self.l1s[lookup.requester.index()].insert(entry);
        let pa = entry.translate(lookup.va);
        let data = self.mem.access(lookup.requester, pa, lookup.is_write);
        self.complete_access(lookup.thread, self.now + data_cost(data.latency));
        Ok(())
    }

    fn complete_access(&mut self, t: usize, done: Cycle) {
        let state = &mut self.threads[t];
        state.accesses_done += 1;
        state.finish_time = done;
        self.last_progress = self.last_progress.max(self.now);
        if self.warm_target > 0 && state.accesses_done == self.warm_target {
            self.warm_cross_time[t] = done;
            self.warm_crossed += 1;
            if self.warm_crossed == self.threads.len() {
                self.reset_statistics();
            }
        }
        let state = &mut self.threads[t];
        if state.accesses_done >= self.target {
            state.finished = true;
            self.completed_threads += 1;
        } else {
            self.events.push(done, Event::ThreadNext(t));
        }
    }

    /// Invalidates a stale translation chip-wide.
    ///
    /// With `ipi_broadcast`, every core's interrupt handler relays an
    /// invalidation message per the leader policy (§III-G): with no
    /// leaders, all cores' messages converge on the home slice; with
    /// leaders, non-leader cores message their leader (which drops the
    /// duplicates) and each leader relays one message to the slice.
    /// Without `ipi_broadcast` (superpage promotion/demotion churn), only
    /// the initiating core relays.
    pub(super) fn shootdown(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
        initiator: CoreId,
        ipi_broadcast: bool,
    ) {
        // An injected shootdown storm escalates single-relay invalidations
        // (promotion/demotion churn) into full IPI broadcasts, flooding
        // the leader-policy relay tree with worst-case traffic.
        let storm_forced =
            !ipi_broadcast && !self.faults.is_empty() && self.faults.storm_active(self.now.value());
        let ipi_broadcast = ipi_broadcast || storm_forced;
        if storm_forced {
            self.stats.fault_storm_relays += 1;
            self.trace.emit(TraceRecord {
                cycle: self.now.value(),
                component: initiator.index() as u32,
                kind: trace_kind::FAULT,
                a: 3,
                b: 0,
            });
        }
        self.stats.shootdowns += 1;
        // IPIs reach every core: private L1s drop the stale translation.
        for l1 in &mut self.l1s {
            l1.invalidate(asid, vpn);
        }
        // Re-homing may have placed copies outside the static homes the
        // invalidation messages target. The IPI reaches every tile, so
        // each active backup drops its redirected copy immediately.
        if !self.rehomed.is_empty() {
            let mut backups: Vec<usize> = Vec::new();
            for r in self.rehomed.values_mut() {
                if r.inserted.remove(&(asid, vpn)) {
                    backups.push(r.backup_idx);
                }
            }
            for b in backups {
                self.org.structure_mut(b).invalidate(asid, vpn);
            }
        }
        if matches!(self.net, NetworkModel::None) {
            // Each core's interrupt handler invalidates its own L2
            // (private), or a zero-latency interconnect reaches the
            // slices directly (ideal shared, ideal monolithic).
            self.org.invalidate(asid, vpn);
            return;
        }
        match self.config.org {
            TlbOrg::Hier { .. } => {
                // Every cluster replicates the residue map, so each
                // cluster's home slice must be invalidated. Leader
                // policies are bypassed: the natural relay tree is the
                // cluster itself — under a broadcast each core messages
                // its *own* cluster's home (all traffic intra-cluster);
                // otherwise the initiator fans out one invalidation per
                // cluster replica (the only traffic class that rides the
                // overlay).
                let inv = Invalidation { asid, vpn };
                let targets: Vec<(CoreId, usize, CoreId)> = if ipi_broadcast {
                    CoreId::all(self.config.cores)
                        .map(|core| {
                            let (home_idx, home_tile) = self.org.home_of(vpn, core);
                            (core, home_idx, home_tile)
                        })
                        .collect()
                } else {
                    self.org
                        .homes_of(vpn)
                        .into_iter()
                        .map(|(home_idx, home_tile)| (initiator, home_idx, home_tile))
                        .collect()
                };
                for (src, home_idx, home_tile) in targets {
                    self.send_invalidation(src, home_tile, inv, home_idx, true);
                }
            }
            // The flat organizations with a network: monolithic over a
            // mesh or SMART, distributed and NOCSTAR.
            _ => {
                let (home_idx, home_tile) = self.org.home_of(vpn, initiator);
                let inv = Invalidation { asid, vpn };
                let relayers: Vec<CoreId> = if ipi_broadcast {
                    CoreId::all(self.config.cores).collect()
                } else {
                    vec![initiator]
                };
                for core in relayers {
                    let leader = self.config.leader_policy.leader_for(core);
                    // Leaders (and direct-to-slice policies) send the slice
                    // leg; other cores send an IPI-relay leg to their
                    // leader, which is dropped on arrival (the leader's own
                    // message carries the invalidation).
                    let (dst, at_leader) = if leader == core {
                        (home_tile, true)
                    } else {
                        (leader, false)
                    };
                    self.send_invalidation(core, dst, inv, home_idx, at_leader);
                }
            }
        }
    }

    /// Sends one invalidation leg from `src` to `dst` for the home
    /// structure `home_idx`; `at_leader` marks the leg that reaches it.
    fn send_invalidation(
        &mut self,
        src: CoreId,
        dst: CoreId,
        inv: Invalidation,
        home_idx: usize,
        at_leader: bool,
    ) {
        let id = self.alloc_tx();
        self.txs.insert(
            id,
            TxState::Inval {
                inv,
                home_idx,
                at_leader,
            },
        );
        self.charge_message(src, dst);
        self.net
            .submit(self.now, Message::new(id, src, dst, MsgKind::Invalidation));
    }

    pub(super) fn handle_delivery(&mut self, d: Delivery) -> Result<(), Box<SimError>> {
        let id = d.msg.id;
        match d.msg.kind {
            MsgKind::TlbRequest => self.schedule_slice_lookup(id, d.at())?,
            MsgKind::TlbResponse => {
                let Some(TxState::Lookup(lookup)) = self.txs.get(id).copied() else {
                    return Err(
                        self.protocol_error(format!("response for unknown transaction {id}"))
                    );
                };
                if lookup.entry.is_some() {
                    self.complete_translation(id)?;
                } else {
                    // Miss reply: walk at the requesting core (Fig 17).
                    self.start_walk(id, lookup.requester)?;
                }
            }
            MsgKind::Insert => {
                let Some(TxState::Insert(entry)) = self.txs.remove(id) else {
                    return Err(self.protocol_error(format!("insert for unknown transaction {id}")));
                };
                let vpn = entry.vpn();
                // Resolve at delivery time: if the static home went
                // offline while this insert was in flight, it lands at
                // the current backup (and is tracked for the handoff).
                let home = self.resolve_home(vpn, d.msg.dst);
                self.insert_resolved(home, entry);
            }
            MsgKind::Invalidation => {
                let Some(TxState::Inval {
                    inv,
                    home_idx,
                    at_leader,
                    ..
                }) = self.txs.remove(id)
                else {
                    return Err(
                        self.protocol_error(format!("invalidation for unknown transaction {id}"))
                    );
                };
                if at_leader {
                    // Arrived at the slice: invalidate (uses a write port).
                    let now = self.now;
                    let slice = self.org.structure_mut(home_idx);
                    slice.schedule_write(now);
                    slice.invalidate(inv.asid, inv.vpn);
                }
                // Non-leader relays end at the leader: the leader's own
                // direct message performs the slice invalidation.
            }
        }
        Ok(())
    }

    fn charge_message(&mut self, src: CoreId, dst: CoreId) {
        if let Some(design) = self.energy_design {
            let hops = self.mesh.hops(src, dst);
            let e = model::message_energy(design, hops);
            self.stats.energy.add_noc(e.link + e.switch + e.control);
        }
    }

    fn alloc_tx(&mut self) -> u64 {
        self.next_tx += 1;
        self.next_tx
    }
}

/// The visible cost of a data access under out-of-order overlap: the L1
/// latency in full, plus 1/8 of anything beyond it (see [`DATA_MLP_SHIFT`]).
fn data_cost(latency: Cycles) -> Cycles {
    let l1 = 4u64;
    let l = latency.value();
    Cycles::new(l.min(l1) + (l.saturating_sub(l1) >> DATA_MLP_SHIFT))
}
