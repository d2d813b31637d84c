//! Sampled fast-forward replay (`SAMPLING.md`): functional fast-forward
//! legs that evolve architectural state without timing it, alternating
//! with detailed legs that each measure one window.
//!
//! A fast-forward leg warms the data caches and paging-structure caches on
//! one helper thread: the leg's thread keeps the trace feed, the TLBs and
//! the page tables, and queues every cache effect as a [`WarmOp`] on an
//! ordered FIFO that the helper applies in push order (`SAMPLING.md §6`).

use super::Simulation;
use crate::event::Event;
use crate::sampling::{self, SamplingReport, WindowSample};
use nocstar_faults::SimError;
use nocstar_mem::hierarchy::{Caches, WarmOp};
use nocstar_mem::walker::{pte_warm_ops, WalkLatency};
use nocstar_tlb::entry::TlbEntry;
use nocstar_types::time::Cycle;
use nocstar_types::{Asid, VirtPageNum};
use nocstar_workloads::sample::SampleSpec;
use nocstar_workloads::trace::{MemAccess, TraceEvent};
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Warming operations per batch sent to a leg's helper thread.
const WARM_BATCH: usize = 8192;
/// Full batches the FIFO holds before the leg's thread waits for the
/// helper.
const WARM_QUEUE: usize = 2;

/// The sending end of a fast-forward leg's warming FIFO: operations are
/// gathered into batches, and the helper returns each spent batch buffer
/// for reuse.
pub(super) struct WarmFeed {
    batch: Vec<WarmOp>,
    full: SyncSender<Vec<WarmOp>>,
    spent: Receiver<Vec<WarmOp>>,
}

impl WarmFeed {
    /// Queues `op` behind every operation queued before it.
    pub(super) fn push(&mut self, op: WarmOp) {
        self.batch.push(op);
        if self.batch.len() == WARM_BATCH {
            self.send();
        }
    }

    /// Sends the last, partial batch and hangs up, which ends the
    /// helper's loop once it has applied everything.
    fn finish(mut self) {
        self.send();
    }

    fn send(&mut self) {
        let empty = self
            .spent
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(WARM_BATCH));
        let batch = std::mem::replace(&mut self.batch, empty);
        // The helper hangs up only by panicking; the leg's join re-raises
        // that panic, so the batch is not needed.
        let _ = self.full.send(batch);
    }
}

/// A leg's helper thread: applies every batch in arrival order until the
/// feed hangs up, then hands the caches back.
fn apply_warming(
    mut caches: Caches,
    full: Receiver<Vec<WarmOp>>,
    spent: mpsc::Sender<Vec<WarmOp>>,
) -> Caches {
    for mut batch in full {
        for &op in &batch {
            caches.apply(op);
        }
        batch.clear();
        // The feed may already be gone at the end of the leg.
        let _ = spent.send(batch);
    }
    caches
}

/// Live state of a sampled run: the placement spec, the replayed span,
/// and how much of it was consumed functionally.
pub(super) struct SamplingState {
    pub(super) spec: SampleSpec,
    /// Total trace span, in accesses per thread.
    pub(super) span: u64,
    /// Accesses (all threads) consumed functionally so far.
    pub(super) ff_accesses: u64,
}

impl SamplingState {
    /// The report's `sampling` section (`SAMPLING.md §4`) over the
    /// harvested `windows`; its estimate list is empty when none
    /// completed.
    pub(super) fn section(&self, windows: &[WindowSample], threads: usize) -> SamplingReport {
        let spec = self.spec;
        let legs = windows.len() as u64;
        SamplingReport {
            spec: spec.to_string(),
            period: spec.period(),
            window: spec.window(),
            warmup: spec.warmup(),
            seed: spec.seed(),
            offset: spec.offset(),
            windows: legs,
            span_accesses_per_thread: self.span,
            accesses_fast_forwarded: self.ff_accesses,
            accesses_detailed: legs * (spec.warmup() + spec.window()) * threads as u64,
            estimates: sampling::estimates(windows, spec.window(), threads),
        }
    }
}

impl Simulation {
    /// Alternates functional fast-forward legs with detailed legs until
    /// the spec places no further window inside the span (`SAMPLING.md §1`
    /// state machine). The loop produces exactly
    /// [`SampleSpec::windows`]`(span)` measurement windows.
    pub(super) fn sampled_loop(
        &mut self,
        spec: SampleSpec,
        span: u64,
    ) -> Result<(), Box<SimError>> {
        let mut consumed = 0u64;
        let mut ff = spec.offset();
        while consumed + ff + spec.warmup() + spec.window() <= span {
            self.fast_forward(ff);
            consumed += ff;
            self.detailed_leg(spec.warmup(), spec.window())?;
            consumed += spec.warmup() + spec.window();
            self.harvest_window();
            ff = spec.slack();
        }
        Ok(())
    }

    /// Functionally consumes `quota` memory accesses per thread without
    /// advancing simulated time: architectural state (page tables, TLB and
    /// replica contents, ASID state, cache contents) evolves exactly as
    /// the trace dictates, but nothing is timed, counted, or sent over the
    /// network. Threads are drained round-robin, one access each, in
    /// thread-index order, so shared-state mutation order is deterministic
    /// (`SAMPLING.md §6`).
    ///
    /// The caches move to a helper thread for the leg and come back when
    /// it ends; the helper applies the warming operations in the order
    /// this thread queues them, so they end in the state sequential
    /// warming leaves. A panic on either thread ends the leg: this
    /// thread's unwinding drops the feed, which ends the helper, and a
    /// helper's panic is re-raised here.
    fn fast_forward(&mut self, quota: u64) {
        if quota > 0 {
            let caches = self.mem.detach_caches();
            let caches = std::thread::scope(|scope| {
                let (full, full_rx) = mpsc::sync_channel(WARM_QUEUE);
                let (spent_tx, spent) = mpsc::channel();
                let helper = scope.spawn(move || apply_warming(caches, full_rx, spent_tx));
                let mut feed = WarmFeed {
                    batch: Vec::with_capacity(WARM_BATCH),
                    full,
                    spent,
                };
                self.fast_forward_leg(quota, &mut feed);
                feed.finish();
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            });
            self.mem.attach_caches(caches);
        }
        if let Some(s) = &mut self.sampling {
            s.ff_accesses += quota * self.threads.len() as u64;
        }
    }

    /// [`fast_forward`](Self::fast_forward)'s trace loop, queueing every
    /// cache effect on `warm`.
    fn fast_forward_leg(&mut self, quota: u64, warm: &mut WarmFeed) {
        for _ in 0..quota {
            for t in 0..self.threads.len() {
                loop {
                    let (event, asid) = self.next_event(t);
                    match event {
                        TraceEvent::Access(a) => {
                            self.functional_access(t, asid, a, warm);
                            self.threads[t].accesses_done += 1;
                            break;
                        }
                        TraceEvent::ContextSwitch => {
                            self.context_switch_flush(self.threads[t].core, Some(warm));
                        }
                        TraceEvent::Remap(vpn) => {
                            if self.mem.remap(asid, vpn).is_some() {
                                self.functional_shootdown(asid, vpn);
                            }
                        }
                        TraceEvent::Promote(v2m) => {
                            self.premap_promoted(asid, v2m);
                            if let Some(stale) = self.mem.promote(asid, v2m) {
                                for vpn in stale {
                                    self.functional_shootdown(asid, vpn);
                                }
                            }
                        }
                        TraceEvent::Demote(v2m) => {
                            if let Some(stale) = self.mem.demote(asid, v2m) {
                                self.functional_shootdown(asid, stale);
                            }
                        }
                    }
                }
            }
        }
    }

    /// One access, functionally: the stat-free mirror of
    /// [`issue`](Self::issue)'s translation path. L1 and home-slice
    /// contents update through the stat-free `touch` entry points, misses
    /// demand-map and fill through `MemorySystem::resolve_walk`, and the
    /// same adjacent-page prefetch fills fire — so the TLB state a measurement window starts
    /// from matches what an exact replay would have left behind, up to
    /// timing-dependent interleaving (`SAMPLING.md §2`).
    ///
    /// The memory side warms functionally too: every access queues a touch
    /// of the data-cache hierarchy at the translated physical address on
    /// `warm`, and every would-be walk queues touches of the PWC and PTE
    /// cache lines — otherwise each measurement window would start from
    /// stale-warm caches and charge inflated miss latencies the exact
    /// replay never sees.
    fn functional_access(&mut self, t: usize, asid: Asid, access: MemAccess, warm: &mut WarmFeed) {
        let va = access.va;
        let core = self.threads[t].core;
        if let Some(entry) = self.l1s[core.index()].touch(asid, va) {
            // An L1 entry exists only for a mapped page, and mapped-ness is
            // monotone — the demand-map check below would be a no-op.
            warm.push(WarmOp::access(core, entry.translate(va)));
            return;
        }
        let size = self.traces[t].backing(va);
        // The home is keyed by the workload's backing page size, exactly
        // as the issue path keys its lookup transaction.
        let home_vpn = va.page_number(size);
        let (home_idx, _) = self.org.home_of(home_vpn, core);
        if let Some(entry) = self.org.structure_mut(home_idx).touch(asid, home_vpn) {
            self.l1s[core.index()].insert(entry);
            warm.push(WarmOp::access(core, entry.translate(va)));
            return;
        }
        // Slice miss: a walk would resolve the page-table leaf (demand-
        // mapping on first touch), fill both levels, and pull the PTE
        // lines through the walking core's caches (variable-latency walks
        // only — fixed-latency walks never touch the hierarchy).
        let (vpn, ppn, pte_addrs) = self.mem.resolve_walk(asid, va, size);
        if self.config.walk_latency == WalkLatency::Variable {
            for op in pte_warm_ops(core, pte_addrs) {
                warm.push(op);
            }
        }
        let entry = TlbEntry::new(asid, vpn, ppn);
        self.org.structure_mut(home_idx).insert(entry);
        self.l1s[core.index()].insert(entry);
        warm.push(WarmOp::access(core, entry.translate(va)));
        self.functional_prefetch(home_vpn, asid);
    }

    /// [`prefetch_around`](Self::prefetch_around) minus timing and
    /// energy: fills the neighbours' home slices directly.
    fn functional_prefetch(&mut self, vpn: VirtPageNum, asid: Asid) {
        for (idx, entry) in self.prefetch_fills(vpn, asid) {
            self.org.structure_mut(idx).insert(entry);
        }
    }

    /// [`shootdown`](Self::shootdown) minus timing, counting and
    /// messaging: the stale translation leaves every L1 and every home
    /// structure immediately (re-homed backups cannot exist — sampled mode
    /// rejects recovery).
    fn functional_shootdown(&mut self, asid: Asid, vpn: VirtPageNum) {
        for l1 in &mut self.l1s {
            l1.invalidate(asid, vpn);
        }
        self.org.invalidate(asid, vpn);
    }

    /// One detailed leg: `warmup` cycle-accurate accesses per thread whose
    /// statistics are discarded at the boundary (the existing
    /// [`reset_statistics`](Self::reset_statistics) warmup machinery),
    /// then `window` measured accesses per thread. Resumes simulated time at the latest per-thread
    /// finish of the previous leg, so time stays monotone across legs.
    fn detailed_leg(&mut self, warmup: u64, window: u64) -> Result<(), Box<SimError>> {
        let done = self.threads[0].accesses_done;
        debug_assert!(
            self.threads.iter().all(|th| th.accesses_done == done),
            "threads drifted between legs"
        );
        self.warm_target = done + warmup;
        self.warm_crossed = 0;
        self.target = done + warmup + window;
        self.completed_threads = 0;
        let resume = self
            .threads
            .iter()
            .map(|th| th.finish_time)
            .fold(self.now, Cycle::max);
        for t in 0..self.threads.len() {
            self.threads[t].finished = false;
            self.events.push(resume, Event::ThreadNext(t));
        }
        self.event_loop()
    }
}
