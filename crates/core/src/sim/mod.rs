//! The event-driven full-system simulation.
//!
//! One [`Simulation`] runs one configuration over one workload assignment
//! for a fixed number of memory accesses per hardware thread, and produces
//! a [`SimReport`]. Time advances event-to-event; interconnect arbitration
//! is resolved cycle-exactly whenever messages are in flight (see
//! `nocstar-noc`), and skipped entirely while the network is idle.
//!
//! This module holds the run entry points, the event loop and the thread
//! lifecycle; `translate`, `rehome`, `sampled` and `harvest` hold the
//! translation path, slice re-homing, sampled replay and report assembly.
//! The in-flight transactions they share sit in an [`IdTable`] keyed by
//! message id, and the events they schedule in one [`Calendar`].

mod harvest;
mod rehome;
mod sampled;
mod tests;
mod translate;

use crate::assignment::WorkloadAssignment;
use crate::config::{SystemConfig, TlbOrg};
use crate::event::Event;
use crate::network::NetworkModel;
use crate::org::OrgState;
use crate::report::SimReport;
use crate::sampling::WindowSample;
use nocstar_energy::model::NocDesign;
use nocstar_faults::{DiagSnapshot, FaultPlan, RecoveryPolicy, SimError};
use nocstar_mem::hierarchy::{MemoryConfig, MemorySystem, WarmOp};
use nocstar_noc::message::Delivery;
use nocstar_stats::metrics::{CounterId, MetricsRegistry};
use nocstar_stats::tracing::TraceSink;
use nocstar_tlb::l1::L1Tlb;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Asid, Calendar, CoreId, IdTable, MeshShape, PageSize, VirtAddr, VirtPageNum};
use nocstar_workloads::sample::SampleSpec;
use nocstar_workloads::trace::{MemAccess, TraceEvent, TraceSource};
use rehome::Rehome;
use sampled::{SamplingState, WarmFeed};
use std::collections::BTreeMap;
use translate::TxState;

pub(crate) use harvest::RunStats;

/// Cycles a thread loses to a context-switch trap.
const CTX_SWITCH_COST: Cycles = Cycles::new(200);
/// Cycles the initiating thread spends in the OS for one shootdown batch.
const SHOOTDOWN_COST: Cycles = Cycles::new(50);

/// Event-kind ids for the
/// [`TraceRecord`](nocstar_stats::tracing::TraceRecord)s the simulation
/// emits when [`SystemConfig::trace_capacity`] is nonzero. The component
/// id is the requesting core's index, except for
/// [`trace_kind::SLICE_DONE`], whose component is [`SLICE_COMPONENT_BASE`]
/// plus the structure index.
pub mod trace_kind {
    /// An access missed the L1 TLB and entered the L2 path
    /// (`a` = virtual address, `b` = hardware-thread index).
    pub const ISSUE: u16 = 1;
    /// The home structure's SRAM lookup finished
    /// (`a` = virtual address, `b` = 1 on a slice hit, 0 on a miss).
    pub const SLICE_DONE: u16 = 2;
    /// A page-table walk (plus replay penalty) finished
    /// (`a` = virtual address, `b` = walk cycles charged).
    pub const WALK_DONE: u16 = 3;
    /// The translation reached the requesting core
    /// (`a` = virtual address, `b` = end-to-end translation cycles).
    pub const TRANSLATION_DONE: u16 = 4;
    /// An injected fault acted on this component
    /// (`a` = fault class: 1 slice-offline miss, 2 walk-latency spike,
    /// 3 storm-forced relay; `b` = class detail, e.g. the multiplier).
    pub const FAULT: u16 = 5;
}

/// Trace component ids at or above this value denote L2 TLB structures
/// (`SLICE_COMPONENT_BASE + structure index`); below it, core indices.
pub const SLICE_COMPONENT_BASE: u32 = 1 << 16;

/// Iterations the event loop may spend on one simulated cycle before the
/// livelock watchdog fires: the legal same-cycle work (events due now plus
/// one network advance) is bounded by the transaction population, which is
/// itself bounded by the thread count — far below this.
const SAME_CYCLE_SPIN_LIMIT: u64 = 100_000;

/// A structured simulation failure: the typed error plus the partial
/// report harvested from whatever the run completed before aborting.
///
/// Returned (boxed — the report is large) by [`Simulation::try_run`],
/// [`Simulation::try_run_measured`] and [`Simulation::try_run_sampled`].
/// The partial report's `cycles` and per-thread counters cover the work
/// finished before the abort, so a budget-limited sweep can still plot
/// what it measured.
#[derive(Debug)]
pub struct SimAbort {
    /// Why the run aborted.
    pub error: SimError,
    /// Everything measured up to the abort.
    pub partial: SimReport,
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for SimAbort {}

/// An access waiting for its issue event, with the address space its
/// thread ran in when the access was pulled from the trace.
#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    access: MemAccess,
    asid: Asid,
}

/// Per-hardware-thread progress.
#[derive(Debug, Clone, Copy)]
struct ThreadState {
    core: CoreId,
    pending: Option<PendingAccess>,
    accesses_done: u64,
    finish_time: Cycle,
    finished: bool,
}

/// One configured system ready to run one workload.
pub struct Simulation {
    config: SystemConfig,
    mesh: MeshShape,
    mem: MemorySystem,
    l1s: Vec<L1Tlb>,
    org: OrgState,
    net: NetworkModel,
    /// The network cycle's deliveries, drained before the next cycle
    /// (reused, so advancing the network allocates nothing).
    deliveries: Vec<Delivery>,
    traces: Vec<Box<dyn TraceSource>>,
    threads: Vec<ThreadState>,
    walker_free: Vec<Cycle>,
    events: Calendar<Event>,
    txs: IdTable<TxState>,
    next_tx: u64,
    now: Cycle,
    target: u64,
    warm_target: u64,
    warm_crossed: usize,
    warm_cross_time: Vec<Cycle>,
    completed_threads: usize,
    label: String,
    // Fault injection (empty plan = zero-cost fast paths everywhere).
    faults: FaultPlan,
    /// Closed-loop recovery policy (disabled = open-loop behaviour, and
    /// every recovery hook short-circuits to the static path).
    recovery: RecoveryPolicy,
    /// Active re-homing windows, keyed by the offline home's index.
    rehomed: BTreeMap<usize, Rehome>,
    /// Simulated time of the last completed memory access, chip-wide —
    /// the forward-progress marker the livelock watchdog measures against.
    last_progress: Cycle,
    /// `Some` while running in sampled mode (`SAMPLING.md`); exact runs
    /// never allocate it, so their behaviour and reports are untouched.
    sampling: Option<SamplingState>,
    energy_design: Option<NocDesign>,
    /// What the current measurement has counted since the last warmup
    /// boundary.
    stats: RunStats,
    /// Harvested measurement windows: one for an exact run, one per
    /// detailed leg for a sampled run.
    windows: Vec<WindowSample>,
    // Observability (no-ops unless enabled in the config).
    metrics: MetricsRegistry,
    trace: TraceSink,
    /// Per-core cycles spent waiting on the home structure's lookup.
    stall_slice: Vec<CounterId>,
    /// Per-core cycles spent waiting on page walks (incl. replay).
    stall_walk: Vec<CounterId>,
    /// Per-core cycles spent on everything else (interconnect transit,
    /// queueing at remote ports).
    stall_response: Vec<CounterId>,
}

impl Simulation {
    /// Builds a simulation of `config` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not provide one trace per hardware
    /// thread, or the configuration is invalid.
    pub fn new(config: SystemConfig, workload: WorkloadAssignment) -> Self {
        config.validate();
        assert_eq!(
            workload.len(),
            config.threads(),
            "workload must cover every hardware thread"
        );
        let mesh = config.mesh();
        let org = OrgState::new(&config);
        let net = NetworkModel::for_config(&config);
        let energy_design = match config.org {
            TlbOrg::Monolithic {
                entries_per_core, ..
            } => Some(NocDesign::Monolithic {
                total_entries: entries_per_core * config.cores,
            }),
            TlbOrg::Distributed { slice_entries } | TlbOrg::Hier { slice_entries, .. } => {
                Some(NocDesign::Distributed { slice_entries })
            }
            TlbOrg::Nocstar { slice_entries, .. } => Some(NocDesign::Nocstar { slice_entries }),
            _ => None,
        };
        let label = workload.label().to_string();
        let l1_config = config.l1_config();
        let mut metrics = if config.metrics {
            MetricsRegistry::enabled()
        } else {
            MetricsRegistry::disabled()
        };
        let stall_slice =
            metrics.counters(config.cores, |c| format!("core.{c}.stall.slice_cycles"));
        let stall_walk = metrics.counters(config.cores, |c| format!("core.{c}.stall.walk_cycles"));
        let stall_response =
            metrics.counters(config.cores, |c| format!("core.{c}.stall.response_cycles"));
        let trace = if config.trace_capacity > 0 {
            TraceSink::bounded(config.trace_capacity)
        } else {
            TraceSink::disabled()
        };
        Self {
            mesh,
            mem: MemorySystem::new(MemoryConfig::haswell(config.cores)),
            l1s: (0..config.cores).map(|_| L1Tlb::new(l1_config)).collect(),
            org,
            net,
            deliveries: Vec::new(),
            traces: workload.into_traces(),
            threads: (0..config.threads())
                .map(|t| ThreadState {
                    core: CoreId::new(t / config.smt),
                    pending: None,
                    accesses_done: 0,
                    finish_time: Cycle::ZERO,
                    finished: false,
                })
                .collect(),
            walker_free: vec![Cycle::ZERO; config.cores],
            events: Calendar::new(),
            txs: IdTable::new(),
            next_tx: 0,
            now: Cycle::ZERO,
            target: 0,
            warm_target: 0,
            warm_crossed: 0,
            warm_cross_time: vec![Cycle::ZERO; config.threads()],
            completed_threads: 0,
            label,
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::default(),
            rehomed: BTreeMap::new(),
            last_progress: Cycle::ZERO,
            sampling: None,
            energy_design,
            stats: RunStats::default(),
            windows: Vec::new(),
            metrics,
            trace,
            stall_slice,
            stall_walk,
            stall_response,
            config,
        }
    }

    /// Installs a deterministic fault plan: link outages/degradations and
    /// setup denials act inside the interconnect model, walk-latency
    /// spikes, slice-offline windows and shootdown storms act here in the
    /// simulation loop. An empty plan is free — every fault hook
    /// short-circuits on [`FaultPlan::is_empty`], so a run with an empty
    /// plan is cycle-identical to one that never called this.
    ///
    /// The plan must fit the system (see
    /// [`validate_faults`](Self::validate_faults)); debug builds assert it.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        debug_assert_eq!(
            self.validate_faults(&plan),
            Ok(()),
            "fault plan out of range"
        );
        self.net.install_faults(plan.clone());
        self.faults = plan;
        self
    }

    /// Checks that every clause of `plan` names a link, L2 structure or
    /// cluster this system has ([`FaultPlan::validate`] over the
    /// interconnect's fault-injectable links and the organization's
    /// structures). A clause naming none would inject nothing.
    ///
    /// # Errors
    ///
    /// A message naming the first out-of-range clause.
    pub fn validate_faults(&self, plan: &FaultPlan) -> Result<(), String> {
        plan.validate(self.net.fault_links(), self.org.count())
    }

    /// Installs a closed-loop recovery policy. Re-routing, escalating
    /// retry and gateway failover act inside the interconnect models;
    /// slice re-homing acts here in the simulation loop. A disabled
    /// policy — or any policy without a non-empty fault plan — changes
    /// nothing: every recovery hook short-circuits, so such runs stay
    /// cycle-identical to ones that never called this.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.net.install_recovery(policy);
        self.recovery = policy;
        self
    }

    /// Runs until every hardware thread completes `accesses_per_thread`
    /// memory accesses; returns the report.
    ///
    /// # Panics
    ///
    /// Panics on any structured simulation failure (deadlock, livelock,
    /// exceeded cycle budget, protocol violation) — use
    /// [`try_run`](Self::try_run) to handle these as values.
    pub fn run(self, accesses_per_thread: u64) -> SimReport {
        self.run_measured(0, accesses_per_thread)
    }

    /// Runs a warmup of `warmup` accesses per thread (populating TLBs,
    /// caches and page tables), resets all statistics once every thread
    /// has crossed the warmup quota, then measures `measure` further
    /// accesses per thread. Per-thread runtimes cover exactly the measured
    /// quota (from each thread's own warmup crossing to its finish), so
    /// speedups compare equal work.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run); additionally if `measure` is zero.
    pub fn run_measured(self, warmup: u64, measure: u64) -> SimReport {
        match self.try_run_measured(warmup, measure) {
            Ok(report) => report,
            Err(abort) => panic!("{}", abort.error),
        }
    }

    /// [`run`](Self::run), returning structured errors instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns a [`SimAbort`] (typed [`SimError`] + partial report) when
    /// the run deadlocks, livelocks, exhausts
    /// [`SystemConfig::max_cycles`], or violates a protocol invariant.
    pub fn try_run(self, accesses_per_thread: u64) -> Result<SimReport, Box<SimAbort>> {
        self.try_run_measured(0, accesses_per_thread)
    }

    /// [`run_measured`](Self::run_measured), returning structured errors
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn try_run_measured(
        mut self,
        warmup: u64,
        measure: u64,
    ) -> Result<SimReport, Box<SimAbort>> {
        assert!(measure > 0, "need a nonzero measured quota");
        let accesses_per_thread = warmup + measure;
        self.warm_target = warmup;
        self.warm_crossed = if warmup == 0 { self.threads.len() } else { 0 };
        self.target = accesses_per_thread;
        let result = self.start_threads_and_event_loop();
        self.harvest_window();
        self.conclude(result)
    }

    /// Sampled fast-forward replay over a span of `total` accesses per
    /// thread (`SAMPLING.md`): functional fast-forward between the
    /// measurement windows `spec` places, a detailed warmup ramp in front
    /// of each window whose statistics are discarded, and per-window
    /// estimates combined into whole-trace confidence intervals in the
    /// report's `sampling` section.
    ///
    /// # Panics
    ///
    /// As [`try_run_sampled`](Self::try_run_sampled), plus on any
    /// structured simulation failure inside a measurement window.
    pub fn run_sampled(self, spec: SampleSpec, total: u64) -> SimReport {
        match self.try_run_sampled(spec, total) {
            Ok(report) => report,
            Err(abort) => panic!("{}", abort.error),
        }
    }

    /// [`run_sampled`](Self::run_sampled), returning structured errors
    /// instead of panicking. A [`SimAbort`]'s partial report covers the
    /// windows completed before the failure.
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    ///
    /// # Panics
    ///
    /// Panics if `spec` places no measurement window inside `total`
    /// accesses per thread, or if a fault plan or recovery policy is
    /// installed — fault windows are cycle-based and fast-forward does not
    /// advance cycles, so sampled replay cannot honour them
    /// (`SAMPLING.md §7`).
    pub fn try_run_sampled(
        mut self,
        spec: SampleSpec,
        total: u64,
    ) -> Result<SimReport, Box<SimAbort>> {
        assert!(
            self.faults.is_empty() && !self.recovery.is_enabled(),
            "sampled replay is incompatible with fault plans and recovery: \
             fault windows are cycle-based and fast-forward does not advance cycles"
        );
        assert!(
            spec.windows(total) >= 1,
            "sample spec {spec} places no measurement window in {total} accesses per thread"
        );
        self.sampling = Some(SamplingState {
            spec,
            span: total,
            ff_accesses: 0,
        });
        let result = self.sampled_loop(spec, total);
        self.conclude(result)
    }

    /// The report of a run whose loop returned `result`: the full report,
    /// or the error with the partial report of the windows harvested.
    fn conclude(self, result: Result<(), Box<SimError>>) -> Result<SimReport, Box<SimAbort>> {
        match result {
            Ok(()) => Ok(self.finish()),
            Err(error) => Err(Box::new(SimAbort {
                error: *error,
                partial: self.finish(),
            })),
        }
    }

    /// Seeds every hardware thread's first event and runs the event loop.
    fn start_threads_and_event_loop(&mut self) -> Result<(), Box<SimError>> {
        for t in 0..self.threads.len() {
            self.thread_next(t);
        }
        self.event_loop()
    }

    /// The event loop proper: advances time event-to-event until every
    /// thread finishes, watching for deadlock (nothing pending), livelock
    /// (time advances but no access ever completes), and the configured
    /// cycle budget.
    fn event_loop(&mut self) -> Result<(), Box<SimError>> {
        let mut same_cycle_spins: u64 = 0;
        while self.completed_threads < self.threads.len() {
            let heap_next = self.events.next_time();
            let net_next = self.net.next_activity();
            let next = match (heap_next, net_next) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    debug_assert!(self.events.is_empty());
                    return Err(Box::new(SimError::Deadlock {
                        snapshot: self.snapshot(),
                    }));
                }
            };
            debug_assert!(next >= self.now, "time went backwards");
            if let Some(budget) = self.config.max_cycles {
                if next.value() > budget {
                    return Err(Box::new(SimError::CycleBudgetExceeded {
                        budget,
                        snapshot: self.snapshot(),
                    }));
                }
            }
            let stalled_for = next.value().saturating_sub(self.last_progress.value());
            same_cycle_spins = if next == self.now {
                same_cycle_spins + 1
            } else {
                0
            };
            if stalled_for > self.config.livelock_window || same_cycle_spins > SAME_CYCLE_SPIN_LIMIT
            {
                return Err(Box::new(SimError::Livelock {
                    stalled_for,
                    snapshot: self.snapshot(),
                }));
            }
            self.now = next;
            while let Some((_, event)) = self.events.pop_due(self.now) {
                self.handle_event(event)?;
            }
            if self.net.next_activity().is_some_and(|a| a <= self.now) {
                let mut deliveries = std::mem::take(&mut self.deliveries);
                self.net.advance_into(self.now, &mut deliveries);
                let handled = deliveries
                    .drain(..)
                    .try_for_each(|d| self.handle_delivery(d));
                self.deliveries = deliveries;
                handled?;
            }
        }
        Ok(())
    }

    /// A diagnostic snapshot of the whole simulator: the network model's
    /// in-flight view plus the event-queue, transaction and thread state
    /// only the simulation loop knows.
    fn snapshot(&self) -> DiagSnapshot {
        let mut s = self.net.diagnostics(self.now);
        s.event_queue_depth = self.events.len();
        s.inflight_transactions = self.txs.len();
        s.unfinished_threads = self.threads.len() - self.completed_threads;
        s
    }

    /// A protocol-invariant violation carrying the full diagnostic state.
    fn protocol_error(&self, context: String) -> Box<SimError> {
        Box::new(SimError::Protocol {
            context,
            snapshot: self.snapshot(),
        })
    }

    // ----- thread lifecycle ------------------------------------------------

    /// Pulls thread `t`'s next trace event and the address space the
    /// thread runs in.
    fn next_event(&mut self, t: usize) -> (TraceEvent, Asid) {
        let src = &mut self.traces[t];
        (src.next_event(), src.asid())
    }

    fn thread_next(&mut self, t: usize) {
        if self.threads[t].finished {
            return;
        }
        let now = self.now;
        let (event, asid) = self.next_event(t);
        match event {
            TraceEvent::Access(a) => {
                self.threads[t].pending = Some(PendingAccess { access: a, asid });
                self.events.push(now + a.gap, Event::Issue(t));
            }
            TraceEvent::ContextSwitch => {
                self.stats.flushes += 1;
                self.context_switch_flush(self.threads[t].core, None);
                self.events
                    .push(now + CTX_SWITCH_COST, Event::ThreadNext(t));
            }
            TraceEvent::Remap(vpn) => {
                if self.mem.remap(asid, vpn).is_some() {
                    // A page remap raises IPIs on every core: each handler
                    // relays an invalidation per the leader policy.
                    self.shootdown(asid, vpn, self.threads[t].core, true);
                }
                self.events.push(now + SHOOTDOWN_COST, Event::ThreadNext(t));
            }
            TraceEvent::Promote(v2m) => {
                self.premap_promoted(asid, v2m);
                if let Some(stale) = self.mem.promote(asid, v2m) {
                    // Promotion is driven by one kernel thread (khugepaged-
                    // style): a single relay per stale page, not an IPI
                    // broadcast, keeps the 512-page storm tractable.
                    let core = self.threads[t].core;
                    for vpn in stale {
                        self.shootdown(asid, vpn, core, false);
                    }
                }
                self.events.push(now + SHOOTDOWN_COST, Event::ThreadNext(t));
            }
            TraceEvent::Demote(v2m) => {
                if let Some(stale) = self.mem.demote(asid, v2m) {
                    let core = self.threads[t].core;
                    self.shootdown(asid, stale, core, false);
                }
                self.events.push(now + SHOOTDOWN_COST, Event::ThreadNext(t));
            }
        }
    }

    /// The state a context switch on `core` changes: the core's L1 and
    /// PWC drop their non-global entries, and so do the L2 structures —
    /// every one under a shared organization (paper §V: every context
    /// switch flushes all shared TLB contents on their x86 model), the
    /// core's own otherwise. Inside a fast-forward leg the PWC flush is
    /// queued on the leg's `warm` feed, behind the warming before it.
    fn context_switch_flush(&mut self, core: CoreId, warm: Option<&mut WarmFeed>) {
        self.l1s[core.index()].flush_non_global();
        match warm {
            Some(warm) => warm.push(WarmOp::flush_pwc(core)),
            None => self.mem.flush_pwc(core),
        }
        if self.config.org.is_shared() {
            self.org.flush_all_non_global();
        } else {
            self.org.flush_core_non_global(core);
        }
    }

    /// Maps every base page of the 2 MiB region `v2m` before it is
    /// promoted: the microbenchmark allocated these pages first.
    fn premap_promoted(&mut self, asid: Asid, v2m: VirtPageNum) {
        for i in 0..v2m.page_size().base_pages() {
            let va = VirtAddr::new(v2m.base().value() + i * 4096);
            if self.mem.translate(asid, va).is_none() {
                self.mem.ensure_mapped(asid, va, PageSize::Size4K);
            }
        }
    }

    fn handle_event(&mut self, event: Event) -> Result<(), Box<SimError>> {
        match event {
            Event::ThreadNext(t) => {
                self.thread_next(t);
                Ok(())
            }
            Event::Issue(t) => self.issue(t),
            Event::SliceDone(tx) => self.slice_done(tx),
            Event::WalkDone(tx) => self.walk_done(tx),
        }
    }
}
