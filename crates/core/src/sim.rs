//! The event-driven full-system simulation.
//!
//! One [`Simulation`] runs one configuration over one workload assignment
//! for a fixed number of memory accesses per hardware thread, and produces
//! a [`SimReport`]. Time advances event-to-event; interconnect arbitration
//! is resolved cycle-exactly whenever messages are in flight (see
//! `nocstar-noc`), and skipped entirely while the network is idle.

use crate::assignment::WorkloadAssignment;
use crate::config::{MonolithicNet, SystemConfig, TlbOrg, WalkPolicy};
use crate::event::{Event, EventQueue};
use crate::network::NetworkModel;
use crate::org::OrgState;
use crate::report::SimReport;
use crate::sampling::{self, SamplingReport, WindowSample};
use nocstar_energy::account::EnergyAccount;
use nocstar_energy::model::{self, NocDesign};
use nocstar_faults::{DiagSnapshot, FaultPlan, RecoveryPolicy, SimError};
use nocstar_mem::hierarchy::{MemoryConfig, MemorySystem, ServicedBy};
use nocstar_mem::walker::WalkLatency;
use nocstar_noc::hier::HierNoc;
use nocstar_noc::mesh::MeshNoc;
use nocstar_noc::message::{Delivery, Message, MsgKind};
use nocstar_noc::smart::SmartNoc;
use nocstar_noc::NocStats;
use nocstar_stats::counter::{Counter, HitMiss};
use nocstar_stats::histogram::ConcurrencyBins;
use nocstar_stats::latency::LatencyRecorder;
use nocstar_stats::metrics::{CounterId, Log2Histogram, MetricsRegistry};
use nocstar_stats::tracing::{TraceRecord, TraceSink};
use nocstar_tlb::entry::TlbEntry;
use nocstar_tlb::l1::L1Tlb;
use nocstar_tlb::shootdown::Invalidation;
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Asid, CoreId, MeshShape, PageSize, VirtAddr, VirtPageNum};
use nocstar_workloads::sample::SampleSpec;
use nocstar_workloads::trace::{MemAccess, TraceEvent, TraceSource};
use std::collections::{BTreeMap, BTreeSet};

/// Cycles a thread loses to a context-switch trap.
const CTX_SWITCH_COST: Cycles = Cycles::new(200);
/// Cycles the initiating thread spends in the OS for one shootdown batch.
const SHOOTDOWN_COST: Cycles = Cycles::new(50);
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

/// Event-kind ids for the [`TraceRecord`]s the simulation emits when
/// [`SystemConfig::trace_capacity`] is nonzero. The component id is the
/// requesting core's index, except for [`trace_kind::SLICE_DONE`], whose
/// component is [`SLICE_COMPONENT_BASE`] plus the structure index.
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
/// Returned (boxed — the report is large) by [`Simulation::try_run`] and
/// [`Simulation::try_run_measured`]. The partial report's `cycles` and
/// per-thread counters cover the work finished before the abort, so a
/// budget-limited sweep can still plot what it measured.
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

#[derive(Debug, Clone, Copy)]
struct LookupTx {
    thread: usize,
    requester: CoreId,
    va: VirtAddr,
    asid: Asid,
    vpn: VirtPageNum,
    is_write: bool,
    issued_at: Cycle,
    home_idx: usize,
    home_tile: CoreId,
    /// The translation, once known (slice hit or completed walk).
    entry: Option<TlbEntry>,
    /// Whether the slice lookup missed and a walk resolved it.
    walked: bool,
    /// Whether the slice-level concurrency trackers were closed.
    tracker_closed: bool,
    /// When the home structure's lookup result became available — the
    /// boundary between slice time and walk/response time in the per-core
    /// stall breakdown.
    slice_done_at: Cycle,
    /// Walk cycles (including the replay penalty) charged to this access.
    walk_cycles: u64,
    /// The static home before any recovery redirect (equals `home_idx`
    /// unless `rehomed`).
    orig_home_idx: usize,
    /// The static home was offline and this lookup was redirected to a
    /// backup slice by the recovery policy.
    rehomed: bool,
    /// The static home was offline and no redirect applied (open-loop or
    /// disconnected): the translation was served degraded (walk path).
    degraded: bool,
}

/// The slice that will actually service a lookup, after any re-homing.
#[derive(Debug, Clone, Copy)]
struct ResolvedHome {
    idx: usize,
    tile: CoreId,
    orig_idx: usize,
    rehomed: bool,
    degraded: bool,
}

/// An active re-homing window: a slice's set range served by a backup
/// slice while the home is offline.
#[derive(Debug, Clone)]
struct Rehome {
    backup_idx: usize,
    /// When the offline home was detected and the redirect installed.
    since: Cycle,
    /// Whether a redirected translation has completed yet (the first one
    /// defines this activation's detect→recovered latency).
    first_served: bool,
    /// Entries inserted into the backup during the window; invalidated on
    /// home-back so no stale copy outlives the redirect (coherent handoff).
    inserted: BTreeSet<(Asid, VirtPageNum)>,
}

impl LookupTx {
    /// The home this lookup resolved to at issue time, as a
    /// [`ResolvedHome`] (for insert-tracking at walk completion).
    fn resolved_home(&self) -> ResolvedHome {
        ResolvedHome {
            idx: self.home_idx,
            tile: self.home_tile,
            orig_idx: self.orig_home_idx,
            rehomed: self.rehomed,
            degraded: self.degraded,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TxState {
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

/// Live state of a sampled run: the placement spec, the replayed span, and
/// the samples harvested so far.
struct SamplingState {
    spec: SampleSpec,
    /// Total trace span, in accesses per thread.
    span: u64,
    /// Accesses (all threads) consumed functionally so far.
    ff_accesses: u64,
    /// Per-thread measured cycles accumulated over completed windows.
    thread_measured: Vec<u64>,
    windows: Vec<WindowSample>,
}

/// One configured system ready to run one workload.
pub struct Simulation {
    config: SystemConfig,
    mesh: MeshShape,
    mem: MemorySystem,
    l1s: Vec<L1Tlb>,
    org: OrgState,
    net: NetworkModel,
    traces: Vec<Box<dyn TraceSource>>,
    threads: Vec<ThreadState>,
    walker_free: Vec<Cycle>,
    events: EventQueue,
    txs: BTreeMap<u64, TxState>,
    next_tx: u64,
    now: Cycle,
    target: u64,
    warm_target: u64,
    warm_crossed: usize,
    warm_cross_time: Vec<Cycle>,
    completed_threads: usize,
    last_completion: Cycle,
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
    // Statistics.
    energy: EnergyAccount,
    energy_design: Option<NocDesign>,
    translation_latency: LatencyRecorder,
    walks: Counter,
    walks_llc_or_mem: Counter,
    shootdowns: Counter,
    flushes: Counter,
    fault_slice_misses: Counter,
    fault_walk_spikes: Counter,
    fault_storm_relays: Counter,
    // Recovery accounting (harvested only when a policy and plan are set).
    recovered_translations: Counter,
    degraded_translations: Counter,
    rehome_activations: Counter,
    rehome_homebacks: Counter,
    rehome_handoff_entries: Log2Histogram,
    detect_to_recovered: Log2Histogram,
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
        let net = match config.org {
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
        };
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
        let stall_slice = (0..config.cores)
            .map(|c| metrics.counter(&format!("core.{c}.stall.slice_cycles")))
            .collect();
        let stall_walk = (0..config.cores)
            .map(|c| metrics.counter(&format!("core.{c}.stall.walk_cycles")))
            .collect();
        let stall_response = (0..config.cores)
            .map(|c| metrics.counter(&format!("core.{c}.stall.response_cycles")))
            .collect();
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
            traces: workload.into_traces(),
            threads: vec![
                ThreadState {
                    core: CoreId::new(0),
                    pending: None,
                    accesses_done: 0,
                    finish_time: Cycle::ZERO,
                    finished: false,
                };
                config.threads()
            ],
            walker_free: vec![Cycle::ZERO; config.cores],
            events: EventQueue::new(),
            txs: BTreeMap::new(),
            next_tx: 0,
            now: Cycle::ZERO,
            target: 0,
            warm_target: 0,
            warm_crossed: 0,
            warm_cross_time: vec![Cycle::ZERO; config.threads()],
            completed_threads: 0,
            last_completion: Cycle::ZERO,
            label,
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::default(),
            rehomed: BTreeMap::new(),
            last_progress: Cycle::ZERO,
            sampling: None,
            energy: EnergyAccount::default(),
            energy_design,
            translation_latency: LatencyRecorder::new(),
            walks: Counter::new(),
            walks_llc_or_mem: Counter::new(),
            shootdowns: Counter::new(),
            flushes: Counter::new(),
            fault_slice_misses: Counter::new(),
            fault_walk_spikes: Counter::new(),
            fault_storm_relays: Counter::new(),
            recovered_translations: Counter::new(),
            degraded_translations: Counter::new(),
            rehome_activations: Counter::new(),
            rehome_homebacks: Counter::new(),
            rehome_handoff_entries: Log2Histogram::new(),
            detect_to_recovered: Log2Histogram::new(),
            metrics,
            trace,
            stall_slice,
            stall_walk,
            stall_response,
            config,
        }
    }

    fn core_of(&self, thread: usize) -> CoreId {
        CoreId::new(thread / self.config.smt)
    }

    /// Installs a deterministic fault plan: link outages/degradations and
    /// setup denials act inside the interconnect model, walk-latency
    /// spikes, slice-offline windows and shootdown storms act here in the
    /// simulation loop. An empty plan is free — every fault hook
    /// short-circuits on [`FaultPlan::is_empty`], so a run with an empty
    /// plan is cycle-identical to one that never called this.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.net.install_faults(plan.clone());
        self.faults = plan;
        self
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
        if let Err(error) = self.start_threads_and_event_loop() {
            let partial = self.finish();
            return Err(Box::new(SimAbort {
                error: *error,
                partial,
            }));
        }
        Ok(self.finish())
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
            thread_measured: vec![0; self.threads.len()],
            windows: Vec::new(),
        });
        if let Err(error) = self.sampled_loop() {
            let partial = self.finish();
            return Err(Box::new(SimAbort {
                error: *error,
                partial,
            }));
        }
        Ok(self.finish())
    }

    /// Seeds every hardware thread's first event and runs the event loop.
    fn start_threads_and_event_loop(&mut self) -> Result<(), Box<SimError>> {
        for t in 0..self.threads.len() {
            self.threads[t].core = self.core_of(t);
            self.thread_next(t);
        }
        self.event_loop()
    }

    // ----- sampled fast-forward replay (SAMPLING.md) ------------------------

    /// Alternates functional fast-forward legs with detailed legs until
    /// the spec places no further window inside the span (`SAMPLING.md §1`
    /// state machine). The loop produces exactly
    /// [`SampleSpec::windows`]`(span)` measurement windows.
    fn sampled_loop(&mut self) -> Result<(), Box<SimError>> {
        for t in 0..self.threads.len() {
            self.threads[t].core = self.core_of(t);
        }
        let (spec, span) = match &self.sampling {
            Some(s) => (s.spec, s.span),
            None => return Err(self.protocol_error("sampled loop without sampling state".into())),
        };
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
    /// replica contents, ASID state) evolves exactly as the trace
    /// dictates, but nothing is timed, counted, or sent over the network.
    /// Threads are drained round-robin, one access each, in thread-index
    /// order, so shared-state mutation order is deterministic
    /// (`SAMPLING.md §6`).
    fn fast_forward(&mut self, quota: u64) {
        for _ in 0..quota {
            for t in 0..self.threads.len() {
                loop {
                    let (event, asid) = self.next_event(t);
                    match event {
                        TraceEvent::Access(a) => {
                            self.functional_access(t, asid, a);
                            self.threads[t].accesses_done += 1;
                            break;
                        }
                        TraceEvent::ContextSwitch => {
                            let core = self.threads[t].core;
                            self.l1s[core.index()].flush_non_global();
                            self.mem.flush_pwc(core);
                            if self.config.org.is_shared() {
                                self.org.flush_all_non_global();
                            } else {
                                self.org.flush_core_non_global(core);
                            }
                        }
                        TraceEvent::Remap(vpn) => {
                            if self.mem.remap(asid, vpn).is_some() {
                                self.functional_shootdown(asid, vpn);
                            }
                        }
                        TraceEvent::Promote(v2m) => {
                            for i in 0..v2m.page_size().base_pages() {
                                let va = VirtAddr::new(v2m.base().value() + i * 4096);
                                if self.mem.translate(asid, va).is_none() {
                                    self.mem.ensure_mapped(asid, va, PageSize::Size4K);
                                }
                            }
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
        if let Some(s) = &mut self.sampling {
            s.ff_accesses += quota * self.threads.len() as u64;
        }
    }

    /// One access, functionally: the stat-free mirror of [`issue`]'s
    /// translation path. L1 and home-slice contents update through the
    /// stat-free `touch` entry points, misses demand-map and fill through
    /// [`MemorySystem::resolve_mapped`], and the same adjacent-page
    /// prefetch fills fire — so the TLB state a measurement window starts
    /// from matches what an exact replay would have left behind, up to
    /// timing-dependent interleaving (`SAMPLING.md §2`).
    ///
    /// The memory side warms functionally too: every access touches the
    /// data-cache hierarchy at the translated physical address, and every
    /// would-be walk touches the PWC and PTE cache lines — otherwise each
    /// measurement window would start from stale-warm caches and charge
    /// inflated miss latencies the exact replay never sees.
    fn functional_access(&mut self, t: usize, asid: Asid, access: MemAccess) {
        let va = access.va;
        let core = self.threads[t].core;
        if let Some(entry) = self.l1s[core.index()].touch(asid, va) {
            // An L1 entry exists only for a mapped page, and mapped-ness is
            // monotone — the demand-map check below would be a no-op.
            self.mem
                .warm_access(core, entry.translate(va), access.is_write);
            return;
        }
        let size = self.traces[t].backing(va);
        // The home is keyed by the workload's backing page size, exactly
        // as the issue path keys its lookup transaction.
        let home_vpn = va.page_number(size);
        let (home_idx, _) = self.org.home_of(home_vpn, core);
        if let Some(entry) = self.org.structure_mut(home_idx).touch(asid, home_vpn) {
            self.l1s[core.index()].insert(entry);
            self.mem
                .warm_access(core, entry.translate(va), access.is_write);
            return;
        }
        // Slice miss: a walk would resolve the page-table leaf (demand-
        // mapping on first touch), fill both levels, and pull the PTE
        // lines through the walking core's caches (variable-latency walks
        // only — fixed-latency walks never touch the hierarchy).
        let (vpn, ppn) = self.mem.resolve_mapped(asid, va, size);
        if self.config.walk_latency == WalkLatency::Variable {
            self.mem.warm_walk(core, asid, va);
        }
        let entry = TlbEntry::new(asid, vpn, ppn);
        self.org.structure_mut(home_idx).insert(entry);
        self.l1s[core.index()].insert(entry);
        self.mem
            .warm_access(core, entry.translate(va), access.is_write);
        self.functional_prefetch(home_vpn, asid);
    }

    /// [`prefetch_around`] minus timing and energy: fills the neighbours'
    /// home slices directly.
    fn functional_prefetch(&mut self, vpn: VirtPageNum, asid: Asid) {
        if !self.config.prefetch.is_enabled() {
            return;
        }
        let candidates: Vec<VirtPageNum> = self.config.prefetch.candidates(vpn).collect();
        for cand in candidates {
            if let Some((mapped_vpn, ppn)) = self.mem.translate(asid, cand.base()) {
                if mapped_vpn == cand {
                    let (idx, _) = self.org.home_of(cand, CoreId::new(0));
                    self.org
                        .structure_mut(idx)
                        .insert(TlbEntry::new(asid, cand, ppn));
                }
            }
        }
    }

    /// [`shootdown`] minus timing, counting and messaging: the stale
    /// translation leaves every L1 and every home structure immediately
    /// (re-homed backups cannot exist — sampled mode rejects recovery).
    fn functional_shootdown(&mut self, asid: Asid, vpn: VirtPageNum) {
        for l1 in &mut self.l1s {
            l1.invalidate(asid, vpn);
        }
        self.org.invalidate(asid, vpn);
    }

    /// One detailed leg: `warmup` cycle-accurate accesses per thread whose
    /// statistics are discarded at the boundary (the existing
    /// [`reset_statistics`] warmup machinery), then `window` measured
    /// accesses per thread. Resumes simulated time at the latest per-thread
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

    /// Captures the window that just finished (`SAMPLING.md §1`,
    /// "Harvest"): everything [`finish`] would measure for a whole exact
    /// run, scoped to this window by the warmup-boundary statistics reset.
    fn harvest_window(&mut self) {
        let durations: Vec<u64> = self
            .threads
            .iter()
            .zip(&self.warm_cross_time)
            .map(|(th, &cross)| (th.finish_time - cross).value())
            .collect();
        let runtime = durations.iter().copied().max().unwrap_or(0);
        let mut l1 = HitMiss::new();
        for l in &self.l1s {
            l1.merge(l.stats());
        }
        let mut slice_concurrency = ConcurrencyBins::new();
        for tr in &self.org.trackers {
            slice_concurrency.merge(tr.bins());
        }
        let sample = WindowSample {
            durations,
            runtime,
            l1,
            l2: self.org.merged_stats(),
            per_structure: self.org.per_structure_stats(),
            walks: self.walks.get(),
            walks_llc_or_mem: self.walks_llc_or_mem.get(),
            shootdowns: self.shootdowns.get(),
            flushes: self.flushes.get(),
            translation_latency: self.translation_latency,
            energy: self.energy,
            chip_concurrency: self.org.chip_tracker.bins().clone(),
            slice_concurrency,
            network: self.net.stats().cloned(),
        };
        if let Some(s) = &mut self.sampling {
            for (total, d) in s.thread_measured.iter_mut().zip(&sample.durations) {
                *total += d;
            }
            s.windows.push(sample);
        }
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
            if stalled_for > self.config.livelock_window {
                return Err(Box::new(SimError::Livelock {
                    stalled_for,
                    snapshot: self.snapshot(),
                }));
            }
            if next == self.now {
                same_cycle_spins += 1;
                if same_cycle_spins > SAME_CYCLE_SPIN_LIMIT {
                    return Err(Box::new(SimError::Livelock {
                        stalled_for,
                        snapshot: self.snapshot(),
                    }));
                }
            } else {
                same_cycle_spins = 0;
            }
            self.now = next;
            while let Some((_, event)) = self.events.pop_due(self.now) {
                self.handle_event(event)?;
            }
            if self.net.next_activity().is_some_and(|a| a <= self.now) {
                for d in self.net.advance(self.now) {
                    self.handle_delivery(d)?;
                }
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
                self.flushes.incr();
                let core = self.threads[t].core;
                self.l1s[core.index()].flush_non_global();
                self.mem.flush_pwc(core);
                if self.config.org.is_shared() {
                    // Paper §V: every context switch flushes all shared
                    // TLB contents on their x86 model.
                    self.org.flush_all_non_global();
                } else {
                    self.org.flush_core_non_global(core);
                }
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
                // The microbenchmark allocated these pages before promoting.
                for i in 0..v2m.page_size().base_pages() {
                    let va = VirtAddr::new(v2m.base().value() + i * 4096);
                    if self.mem.translate(asid, va).is_none() {
                        self.mem
                            .ensure_mapped(asid, va, nocstar_types::PageSize::Size4K);
                    }
                }
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

    // ----- slice re-homing (closed-loop recovery) ---------------------------

    /// The slice that will actually service `vpn` for `core` at `self.now`:
    /// the static home, unless re-homing is armed and the home is inside
    /// an injected offline window — then a deterministic backup slice.
    /// Also performs the lazy home-back handoff when a previously offline
    /// home is observed healthy again.
    ///
    /// The result is a pure function of (plan, policy, organization,
    /// cycle, vpn), so identical runs resolve identically.
    fn resolve_home(&mut self, vpn: VirtPageNum, core: CoreId) -> ResolvedHome {
        let (home_idx, home_tile) = self.org.home_of(vpn, core);
        let static_home = ResolvedHome {
            idx: home_idx,
            tile: home_tile,
            orig_idx: home_idx,
            rehomed: false,
            degraded: false,
        };
        if !self.recovery.is_enabled() || self.faults.is_empty() || !self.config.org.is_shared() {
            return static_home;
        }
        let now = self.now.value();
        if !self.faults.slice_offline(home_idx, now) {
            self.maybe_home_back(home_idx);
            return static_home;
        }
        if !self.recovery.rehome {
            return ResolvedHome {
                degraded: true,
                ..static_home
            };
        }
        match self.activate_rehome(home_idx) {
            Some(backup_idx) => ResolvedHome {
                idx: backup_idx,
                tile: self.org.tile_of(backup_idx),
                orig_idx: home_idx,
                rehomed: true,
                degraded: false,
            },
            // Every candidate backup is also offline: serve degraded.
            None => ResolvedHome {
                degraded: true,
                ..static_home
            },
        }
    }

    /// The deterministic backup for an offline slice at `now`: the next
    /// healthy slice scanning upward (wrapping), or — for cluster-homed
    /// organizations — the same set-range residue in the next surviving
    /// cluster, so the backup indexes its sets identically to the home.
    fn backup_slice(&self, home_idx: usize, now: u64) -> Option<usize> {
        let count = self.org.count();
        match self.config.org {
            TlbOrg::Hier { cluster_size, .. } => {
                let residue = home_idx % cluster_size;
                let clusters = count / cluster_size;
                let home_cluster = home_idx / cluster_size;
                (1..clusters)
                    .map(|j| ((home_cluster + j) % clusters) * cluster_size + residue)
                    .find(|&c| !self.faults.slice_offline(c, now))
            }
            _ => (1..count)
                .map(|s| (home_idx + s) % count)
                .find(|&c| !self.faults.slice_offline(c, now)),
        }
    }

    /// Opens (or re-validates) the re-homing window for an offline home.
    /// Returns the backup slice index, or `None` when the fault plan has
    /// every candidate offline too.
    fn activate_rehome(&mut self, home_idx: usize) -> Option<usize> {
        let now = self.now.value();
        if let Some(r) = self.rehomed.get(&home_idx) {
            if !self.faults.slice_offline(r.backup_idx, now) {
                return Some(r.backup_idx);
            }
            // Cascading outage reached the backup: close this window
            // (dropping its stale copies) before electing a new backup.
            self.handoff(home_idx);
        }
        let backup_idx = self.backup_slice(home_idx, now)?;
        self.rehome_activations.incr();
        self.rehomed.insert(
            home_idx,
            Rehome {
                backup_idx,
                since: self.now,
                first_served: false,
                inserted: BTreeSet::new(),
            },
        );
        Some(backup_idx)
    }

    /// Closes the re-homing window for `home_idx` if one is open: every
    /// entry the backup absorbed during the window is invalidated there,
    /// so no stale copy outlives the redirect once traffic homes back.
    fn maybe_home_back(&mut self, home_idx: usize) {
        if !self.rehomed.is_empty() && self.rehomed.contains_key(&home_idx) {
            self.rehome_homebacks.incr();
            self.handoff(home_idx);
        }
    }

    /// The coherent-handoff invalidation sweep for one closing window.
    fn handoff(&mut self, home_idx: usize) {
        let Some(rehome) = self.rehomed.remove(&home_idx) else {
            return;
        };
        self.rehome_handoff_entries
            .record(rehome.inserted.len() as u64);
        let now = self.now;
        let slice = self.org.structure_mut(rehome.backup_idx);
        if !rehome.inserted.is_empty() {
            slice.schedule_write(now);
        }
        for (asid, vpn) in &rehome.inserted {
            slice.invalidate(*asid, *vpn);
        }
    }

    /// Inserts into the resolved home, remembering redirected entries so
    /// the home-back handoff can invalidate them.
    fn insert_resolved(&mut self, home: ResolvedHome, entry: TlbEntry) {
        self.insert_home(home.idx, entry);
        if home.rehomed {
            if let Some(r) = self.rehomed.get_mut(&home.orig_idx) {
                if r.backup_idx == home.idx {
                    r.inserted.insert((entry.asid(), entry.vpn()));
                }
            }
        }
    }

    // ----- the translation path --------------------------------------------

    fn issue(&mut self, t: usize) -> Result<(), Box<SimError>> {
        let Some(pending) = self.threads[t].pending.take() else {
            return Err(
                self.protocol_error(format!("issue event for thread {t} with no pending access"))
            );
        };
        let core = self.threads[t].core;
        let asid = pending.asid;
        let access = pending.access;
        let va = access.va;
        // Demand-map on first touch at the workload's chosen page size.
        if self.mem.translate(asid, va).is_none() {
            let size = self.traces[t].backing(va);
            self.mem.ensure_mapped(asid, va, size);
        }
        self.energy.add_l1_lookup();
        if let Some(entry) = self.l1s[core.index()].lookup(asid, va) {
            // L1 TLB hit: translation overlaps the L1-cache access.
            let pa = entry.translate(va);
            let data = self.mem.access(core, pa, access.is_write);
            self.complete_access(t, self.now + data_cost(data.latency));
            return Ok(());
        }
        // L1 miss: go to the L2 organization. Miss detection costs the
        // one-cycle L1 lookup.
        let t_req = self.now + Cycles::ONE;
        let size = self.traces[t].backing(va);
        let vpn = va.page_number(size);
        let home = self.resolve_home(vpn, core);
        let (home_idx, home_tile) = (home.idx, home.tile);
        let id = self.alloc_tx();
        let lookup = LookupTx {
            thread: t,
            requester: core,
            va,
            asid,
            vpn,
            is_write: access.is_write,
            issued_at: self.now,
            home_idx,
            home_tile,
            entry: None,
            walked: false,
            tracker_closed: false,
            slice_done_at: self.now,
            walk_cycles: 0,
            orig_home_idx: home.orig_idx,
            rehomed: home.rehomed,
            degraded: home.degraded,
        };
        self.trace.emit(TraceRecord {
            cycle: self.now.value(),
            component: core.index() as u32,
            kind: trace_kind::ISSUE,
            a: va.value(),
            b: t as u64,
        });
        self.org.chip_tracker.begin();
        self.org.trackers[home_idx].begin();
        self.txs.insert(id, TxState::Lookup(lookup));
        let local = home_tile == core || matches!(self.net, NetworkModel::None);
        if local {
            self.schedule_slice_lookup(id, t_req)?;
        } else {
            self.charge_message(core, home_tile);
            self.net.submit(
                t_req,
                Message::new(id, core, home_tile, MsgKind::TlbRequest),
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
        let Some(TxState::Lookup(mut lookup)) = self.txs.get(&id).copied() else {
            return Err(self.protocol_error(format!("slice lookup for unknown transaction {id}")));
        };
        if !self.faults.is_empty() {
            let off = self.faults.slice_offline(lookup.home_idx, at.value());
            self.org.structure_mut(lookup.home_idx).set_offline(off);
            if off {
                self.fault_slice_misses.incr();
                self.trace.emit(TraceRecord {
                    cycle: at.value(),
                    component: SLICE_COMPONENT_BASE + lookup.home_idx as u32,
                    kind: trace_kind::FAULT,
                    a: 1,
                    b: 0,
                });
            }
        }
        self.energy.add_l2_lookup(self.org.lookup_pj());
        let slice = self.org.structure_mut(lookup.home_idx);
        let done = slice.schedule_read(at);
        lookup.entry = slice.lookup(lookup.asid, lookup.vpn);
        self.txs.insert(id, TxState::Lookup(lookup));
        self.events.push(done, Event::SliceDone(id));
        Ok(())
    }

    fn slice_done(&mut self, id: u64) -> Result<(), Box<SimError>> {
        let Some(TxState::Lookup(mut lookup)) = self.txs.get(&id).copied() else {
            return Err(self.protocol_error(format!("slice done for unknown transaction {id}")));
        };
        // The L2 access itself is over: close the concurrency trackers.
        if !lookup.tracker_closed {
            lookup.tracker_closed = true;
            lookup.slice_done_at = self.now;
            self.org.chip_tracker.end();
            self.org.trackers[lookup.home_idx].end();
            self.txs.insert(id, TxState::Lookup(lookup));
            self.trace.emit(TraceRecord {
                cycle: self.now.value(),
                component: SLICE_COMPONENT_BASE + lookup.home_idx as u32,
                kind: trace_kind::SLICE_DONE,
                a: lookup.va.value(),
                b: lookup.entry.is_some() as u64,
            });
        }
        let local = lookup.home_tile == lookup.requester || matches!(self.net, NetworkModel::None);
        match (lookup.entry, local) {
            (Some(_), true) => {
                let l = self.take_lookup(id)?;
                self.complete_translation(l)?;
            }
            (Some(_), false) => {
                self.charge_message(lookup.home_tile, lookup.requester);
                self.net.respond(
                    Message::new(id, lookup.home_tile, lookup.requester, MsgKind::TlbResponse),
                    self.now,
                )?;
            }
            (None, _) => {
                // Slice miss: walk per policy.
                let walk_here = local || self.config.walk_policy == WalkPolicy::AtRemote;
                if walk_here {
                    let walk_core = if local {
                        lookup.requester
                    } else {
                        lookup.home_tile
                    };
                    self.start_walk(id, walk_core)?;
                } else {
                    // Miss message back to the requester, which walks.
                    self.charge_message(lookup.home_tile, lookup.requester);
                    self.net.respond(
                        Message::new(id, lookup.home_tile, lookup.requester, MsgKind::TlbResponse),
                        self.now,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Removes and returns a lookup transaction, or a protocol error if it
    /// is missing or of another kind (the caller just observed it).
    fn take_lookup(&mut self, id: u64) -> Result<LookupTx, Box<SimError>> {
        match self.txs.remove(&id) {
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
        let Some(TxState::Lookup(mut lookup)) = self.txs.get(&id).copied() else {
            return Err(self.protocol_error(format!("walk for unknown transaction {id}")));
        };
        // Cluster-homed organizations may shift the walk to the home
        // tile's walker when it is free strictly earlier; both candidates
        // are in the requester's cluster, so no overlay traffic is added.
        // A re-homed lookup's backup lives in *another* cluster, so the
        // walk stays where it is (no cross-cluster walker stealing).
        let walk_core = match self.config.org {
            TlbOrg::Hier { cluster_size, .. }
                if walk_core.index() / cluster_size == lookup.home_tile.index() / cluster_size =>
            {
                nocstar_mem::walker::cluster_walker(
                    walk_core,
                    lookup.home_tile,
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
            self.fault_walk_spikes.incr();
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
        self.walks.incr();
        if result.touched_llc_or_memory() {
            self.walks_llc_or_mem.incr();
        }
        for read in &result.pte_reads {
            self.energy.add_walk_access(match read {
                ServicedBy::Pwc => model::PWC_PJ,
                ServicedBy::L1 => model::L1_CACHE_PJ,
                ServicedBy::L2 => model::L2_CACHE_PJ,
                ServicedBy::Llc => model::LLC_CACHE_PJ,
                ServicedBy::Dram => model::DRAM_PJ,
            });
        }
        let done = start + result.latency + WALK_REPLAY_PENALTY;
        self.walker_free[walk_core.index()] = start + result.latency;
        debug_assert_eq!(result.vpn, lookup.vpn, "walk resolved a different page");
        lookup.entry = Some(TlbEntry::new(lookup.asid, result.vpn, result.ppn));
        lookup.walked = true;
        lookup.walk_cycles += (done - self.now).value();
        self.txs.insert(id, TxState::Lookup(lookup));
        self.events.push(done, Event::WalkDone(id));
        Ok(())
    }

    fn walk_done(&mut self, id: u64) -> Result<(), Box<SimError>> {
        let Some(TxState::Lookup(lookup)) = self.txs.get(&id).copied() else {
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
        let local = lookup.home_tile == lookup.requester || matches!(self.net, NetworkModel::None);
        let walked_at_requester = local || self.config.walk_policy == WalkPolicy::AtRequester;
        if walked_at_requester {
            // Insert into the home structure (remotely if needed), then the
            // translation is immediately usable at the requester.
            if local {
                self.insert_resolved(lookup.resolved_home(), entry);
            } else {
                let iid = self.alloc_tx();
                self.txs.insert(iid, TxState::Insert(entry));
                self.charge_message(lookup.requester, lookup.home_tile);
                self.net.submit(
                    self.now,
                    Message::new(iid, lookup.requester, lookup.home_tile, MsgKind::Insert),
                );
            }
            let l = self.take_lookup(id)?;
            self.complete_translation(l)?;
        } else {
            // Walked at the remote node: insert locally, respond.
            self.insert_resolved(lookup.resolved_home(), entry);
            self.charge_message(lookup.home_tile, lookup.requester);
            self.net.respond(
                Message::new(id, lookup.home_tile, lookup.requester, MsgKind::TlbResponse),
                self.now,
            )?;
        }
        Ok(())
    }

    fn insert_home(&mut self, home_idx: usize, entry: TlbEntry) {
        let now = self.now;
        if !self.faults.is_empty() {
            let off = self.faults.slice_offline(home_idx, now.value());
            self.org.structure_mut(home_idx).set_offline(off);
        }
        self.energy.add_l2_lookup(self.org.lookup_pj());
        let slice = self.org.structure_mut(home_idx);
        slice.schedule_write(now);
        slice.insert(entry);
    }

    /// Adjacent-page prefetching into the shared structures (Table III).
    fn prefetch_around(&mut self, vpn: VirtPageNum, asid: Asid) {
        if !self.config.prefetch.is_enabled() {
            return;
        }
        let candidates: Vec<VirtPageNum> = self.config.prefetch.candidates(vpn).collect();
        for cand in candidates {
            if let Some((mapped_vpn, ppn)) = self.mem.translate(asid, cand.base()) {
                if mapped_vpn == cand {
                    let (idx, _) = self.org.home_of(cand, CoreId::new(0));
                    self.insert_home(idx, TlbEntry::new(asid, cand, ppn));
                }
            }
        }
    }

    fn complete_translation(&mut self, lookup: LookupTx) -> Result<(), Box<SimError>> {
        debug_assert!(lookup.tracker_closed, "trackers left open");
        let Some(entry) = lookup.entry else {
            return Err(self.protocol_error(format!(
                "translation for {} completed unresolved",
                lookup.va
            )));
        };
        let total = self.now - lookup.issued_at;
        self.translation_latency.record(total);
        let core = lookup.requester.index();
        let slice_stall = (lookup.slice_done_at - lookup.issued_at).value();
        let response_stall = total
            .value()
            .saturating_sub(slice_stall + lookup.walk_cycles);
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
        if lookup.rehomed {
            self.recovered_translations.incr();
            if let Some(r) = self.rehomed.get_mut(&lookup.orig_home_idx) {
                if !r.first_served {
                    r.first_served = true;
                    self.detect_to_recovered
                        .record((self.now - r.since).value());
                }
            }
        } else if lookup.degraded {
            self.degraded_translations.incr();
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
        self.last_completion = self.last_completion.max(done);
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

    // ----- shootdowns -------------------------------------------------------

    /// Invalidates a stale translation chip-wide.
    ///
    /// With `ipi_broadcast`, every core's interrupt handler relays an
    /// invalidation message per the leader policy (§III-G): with no
    /// leaders, all cores' messages converge on the home slice; with
    /// leaders, non-leader cores message their leader (which drops the
    /// duplicates) and each leader relays one message to the slice.
    /// Without `ipi_broadcast` (superpage promotion/demotion churn), only
    /// the initiating core relays.
    fn shootdown(&mut self, asid: Asid, vpn: VirtPageNum, initiator: CoreId, ipi_broadcast: bool) {
        // An injected shootdown storm escalates single-relay invalidations
        // (promotion/demotion churn) into full IPI broadcasts, flooding
        // the leader-policy relay tree with worst-case traffic.
        let storm_forced =
            !ipi_broadcast && !self.faults.is_empty() && self.faults.storm_active(self.now.value());
        let ipi_broadcast = ipi_broadcast || storm_forced;
        if storm_forced {
            self.fault_storm_relays.incr();
            self.trace.emit(TraceRecord {
                cycle: self.now.value(),
                component: initiator.index() as u32,
                kind: trace_kind::FAULT,
                a: 3,
                b: 0,
            });
        }
        self.shootdowns.incr();
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
        match self.config.org {
            TlbOrg::Private { .. } | TlbOrg::IdealShared { .. } => {
                // Each core's interrupt handler invalidates its own L2
                // (private), or the slice is reached with zero latency.
                self.org.invalidate(asid, vpn);
            }
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
                    let id = self.alloc_tx();
                    self.txs.insert(
                        id,
                        TxState::Inval {
                            inv,
                            home_idx,
                            at_leader: true,
                        },
                    );
                    self.charge_message(src, home_tile);
                    self.net.submit(
                        self.now,
                        Message::new(id, src, home_tile, MsgKind::Invalidation),
                    );
                }
            }
            TlbOrg::Monolithic { .. } | TlbOrg::Distributed { .. } | TlbOrg::Nocstar { .. } => {
                if matches!(self.net, NetworkModel::None) {
                    // Zero-latency interconnect variants invalidate directly.
                    self.org.invalidate(asid, vpn);
                    return;
                }
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
                    let id = self.alloc_tx();
                    self.txs.insert(
                        id,
                        TxState::Inval {
                            inv,
                            home_idx,
                            at_leader,
                        },
                    );
                    self.charge_message(core, dst);
                    self.net
                        .submit(self.now, Message::new(id, core, dst, MsgKind::Invalidation));
                }
            }
        }
    }

    // ----- network ----------------------------------------------------------

    fn handle_delivery(&mut self, d: Delivery) -> Result<(), Box<SimError>> {
        let id = d.msg.id;
        match d.msg.kind {
            MsgKind::TlbRequest => self.schedule_slice_lookup(id, d.at)?,
            MsgKind::TlbResponse => {
                let Some(TxState::Lookup(lookup)) = self.txs.get(&id).copied() else {
                    return Err(
                        self.protocol_error(format!("response for unknown transaction {id}"))
                    );
                };
                if lookup.entry.is_some() {
                    let l = self.take_lookup(id)?;
                    self.complete_translation(l)?;
                } else {
                    // Miss reply: walk at the requesting core (Fig 17).
                    self.start_walk(id, lookup.requester)?;
                }
            }
            MsgKind::Insert => {
                let Some(TxState::Insert(entry)) = self.txs.remove(&id) else {
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
                }) = self.txs.remove(&id)
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
            self.energy.add_noc(e.link + e.switch + e.control);
        }
    }

    fn alloc_tx(&mut self) -> u64 {
        self.next_tx += 1;
        self.next_tx
    }

    // ----- wrap-up ----------------------------------------------------------

    /// The warmup boundary: forget everything measured so far (contents of
    /// TLBs, caches and page tables are kept).
    fn reset_statistics(&mut self) {
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        self.org.reset_stats();
        self.mem.reset_cache_stats();
        self.net.reset_stats();
        self.energy = EnergyAccount::default();
        self.translation_latency = LatencyRecorder::new();
        self.walks = Counter::new();
        self.walks_llc_or_mem = Counter::new();
        self.shootdowns = Counter::new();
        self.flushes = Counter::new();
        self.fault_slice_misses = Counter::new();
        self.fault_walk_spikes = Counter::new();
        self.fault_storm_relays = Counter::new();
        // Recovery *statistics* reset; active re-homing windows are state,
        // not stats, and survive the warmup boundary.
        self.recovered_translations = Counter::new();
        self.degraded_translations = Counter::new();
        self.rehome_activations = Counter::new();
        self.rehome_homebacks = Counter::new();
        self.rehome_handoff_entries = Log2Histogram::new();
        self.detect_to_recovered = Log2Histogram::new();
        self.metrics.reset_values();
        self.trace.clear();
    }

    /// Publishes harvest-time observability into the registry: end-of-run
    /// slice occupancy and port-wait distributions, interconnect link and
    /// arbitration totals, and walk histograms. Hot-path counters (per-core
    /// stall breakdowns) are already in place.
    fn harvest_metrics(&mut self, window: u64) {
        if !self.metrics.is_enabled() {
            return;
        }
        for i in 0..self.org.count() {
            let occupancy = self.org.structure(i).array().occupancy() as u64;
            let waits = *self.org.structure(i).queue_wait_histogram();
            let g = self.metrics.gauge(&format!("l2.{i}.occupancy"));
            self.metrics.set_gauge(g, occupancy);
            let h = self.metrics.histogram(&format!("l2.{i}.queue_wait_cycles"));
            self.metrics.merge_histogram(h, &waits);
        }
        // Per-cluster aggregates for hierarchical organizations: slice
        // hit/miss and occupancy rolled up over each cluster's slices, so
        // a 1024-core report stays readable at cluster granularity.
        if let TlbOrg::Hier { cluster_size, .. } = self.config.org {
            let per_slice = self.org.per_structure_stats();
            for k in 0..self.config.cores / cluster_size {
                let slices = k * cluster_size..(k + 1) * cluster_size;
                let (mut hits, mut misses, mut occupancy) = (0u64, 0u64, 0u64);
                for i in slices {
                    hits += per_slice[i].hits();
                    misses += per_slice[i].misses();
                    occupancy += self.org.structure(i).array().occupancy() as u64;
                }
                let c = self.metrics.counter(&format!("cluster.{k}.l2_hits"));
                self.metrics.add(c, hits);
                let c = self.metrics.counter(&format!("cluster.{k}.l2_misses"));
                self.metrics.add(c, misses);
                let g = self.metrics.gauge(&format!("cluster.{k}.occupancy"));
                self.metrics.set_gauge(g, occupancy);
            }
        }
        let walk_latency = *self.mem.walk_latency_histogram();
        let h = self.metrics.histogram("mem.walk_latency_cycles");
        self.metrics.merge_histogram(h, &walk_latency);
        let pwc_hits = *self.mem.pwc_hits_histogram();
        let h = self.metrics.histogram("mem.pwc_hits_per_walk");
        self.metrics.merge_histogram(h, &pwc_hits);
        if let Some(stats) = self.net.stats().cloned() {
            for (name, v) in [
                ("noc.delivered", stats.delivered),
                ("noc.grants", stats.grants),
                ("noc.no_contention", stats.no_contention),
                ("noc.retries", stats.retries),
                ("noc.rotations", stats.rotations),
            ] {
                let c = self.metrics.counter(name);
                self.metrics.add(c, v);
            }
            for (l, &busy) in stats.link_busy.iter().enumerate() {
                let c = self.metrics.counter(&format!("noc.link.{l}.busy_cycles"));
                self.metrics.add(c, busy);
            }
            // The measurement window, so link utilization is recoverable
            // as busy_cycles / window.
            let g = self.metrics.gauge("noc.window_cycles");
            self.metrics.set_gauge(g, window);
        }
        // Fault accounting exists only under a non-empty plan, so
        // fault-free reports (and their goldens) are byte-identical to
        // builds that never heard of fault injection.
        if !self.faults.is_empty() {
            for (name, v) in [
                (
                    "faults.slice_offline_lookups",
                    self.fault_slice_misses.get(),
                ),
                ("faults.walk_spikes", self.fault_walk_spikes.get()),
                ("faults.storm_relays", self.fault_storm_relays.get()),
            ] {
                let c = self.metrics.counter(name);
                self.metrics.add(c, v);
            }
            if let Some(fs) = self.net.fault_stats().cloned() {
                for (name, v) in [
                    ("faults.denied_setups", fs.denied_setups),
                    ("faults.link_blocked", fs.link_blocked),
                    ("faults.fallbacks", fs.fallbacks),
                    ("faults.degraded_traversals", fs.degraded_traversals),
                    ("faults.backoff_cycles", fs.backoff_cycles),
                ] {
                    let c = self.metrics.counter(name);
                    self.metrics.add(c, v);
                }
                let h = self.metrics.histogram("faults.retries_per_fallback");
                self.metrics.merge_histogram(h, &fs.retries_per_fallback);
            }
        }
        // Recovery accounting exists only when a policy AND a plan are
        // installed, so recovery-off reports (and their goldens) stay
        // byte-identical to builds that never heard of recovery.
        if self.recovery.is_enabled() && !self.faults.is_empty() {
            for (name, v) in [
                (
                    "recovery.translations_recovered",
                    self.recovered_translations.get(),
                ),
                (
                    "recovery.translations_degraded",
                    self.degraded_translations.get(),
                ),
                ("recovery.rehome_activations", self.rehome_activations.get()),
                ("recovery.rehome_homebacks", self.rehome_homebacks.get()),
            ] {
                let c = self.metrics.counter(name);
                self.metrics.add(c, v);
            }
            let handoff = self.rehome_handoff_entries;
            let h = self.metrics.histogram("recovery.rehome_handoff_entries");
            self.metrics.merge_histogram(h, &handoff);
            let recovered = self.detect_to_recovered;
            let h = self
                .metrics
                .histogram("recovery.detect_to_recovered_cycles");
            self.metrics.merge_histogram(h, &recovered);
            for (name, p) in [
                ("recovery.detect_to_recovered_p50", 50.0),
                ("recovery.detect_to_recovered_p99", 99.0),
            ] {
                if let Some(v) = recovered.approx_percentile(p) {
                    let c = self.metrics.counter(name);
                    self.metrics.add(c, v);
                }
            }
            if let Some(rs) = self.net.recovery_stats() {
                for (name, v) in [
                    ("recovery.reroutes", rs.reroutes),
                    ("recovery.detour_extra_hops", rs.detour_extra_hops),
                    ("recovery.reroute_failed", rs.reroute_failed),
                    ("recovery.escalations", rs.escalations),
                    ("recovery.gateway_failovers", rs.gateway_failovers),
                ] {
                    let c = self.metrics.counter(name);
                    self.metrics.add(c, v);
                }
                let h = self.metrics.histogram("recovery.detect_to_reroute_cycles");
                self.metrics.merge_histogram(h, &rs.detect_to_reroute);
                for (name, p) in [
                    ("recovery.detect_to_reroute_p50", 50.0),
                    ("recovery.detect_to_reroute_p99", 99.0),
                ] {
                    if let Some(v) = rs.detect_to_reroute.approx_percentile(p) {
                        let c = self.metrics.counter(name);
                        self.metrics.add(c, v);
                    }
                }
            }
        }
    }

    fn finish(mut self) -> SimReport {
        if self.sampling.is_some() {
            return self.finish_sampled();
        }
        let durations: Vec<u64> = self
            .threads
            .iter()
            .zip(&self.warm_cross_time)
            .map(|(th, &cross)| (th.finish_time - cross).value())
            .collect();
        let runtime = Cycles::new(durations.iter().copied().max().unwrap_or(0));
        self.harvest_metrics(runtime.value());
        // The energy account compares *dynamic* address-translation energy
        // (TLB lookups, interconnect messages, page-walk memory accesses),
        // as in McPAT-style studies. Leakage is excluded: total TLB SRAM is
        // area-normalized across organizations and the interconnect's
        // static power is ~1/4 of the SRAM's (Fig 9), so static terms are
        // nearly org-invariant and, at this simulator's footprint-scaled
        // event counts, would only drown the walk-elimination effect the
        // paper's Fig 14 (right) isolates. `EnergyAccount::add_static`
        // remains available for whole-chip studies.
        let mut l1 = nocstar_stats::counter::HitMiss::new();
        for l in &self.l1s {
            l1.merge(l.stats());
        }
        let mut slice_concurrency = nocstar_stats::histogram::ConcurrencyBins::new();
        for t in &self.org.trackers {
            slice_concurrency.merge(t.bins());
        }
        SimReport {
            label: self.label,
            org_label: self.config.org.label().to_string(),
            cores: self.config.cores,
            cycles: runtime.value(),
            accesses: self.threads.len() as u64 * (self.target - self.warm_target),
            per_thread_finish: durations,
            l1,
            l2: self.org.merged_stats(),
            per_structure: self.org.per_structure_stats(),
            l2_occupancy: self.org.occupancy(),
            walks: self.walks.get(),
            walks_llc_or_mem: self.walks_llc_or_mem.get(),
            shootdowns: self.shootdowns.get(),
            flushes: self.flushes.get(),
            chip_concurrency: self.org.chip_tracker.bins().clone(),
            slice_concurrency,
            translation_latency: self.translation_latency,
            network: self.net.stats().cloned(),
            energy: self.energy,
            metrics: self.metrics.snapshot(),
            trace: self.trace.records().copied().collect(),
            trace_dropped: self.trace.dropped(),
            sampling: None,
        }
    }

    /// Reduces a sampled run to its report (`SAMPLING.md §4`): window sums
    /// for totals, window merges for distributions, end-state for
    /// occupancy, the `SAMPLING.md §3` interval estimates in the
    /// `sampling` section. Also handles partial (aborted) sampled runs —
    /// whatever windows completed are reported, and the estimate list is
    /// empty when none did.
    fn finish_sampled(mut self) -> SimReport {
        let Some(state) = self.sampling.take() else {
            // finish() dispatches here only when the state exists.
            return self.finish();
        };
        let spec = state.spec;
        let windows = state.windows;
        let threads = self.threads.len() as u64;
        let last_runtime = windows.last().map_or(0, |w| w.runtime);
        self.harvest_metrics(last_runtime);
        let mut cycles = 0u64;
        let mut l1 = HitMiss::new();
        let mut l2 = HitMiss::new();
        let mut per_structure: Vec<HitMiss> = Vec::new();
        let mut walks = 0u64;
        let mut walks_llc_or_mem = 0u64;
        let mut shootdowns = 0u64;
        let mut flushes = 0u64;
        let mut translation_latency = LatencyRecorder::new();
        let mut energy = EnergyAccount::default();
        let mut chip_concurrency = ConcurrencyBins::new();
        let mut slice_concurrency = ConcurrencyBins::new();
        let mut network: Option<NocStats> = None;
        for w in &windows {
            cycles += w.runtime;
            l1.merge(w.l1);
            l2.merge(w.l2);
            if per_structure.len() < w.per_structure.len() {
                per_structure.resize(w.per_structure.len(), HitMiss::new());
            }
            for (total, s) in per_structure.iter_mut().zip(&w.per_structure) {
                total.merge(*s);
            }
            walks += w.walks;
            walks_llc_or_mem += w.walks_llc_or_mem;
            shootdowns += w.shootdowns;
            flushes += w.flushes;
            translation_latency.merge(&w.translation_latency);
            energy.merge(&w.energy);
            chip_concurrency.merge(&w.chip_concurrency);
            slice_concurrency.merge(&w.slice_concurrency);
            if let Some(n) = &w.network {
                match &mut network {
                    Some(total) => total.merge(n),
                    None => network = Some(n.clone()),
                }
            }
        }
        let estimates = sampling::estimates(&windows, spec.window(), self.threads.len());
        let section = SamplingReport {
            spec: spec.to_string(),
            period: spec.period(),
            window: spec.window(),
            warmup: spec.warmup(),
            seed: spec.seed(),
            offset: spec.offset(),
            windows: windows.len() as u64,
            span_accesses_per_thread: state.span,
            accesses_fast_forwarded: state.ff_accesses,
            accesses_detailed: windows.len() as u64 * (spec.warmup() + spec.window()) * threads,
            estimates,
        };
        SimReport {
            label: self.label,
            org_label: self.config.org.label().to_string(),
            cores: self.config.cores,
            cycles,
            accesses: windows.len() as u64 * spec.window() * threads,
            per_thread_finish: state.thread_measured,
            l1,
            l2,
            per_structure,
            l2_occupancy: self.org.occupancy(),
            walks,
            walks_llc_or_mem,
            shootdowns,
            flushes,
            chip_concurrency,
            slice_concurrency,
            translation_latency,
            network,
            energy,
            metrics: self.metrics.snapshot(),
            trace: self.trace.records().copied().collect(),
            trace_dropped: self.trace.dropped(),
            sampling: Some(section),
        }
    }
}

/// The visible cost of a data access under out-of-order overlap: the L1
/// latency in full, plus 1/8 of anything beyond it (see [`DATA_MLP_SHIFT`]).
fn data_cost(latency: Cycles) -> Cycles {
    let l1 = 4u64;
    let l = latency.value();
    Cycles::new(l.min(l1) + (l.saturating_sub(l1) >> DATA_MLP_SHIFT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::WorkloadAssignment;
    use nocstar_workloads::preset::Preset;

    fn run(cores: usize, org: TlbOrg, accesses: u64) -> SimReport {
        let config = SystemConfig::new(cores, org);
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        Simulation::new(config, workload).run(accesses)
    }

    fn run_sampled(cores: usize, org: TlbOrg, spec: &str, total: u64) -> SimReport {
        let config = SystemConfig::new(cores, org);
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        let spec: SampleSpec = spec.parse().expect("valid sample spec");
        Simulation::new(config, workload).run_sampled(spec, total)
    }

    #[test]
    fn sampled_run_reports_windows_and_estimates() {
        let spec: SampleSpec = "500:40:20@7".parse().expect("valid spec");
        let report = run_sampled(4, TlbOrg::paper_nocstar(), "500:40:20@7", 2_000);
        let s = report.sampling.as_ref().expect("sampling section");
        assert_eq!(s.windows, spec.windows(2_000));
        assert!(s.windows >= 2);
        // Report totals cover exactly the measured windows.
        assert_eq!(report.accesses, s.windows * 40 * 4);
        // The consumed span stops at the last window's end — the trailing
        // slack is never replayed.
        assert_eq!(
            s.accesses_fast_forwarded + s.accesses_detailed,
            (spec.offset() + (s.windows - 1) * 500 + 60) * 4
        );
        assert_eq!(s.estimates.len(), 9);
        let cpa = s.estimate("cycles_per_access").expect("cycles estimate");
        assert_eq!(cpa.per_window.len(), s.windows as usize);
        assert!(cpa.interval.mean() > 0.0);
        // Whole-run cycles are the sum of the window runtimes.
        let total: f64 = cpa.per_window.iter().map(|v| v * 40.0).sum();
        assert!((total - report.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn sampled_runs_are_deterministic_across_repeats() {
        let run = || {
            run_sampled(8, TlbOrg::paper_nocstar(), "400:30:15@3", 1_700)
                .to_json()
                .to_string()
        };
        assert_eq!(run(), run(), "a repeated sampled run diverged");
    }

    #[test]
    fn exact_reports_carry_no_sampling_section() {
        let report = run(4, TlbOrg::paper_nocstar(), 300);
        assert!(report.sampling.is_none());
        assert!(!report.to_json().to_string().contains("\"sampling\""));
    }

    #[test]
    #[should_panic(expected = "no measurement window")]
    fn sampled_run_rejects_a_span_without_a_window() {
        run_sampled(4, TlbOrg::paper_nocstar(), "1000:60:30@0", 80);
    }

    #[test]
    #[should_panic(expected = "incompatible with fault plans")]
    fn sampled_run_rejects_fault_plans() {
        let config = SystemConfig::new(4, TlbOrg::paper_nocstar());
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        let spec: SampleSpec = "500:40:20@0".parse().expect("valid spec");
        let mut plan = FaultPlan::default();
        plan.walk_spikes.push(nocstar_faults::WalkSpike {
            window: nocstar_faults::CycleWindow {
                start: 0,
                end: u64::MAX,
            },
            multiplier: 4,
        });
        Simulation::new(config, workload)
            .with_faults(plan)
            .run_sampled(spec, 2_000);
    }

    #[test]
    fn private_baseline_runs_to_completion() {
        let report = run(4, TlbOrg::paper_private(), 500);
        assert_eq!(report.accesses, 4 * 500);
        assert!(report.cycles > 0);
        assert!(report.l1.accesses() >= 2000);
        assert!(report.walks > 0);
    }

    #[test]
    fn every_organization_completes_the_same_work() {
        for org in [
            TlbOrg::paper_private(),
            TlbOrg::paper_monolithic(4),
            TlbOrg::paper_distributed(),
            TlbOrg::paper_nocstar(),
            TlbOrg::paper_ideal(),
        ] {
            let report = run(4, org, 300);
            assert_eq!(report.accesses, 1200, "{}", report.org_label);
            assert!(report.cycles > 0);
        }
    }

    #[test]
    fn shared_orgs_hit_where_private_misses() {
        // Shared L2 capacity dedups the shared hot set, so the shared
        // organizations must eliminate a large fraction of L2 misses.
        let private = run(8, TlbOrg::paper_private(), 1500);
        let ideal = run(8, TlbOrg::paper_ideal(), 1500);
        assert!(private.l2.misses() > 0);
        assert!(
            ideal.l2.miss_rate() < private.l2.miss_rate(),
            "shared {} vs private {}",
            ideal.l2.miss_rate(),
            private.l2.miss_rate()
        );
    }

    #[test]
    fn nocstar_beats_distributed_on_runtime() {
        let distributed = run(16, TlbOrg::paper_distributed(), 800);
        let nocstar = run(16, TlbOrg::paper_nocstar(), 800);
        assert!(
            nocstar.cycles < distributed.cycles,
            "nocstar {} vs distributed {}",
            nocstar.cycles,
            distributed.cycles
        );
    }

    #[test]
    fn ideal_bounds_nocstar() {
        let nocstar = run(16, TlbOrg::paper_nocstar(), 800);
        let ideal = run(16, TlbOrg::paper_ideal(), 800);
        assert!(ideal.cycles <= nocstar.cycles);
    }

    #[test]
    fn network_stats_exist_only_for_networked_orgs() {
        assert!(run(4, TlbOrg::paper_private(), 100).network.is_none());
        assert!(run(4, TlbOrg::paper_nocstar(), 100).network.is_some());
    }

    #[test]
    fn concurrency_trackers_quiesce() {
        let report = run(4, TlbOrg::paper_nocstar(), 500);
        // Every begun L2 access ended; totals match between views.
        assert_eq!(
            report.chip_concurrency.total(),
            report.slice_concurrency.total()
        );
        assert!(report.chip_concurrency.total() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(4, TlbOrg::paper_nocstar(), 400);
        let b = run(4, TlbOrg::paper_nocstar(), 400);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l2.misses(), b.l2.misses());
        assert_eq!(a.walks, b.walks);
    }

    fn run_with_recovery(
        cores: usize,
        org: TlbOrg,
        accesses: u64,
        plan: &str,
        policy: Option<RecoveryPolicy>,
    ) -> SimReport {
        let mut config = SystemConfig::new(cores, org);
        config.metrics = true;
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        let mut sim = Simulation::new(config, workload)
            .with_faults(FaultPlan::parse(plan).expect("valid plan"));
        if let Some(p) = policy {
            sim = sim.with_recovery(p);
        }
        sim.run(accesses)
    }

    #[test]
    fn recovery_beats_open_loop_on_a_mesh_link_outage() {
        // The standard faultsweep outage: every link dead for cycles
        // 4000-9000. Open loop waits the window out; the closed loop
        // detours (no healthy detour exists here) and then escalates out
        // of the bounded retry far before the window clears.
        let plan = "link:*@4000-9000=off";
        let open = run_with_recovery(16, TlbOrg::paper_distributed(), 800, plan, None);
        let closed = run_with_recovery(
            16,
            TlbOrg::paper_distributed(),
            800,
            plan,
            Some(RecoveryPolicy::all()),
        );
        assert_eq!(open.accesses, closed.accesses);
        assert!(
            closed.translation_latency.mean() < open.translation_latency.mean(),
            "closed loop {} vs open loop {}",
            closed.translation_latency.mean(),
            open.translation_latency.mean()
        );
        assert!(closed.cycles < open.cycles);
        assert!(closed.metrics.counter("recovery.escalations").unwrap_or(0) > 0);
    }

    #[test]
    fn rehoming_beats_open_loop_on_a_hier_cluster_outage() {
        // One whole cluster offline for most of the run: open loop walks
        // every access homed there; re-homing redirects the set range to
        // the same residue slice in a surviving cluster, which warms up
        // and then hits.
        let plan = "cluster:1/4@1000-400000";
        let open = run_with_recovery(16, TlbOrg::paper_hier(4), 800, plan, None);
        let closed = run_with_recovery(
            16,
            TlbOrg::paper_hier(4),
            800,
            plan,
            Some(RecoveryPolicy::all()),
        );
        assert_eq!(open.accesses, closed.accesses);
        assert!(
            closed.translation_latency.mean() < open.translation_latency.mean(),
            "closed loop {} vs open loop {}",
            closed.translation_latency.mean(),
            open.translation_latency.mean()
        );
        assert!(closed.walks < open.walks, "re-homing must eliminate walks");
        let recovered = closed
            .metrics
            .counter("recovery.translations_recovered")
            .unwrap_or(0);
        assert!(recovered > 0, "no translation was served by a backup");
        assert!(
            closed
                .metrics
                .histogram("recovery.detect_to_recovered_cycles")
                .is_some_and(|h| h.count() > 0),
            "detect-to-recovered latency must be measured"
        );
    }

    #[test]
    fn rehomed_windows_close_with_a_coherent_handoff() {
        // A short offline window inside the run: entries the backup
        // absorbed are invalidated when traffic homes back, and both
        // directions are counted.
        let plan = "slice:3@500-4000";
        let r = run_with_recovery(
            8,
            TlbOrg::paper_distributed(),
            600,
            plan,
            Some(RecoveryPolicy::all()),
        );
        let activations = r
            .metrics
            .counter("recovery.rehome_activations")
            .unwrap_or(0);
        let homebacks = r.metrics.counter("recovery.rehome_homebacks").unwrap_or(0);
        assert!(activations > 0, "window never opened");
        assert!(homebacks > 0, "window never closed");
        assert!(homebacks <= activations);
    }

    #[test]
    fn recovery_off_reports_carry_no_recovery_metrics() {
        let plan = "slice:3@500-4000";
        let r = run_with_recovery(8, TlbOrg::paper_distributed(), 300, plan, None);
        assert!(r
            .metrics
            .samples()
            .iter()
            .all(|s| !s.name.starts_with("recovery.")));
    }

    #[test]
    fn recovery_runs_are_deterministic() {
        let mk = || {
            run_with_recovery(
                16,
                TlbOrg::paper_hier(4),
                400,
                "cluster:1/4@1000-100000; link:5@2000-3000=off",
                Some(RecoveryPolicy::all()),
            )
        };
        let a = mk().to_json().to_string();
        let b = mk().to_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn walk_policies_both_complete() {
        for policy in [WalkPolicy::AtRequester, WalkPolicy::AtRemote] {
            let mut config = SystemConfig::new(8, TlbOrg::paper_nocstar());
            config.walk_policy = policy;
            let workload = WorkloadAssignment::preset(&config, Preset::Gups);
            let report = Simulation::new(config, workload).run(300);
            assert_eq!(report.accesses, 2400);
            assert!(report.walks > 0);
        }
    }

    #[test]
    fn monolithic_smart_and_ideal_variants_run() {
        for net in [
            MonolithicNet::Mesh,
            MonolithicNet::Smart(8),
            MonolithicNet::Ideal,
        ] {
            let org = TlbOrg::Monolithic {
                entries_per_core: 1024,
                banks: 4,
                net,
                latency_override: None,
            };
            let report = run(8, org, 300);
            assert_eq!(report.accesses, 2400, "{net:?}");
        }
    }

    #[test]
    fn fixed_walk_latency_shrinks_translation_tail() {
        let mut slow = SystemConfig::new(4, TlbOrg::paper_private());
        slow.walk_latency = nocstar_mem::walker::WalkLatency::Fixed(Cycles::new(80));
        let mut fast = slow;
        fast.walk_latency = nocstar_mem::walker::WalkLatency::Fixed(Cycles::new(10));
        let run_cfg = |config: SystemConfig| {
            let w = WorkloadAssignment::preset(&config, Preset::Gups);
            Simulation::new(config, w).run(800)
        };
        let slow_r = run_cfg(slow);
        let fast_r = run_cfg(fast);
        assert!(slow_r.cycles > fast_r.cycles);
        assert!(slow_r.translation_latency.max() > fast_r.translation_latency.max());
    }

    #[test]
    fn prefetch_reduces_misses_on_strided_traffic() {
        // Sequential-ish cold accesses benefit from +/-2 prefetch.
        let base_cfg = SystemConfig::new(4, TlbOrg::paper_nocstar());
        let mut pf_cfg = base_cfg;
        pf_cfg.prefetch = nocstar_tlb::prefetch::PrefetchDepth::new(2).unwrap();
        let run_cfg = |config: SystemConfig| {
            let w = WorkloadAssignment::preset(&config, Preset::Xsbench);
            Simulation::new(config, w).run_measured(2_000, 3_000)
        };
        let without = run_cfg(base_cfg);
        let with = run_cfg(pf_cfg);
        assert!(
            with.walks <= without.walks,
            "prefetch should not add walks: {} vs {}",
            with.walks,
            without.walks
        );
    }

    #[test]
    fn smaller_l1_raises_l2_traffic() {
        let mut small = SystemConfig::new(4, TlbOrg::paper_private());
        small.l1_scale = 0.5;
        let big_cfg = {
            let mut c = small;
            c.l1_scale = 1.5;
            c
        };
        let run_cfg = |config: SystemConfig| {
            let w = WorkloadAssignment::preset(&config, Preset::Redis);
            Simulation::new(config, w).run(1_500)
        };
        let small_r = run_cfg(small);
        let big_r = run_cfg(big_cfg);
        assert!(
            small_r.l2.accesses() > big_r.l2.accesses(),
            "halved L1 must push more traffic to L2: {} vs {}",
            small_r.l2.accesses(),
            big_r.l2.accesses()
        );
    }

    #[test]
    fn round_trip_acquire_completes_with_shootdowns() {
        // Regression: invalidation/insert traffic in round-trip mode must
        // not deadlock the fabric.
        let org = TlbOrg::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
            acquire: nocstar_noc::circuit::AcquireMode::RoundTrip,
            ideal_fabric: false,
        };
        let config = SystemConfig::new(8, org);
        let mut spec = Preset::Redis.spec();
        spec.remaps_per_million = 5_000.0;
        let workload = WorkloadAssignment::homogeneous(&config, spec);
        let r = Simulation::new(config, workload).run(1_200);
        assert_eq!(r.accesses, 8 * 1_200);
        assert!(r.shootdowns > 0);
    }

    #[test]
    fn metrics_do_not_change_simulated_time() {
        let plain_cfg = SystemConfig::new(4, TlbOrg::paper_nocstar());
        let mut observed_cfg = plain_cfg;
        observed_cfg.metrics = true;
        observed_cfg.trace_capacity = 1024;
        let run_cfg = |config: SystemConfig| {
            let w = WorkloadAssignment::preset(&config, Preset::Redis);
            Simulation::new(config, w).run(400)
        };
        let plain = run_cfg(plain_cfg);
        let observed = run_cfg(observed_cfg);
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.l2.misses(), observed.l2.misses());
        assert_eq!(plain.walks, observed.walks);
        // Off by default; populated when enabled.
        assert!(plain.metrics.is_empty());
        assert!(plain.trace.is_empty());
        assert!(!observed.metrics.is_empty());
        assert!(!observed.trace.is_empty());
    }

    #[test]
    fn enabled_metrics_cover_every_layer() {
        let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
        config.metrics = true;
        let w = WorkloadAssignment::preset(&config, Preset::Redis);
        let r = Simulation::new(config, w).run(500);
        let m = &r.metrics;
        // TLB layer: per-slice occupancy and port-wait distribution.
        assert!(m.gauge("l2.0.occupancy").is_some_and(|o| o > 0));
        assert!(m.histogram("l2.0.queue_wait_cycles").is_some());
        // Memory layer: walk latency and PWC hits.
        assert!(m
            .histogram("mem.walk_latency_cycles")
            .is_some_and(|h| h.count() == r.walks));
        assert!(m.histogram("mem.pwc_hits_per_walk").is_some());
        // Interconnect layer: arbitration and per-link totals.
        assert!(m.counter("noc.delivered").is_some_and(|d| d > 0));
        assert!(m.counter("noc.grants").is_some_and(|g| g > 0));
        assert!(m.counter("noc.retries").is_some());
        assert!(m.counter("noc.link.0.busy_cycles").is_some());
        // Core layer: stall breakdown attributed to cores.
        let stalled: u64 = (0..4)
            .map(|c| m.counter(&format!("core.{c}.stall.slice_cycles")).unwrap())
            .sum();
        assert!(stalled > 0);
    }

    #[test]
    fn trace_records_the_translation_lifecycle() {
        let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
        config.trace_capacity = 1 << 16;
        let w = WorkloadAssignment::preset(&config, Preset::Redis);
        let r = Simulation::new(config, w).run(300);
        assert!(!r.trace.is_empty());
        // Records come back oldest-first in simulated-time order.
        assert!(r.trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let kinds: std::collections::HashSet<u16> = r.trace.iter().map(|t| t.kind).collect();
        for kind in [
            trace_kind::ISSUE,
            trace_kind::SLICE_DONE,
            trace_kind::WALK_DONE,
            trace_kind::TRANSLATION_DONE,
        ] {
            assert!(kinds.contains(&kind), "missing trace kind {kind}");
        }
    }

    #[test]
    fn tiny_trace_ring_stays_bounded_and_counts_drops() {
        let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
        config.trace_capacity = 16;
        let w = WorkloadAssignment::preset(&config, Preset::Redis);
        let r = Simulation::new(config, w).run(500);
        assert_eq!(r.trace.len(), 16);
        assert!(r.trace_dropped > 0);
    }

    #[test]
    fn shootdowns_happen_for_remapping_workloads() {
        let mut config = SystemConfig::new(4, TlbOrg::paper_nocstar());
        config.seed = 7;
        let mut spec = Preset::Redis.spec();
        spec.remaps_per_million = 20_000.0;
        let workload = WorkloadAssignment::homogeneous(&config, spec);
        let report = Simulation::new(config, workload).run(2000);
        assert!(report.shootdowns > 0);
    }
}
