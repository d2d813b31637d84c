//! The traced run and the layer replays that attribute host time.
//!
//! The traced run repeats the workload's batch once with the metrics
//! registry on and a trace ring large enough to keep every record, and
//! checks it against the untraced report ([`traced`]). The replays then
//! feed each layer's public API, from outside the simulator, with the same
//! workload's inputs, and time the calls:
//!
//! * [`Recorder`] drives fresh L1 TLBs, L2 structures (`OrgState`) and a
//!   `MemorySystem` through every thread's trace events, untimed, making
//!   the calls the simulator makes at each access (the detailed or the
//!   functional ones, as the batch takes that access) and logging every
//!   call with its arguments, one log per layer. Exact runs are replayed in
//!   estimated simulated-time order ([`access_cycles`]), sampled runs one
//!   access per thread in turn.
//! * [`time_calls`] replays one layer's log into a fresh instance of that
//!   layer. A layer's state depends only on its own calls, so the replay
//!   repeats the recorded calls and their outcomes exactly. One timer spans
//!   the whole log: that is the layer's time. A separate pass reads the
//!   clock only where the kind of call changes (lookups, invalidations,
//!   walks, ...) to split that time between the kinds.
//! * [`plan_messages`] and [`replay_noc`] feed a fresh fabric the
//!   request, response and insert messages that the traced run's `ISSUE`,
//!   `SLICE_DONE` and `WALK_DONE` records imply, plus the invalidation
//!   relays of the recorded shootdowns, and advance it the way the event
//!   loop does, under one timer.
//!
//! The event queue, run loop, organization bookkeeping and harvest cannot
//! be reached from outside: they are the residual, untraced wall time
//! minus the layer times.

use crate::{
    digest, median, processed_accesses, ratio, sub_seed, Batch, Feed, Metric, Mode, Prepared,
    SeedRuns, Workload,
};
use nocstar::core::network::NetworkModel;
use nocstar::core::org::OrgState;
use nocstar::core::sim::{trace_kind, SLICE_COMPONENT_BASE};
use nocstar::mem::hierarchy::{MemoryConfig, MemorySystem};
use nocstar::noc::hier::HierNoc;
use nocstar::noc::mesh::MeshNoc;
use nocstar::noc::message::{Message, MsgKind};
use nocstar::noc::smart::SmartNoc;
use nocstar::prelude::*;
use nocstar::stats::metrics::{MetricValue, MetricsSnapshot};
use nocstar::stats::tracing::TraceRecord;
use nocstar::tlb::entry::TlbEntry;
use nocstar::tlb::l1::L1Tlb;
use nocstar::types::{PhysAddr, PhysPageNum, VirtPageNum};
use nocstar::workloads::trace::{MemAccess, TraceEvent, TraceSource};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Largest relative difference allowed between a replayed ratio and the
/// same ratio in the run's report before the traced run fails.
pub const DRIFT_LIMIT: f64 = 0.1;

/// Whole-log timing passes per layer; the layer's time is their median.
const PASSES: usize = 3;

/// Call kinds of the TLB logs.
const LOOKUP: usize = 0;
const INVALIDATE: usize = 1;

/// Call kinds of the memory log.
const ACCESS: usize = 0;
const WALK: usize = 1;
const MAP: usize = 2;
const TABLES: usize = 3;

/// One step of one thread's feed: its trace events up to and including
/// its next access, and whether the simulator asks that access's backing
/// page size (only on a first touch or an L1 miss).
#[derive(Debug, Clone, Copy)]
struct FeedStep {
    thread: u32,
    backing: bool,
}

impl FeedStep {
    fn apply(&self, sources: &mut [Box<dyn TraceSource>]) {
        let src = sources[self.thread as usize].as_mut();
        loop {
            let event = src.next_event();
            black_box(src.asid());
            if let TraceEvent::Access(access) = event {
                if self.backing {
                    black_box(src.backing(access.va));
                }
                return;
            }
        }
    }
}

/// One call into the per-core L1 TLBs.
#[derive(Debug, Clone, Copy)]
enum L1Op {
    Lookup(CoreId, Asid, VirtAddr),
    /// The stat-free lookup of the fast-forward path.
    Touch(CoreId, Asid, VirtAddr),
    Insert(CoreId, TlbEntry),
    /// A context switch's `flush_non_global`.
    Flush(CoreId),
    /// A shootdown: `invalidate` on every core's L1.
    Invalidate(Asid, VirtPageNum),
}

impl L1Op {
    fn kind(&self) -> usize {
        match self {
            L1Op::Lookup(..) | L1Op::Touch(..) | L1Op::Insert(..) => LOOKUP,
            L1Op::Flush(_) | L1Op::Invalidate(..) => INVALIDATE,
        }
    }

    /// Makes the call; a lookup's entry.
    fn apply(&self, l1s: &mut [L1Tlb]) -> Option<TlbEntry> {
        match *self {
            L1Op::Lookup(core, asid, va) => l1s[core.index()].lookup(asid, va),
            L1Op::Touch(core, asid, va) => l1s[core.index()].touch(asid, va),
            L1Op::Insert(core, entry) => {
                black_box(l1s[core.index()].insert(entry));
                None
            }
            L1Op::Flush(core) => {
                black_box(l1s[core.index()].flush_non_global());
                None
            }
            L1Op::Invalidate(asid, vpn) => {
                for l1 in l1s.iter_mut() {
                    black_box(l1.invalidate(asid, vpn));
                }
                None
            }
        }
    }
}

/// One call into the L2 structures.
#[derive(Debug, Clone, Copy)]
enum SliceOp {
    /// `home_of`, a read-port slot and `lookup` at the home structure.
    Lookup {
        core: CoreId,
        asid: Asid,
        vpn: VirtPageNum,
        now: Cycle,
    },
    /// `home_of` and the stat-free `touch`.
    Touch {
        core: CoreId,
        asid: Asid,
        vpn: VirtPageNum,
    },
    /// A fill of structure `idx`, taking a write-port slot on the detailed
    /// path.
    Insert {
        idx: usize,
        entry: TlbEntry,
        now: Option<Cycle>,
    },
    /// A context switch: every structure's `flush_non_global`, or only the
    /// core's own.
    Flush(Option<CoreId>),
    /// An invalidation message arriving at structure `idx`.
    Invalidate {
        idx: usize,
        asid: Asid,
        vpn: VirtPageNum,
        now: Cycle,
    },
    /// `OrgState::invalidate`, where no message carries the invalidation.
    InvalidateHome(Asid, VirtPageNum),
}

impl SliceOp {
    fn kind(&self) -> usize {
        match self {
            SliceOp::Lookup { .. } | SliceOp::Touch { .. } | SliceOp::Insert { .. } => LOOKUP,
            SliceOp::Flush(_) | SliceOp::Invalidate { .. } | SliceOp::InvalidateHome(..) => {
                INVALIDATE
            }
        }
    }

    /// Makes the call; a lookup's home structure and entry.
    fn apply(&self, org: &mut OrgState) -> (usize, Option<TlbEntry>) {
        match *self {
            SliceOp::Lookup {
                core,
                asid,
                vpn,
                now,
            } => {
                let (idx, _) = org.home_of(vpn, core);
                let slice = org.structure_mut(idx);
                black_box(slice.schedule_read(now));
                (idx, slice.lookup(asid, vpn))
            }
            SliceOp::Touch { core, asid, vpn } => {
                let (idx, _) = org.home_of(vpn, core);
                (idx, org.structure_mut(idx).touch(asid, vpn))
            }
            SliceOp::Insert { idx, entry, now } => {
                let slice = org.structure_mut(idx);
                if let Some(now) = now {
                    black_box(slice.schedule_write(now));
                }
                black_box(slice.insert(entry));
                (idx, None)
            }
            SliceOp::Flush(None) => {
                black_box(org.flush_all_non_global());
                (0, None)
            }
            SliceOp::Flush(Some(core)) => {
                black_box(org.flush_core_non_global(core));
                (core.index(), None)
            }
            SliceOp::Invalidate {
                idx,
                asid,
                vpn,
                now,
            } => {
                let slice = org.structure_mut(idx);
                black_box(slice.schedule_write(now));
                black_box(slice.invalidate(asid, vpn));
                (idx, None)
            }
            SliceOp::InvalidateHome(asid, vpn) => {
                black_box(org.invalidate(asid, vpn));
                (0, None)
            }
        }
    }
}

/// One call into the memory system.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    /// The mapped-ness probe before demand mapping.
    Translate(Asid, VirtAddr),
    EnsureMapped(Asid, VirtAddr, PageSize),
    /// The fast-forward path's demand map and translation.
    Resolve(Asid, VirtAddr, PageSize),
    Access(CoreId, PhysAddr, bool),
    WarmAccess(CoreId, PhysAddr, bool),
    Walk(CoreId, Asid, VirtAddr, WalkLatency),
    WarmWalk(CoreId, Asid, VirtAddr),
    Remap(Asid, VirtPageNum),
    Promote(Asid, VirtPageNum),
    Demote(Asid, VirtPageNum),
    FlushPwc(CoreId),
}

/// What a memory-system call returned, where the caller branches on it.
#[derive(Debug)]
enum MemOut {
    Done,
    Mapping(Option<(VirtPageNum, PhysPageNum)>),
    Remapped(bool),
    Promoted(Option<Vec<VirtPageNum>>),
    Demoted(Option<VirtPageNum>),
}

impl MemOp {
    fn kind(&self) -> usize {
        match self {
            MemOp::Access(..) | MemOp::WarmAccess(..) => ACCESS,
            MemOp::Walk(..) | MemOp::WarmWalk(..) => WALK,
            MemOp::EnsureMapped(..) | MemOp::Resolve(..) => MAP,
            MemOp::Translate(..)
            | MemOp::Remap(..)
            | MemOp::Promote(..)
            | MemOp::Demote(..)
            | MemOp::FlushPwc(_) => TABLES,
        }
    }

    fn apply(&self, mem: &mut MemorySystem) -> MemOut {
        match *self {
            MemOp::Translate(asid, va) => MemOut::Mapping(mem.translate(asid, va)),
            MemOp::EnsureMapped(asid, va, size) => {
                black_box(mem.ensure_mapped(asid, va, size));
                MemOut::Done
            }
            MemOp::Resolve(asid, va, size) => {
                MemOut::Mapping(Some(mem.resolve_mapped(asid, va, size)))
            }
            MemOp::Access(core, pa, write) => {
                black_box(mem.access(core, pa, write));
                MemOut::Done
            }
            MemOp::WarmAccess(core, pa, write) => {
                mem.warm_access(core, pa, write);
                MemOut::Done
            }
            MemOp::Walk(core, asid, va, policy) => {
                let walk = mem.walk_with(core, asid, va, policy);
                MemOut::Mapping(Some((walk.vpn, walk.ppn)))
            }
            MemOp::WarmWalk(core, asid, va) => {
                mem.warm_walk(core, asid, va);
                MemOut::Done
            }
            MemOp::Remap(asid, vpn) => MemOut::Remapped(mem.remap(asid, vpn).is_some()),
            MemOp::Promote(asid, v2m) => MemOut::Promoted(mem.promote(asid, v2m)),
            MemOp::Demote(asid, v2m) => MemOut::Demoted(mem.demote(asid, v2m)),
            MemOp::FlushPwc(core) => {
                mem.flush_pwc(core);
                MemOut::Done
            }
        }
    }
}

/// Host time of one layer's logged calls, replayed into fresh state.
#[derive(Debug, Clone, Default)]
struct Timing {
    /// Nanoseconds for the whole log: the median of [`PASSES`] passes,
    /// each under one timer.
    ns: f64,
    /// `ns` split between call kinds.
    by_kind: Vec<f64>,
    /// Calls of each kind.
    calls: Vec<u64>,
}

/// What one clock read costs, in nanoseconds.
fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// Replays `log` into state from `fresh` with `apply`, [`PASSES`] times
/// under one timer each, then once more reading the clock only where
/// `kind` changes, to split the time between `kinds` kinds of call. Each
/// split segment is charged net of one clock read and the split is scaled
/// to the whole-log time, so the clock reads never reach the layer's time.
/// State is built and dropped outside the timers.
///
/// # Errors
///
/// A failure of `fresh`.
fn time_calls<S, O>(
    log: &[O],
    kinds: usize,
    kind: impl Fn(&O) -> usize,
    mut fresh: impl FnMut() -> Result<S, String>,
    apply: impl Fn(&mut S, &O),
) -> Result<Timing, String> {
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let mut state = fresh()?;
        let start = Instant::now();
        for op in log {
            apply(&mut state, op);
        }
        passes.push(start.elapsed().as_nanos() as f64);
        drop(black_box(state));
    }
    let ns = median(&passes);

    let read_ns = clock_read_ns();
    let mut state = fresh()?;
    let mut spans = vec![0.0; kinds];
    let mut calls = vec![0u64; kinds];
    let mut open: Option<(usize, Instant)> = None;
    for op in log {
        let k = kind(op);
        calls[k] += 1;
        if open.map(|(c, _)| c) != Some(k) {
            let now = Instant::now();
            if let Some((c, since)) = open {
                spans[c] += ((now - since).as_nanos() as f64 - read_ns).max(0.0);
            }
            open = Some((k, now));
        }
        apply(&mut state, op);
    }
    if let Some((c, since)) = open {
        spans[c] += (since.elapsed().as_nanos() as f64 - read_ns).max(0.0);
    }
    drop(black_box(state));
    let split: f64 = spans.iter().sum();
    Ok(Timing {
        ns,
        by_kind: spans.iter().map(|s| ns * ratio(*s, split)).collect(),
        calls,
    })
}

/// One shootdown the recorder performed on an exact run.
#[derive(Debug, Clone, Copy)]
struct Shootdown {
    /// Estimated simulated cycle (see [`access_cycles`]).
    at: u64,
    initiator: CoreId,
    vpn: VirtPageNum,
    /// IPI broadcast (page remap) rather than one relay (superpage churn).
    broadcast: bool,
}

/// One invalidation message of a shootdown: source, structure index,
/// destination, and whether it invalidates on arrival (a relay to a
/// leader stops there).
type Relay = (CoreId, usize, CoreId, bool);

/// The invalidation messages `Simulation` sends for one shootdown; `None`
/// where the organization invalidates without a network.
fn relays(
    config: &SystemConfig,
    org: &OrgState,
    vpn: VirtPageNum,
    initiator: CoreId,
    broadcast: bool,
) -> Option<Vec<Relay>> {
    let senders: Vec<CoreId> = if broadcast {
        CoreId::all(config.cores).collect()
    } else {
        vec![initiator]
    };
    match config.org {
        TlbOrg::Private { .. }
        | TlbOrg::IdealShared { .. }
        | TlbOrg::Monolithic {
            net: MonolithicNet::Ideal,
            ..
        } => None,
        // Each cluster holds a replica: a broadcast reaches every core's
        // own cluster home, a single relay every cluster's.
        TlbOrg::Hier { .. } if broadcast => Some(
            senders
                .into_iter()
                .map(|core| {
                    let (idx, tile) = org.home_of(vpn, core);
                    (core, idx, tile, true)
                })
                .collect(),
        ),
        TlbOrg::Hier { .. } => Some(
            org.homes_of(vpn)
                .into_iter()
                .map(|(idx, tile)| (initiator, idx, tile, true))
                .collect(),
        ),
        _ => {
            let (idx, tile) = org.home_of(vpn, initiator);
            Some(
                senders
                    .into_iter()
                    .map(|core| {
                        let leader = config.leader_policy.leader_for(core);
                        if leader == core {
                            (core, idx, tile, true)
                        } else {
                            (core, idx, leader, false)
                        }
                    })
                    .collect(),
            )
        }
    }
}

/// Estimated simulated cycle of every access of every thread of an exact
/// run, anchored on its trace: a thread's k-th L1 miss (found by replaying
/// that thread's L1 on its own) issued at the cycle of the thread's k-th
/// `ISSUE` record. Accesses between misses are placed linearly between
/// the anchors, the last ones up to the thread's finish cycle.
fn access_cycles(
    config: &SystemConfig,
    sources: &mut [Box<dyn TraceSource>],
    per_thread: u64,
    trace: &[TraceRecord],
    per_thread_finish: &[u64],
) -> Vec<Vec<u64>> {
    let mut issues: Vec<Vec<u64>> = vec![Vec::new(); sources.len()];
    for r in trace.iter().filter(|r| r.kind == trace_kind::ISSUE) {
        if let Some(cycles) = issues.get_mut(r.b as usize) {
            cycles.push(r.cycle);
        }
    }
    sources
        .iter_mut()
        .zip(issues)
        .enumerate()
        .map(|(t, (src, issued))| {
            let mut l1 = L1Tlb::new(config.l1_config());
            let mut issued = issued.into_iter();
            let mut anchors = vec![(0u64, 0u64)];
            let mut index = 0;
            while index < per_thread {
                let asid = src.asid();
                match src.next_event() {
                    TraceEvent::Access(a) => {
                        if l1.lookup(asid, a.va).is_none() {
                            let size = src.backing(a.va);
                            let vpn = a.va.page_number(size);
                            l1.insert(TlbEntry::new(asid, vpn, PhysPageNum::new(0, size)));
                            if let Some(cycle) = issued.next() {
                                anchors.push((index, cycle));
                            }
                        }
                        index += 1;
                    }
                    TraceEvent::ContextSwitch => {
                        l1.flush_non_global();
                    }
                    TraceEvent::Remap(vpn) | TraceEvent::Demote(vpn) => {
                        l1.invalidate(asid, vpn);
                    }
                    TraceEvent::Promote(_) => {}
                }
            }
            anchors.push((per_thread, per_thread_finish.get(t).copied().unwrap_or(0)));
            anchors
                .windows(2)
                .flat_map(|w| {
                    let ((i0, c0), (i1, c1)) = (w[0], w[1]);
                    (i0..i1).map(move |i| c0 + c1.saturating_sub(c0) * (i - i0) / (i1 - i0))
                })
                .collect()
        })
        .collect()
}

/// Every layer's logged calls.
#[derive(Debug, Default)]
struct Logs {
    feed: Vec<FeedStep>,
    l1: Vec<L1Op>,
    slice: Vec<SliceOp>,
    mem: Vec<MemOp>,
    /// Shootdowns of an exact run, replayed into the NoC.
    shootdowns: Vec<Shootdown>,
}

/// Work counts of a recording.
#[derive(Debug, Default)]
struct Counts {
    /// Trace events read.
    events: u64,
    /// Accesses replayed (detailed and functional).
    accesses: u64,
    /// L2 structure probes (detailed and functional).
    slice_probes: u64,
    /// Invalidation calls on single structures.
    invalidations: u64,
    /// Detailed L1 lookups of measured accesses: all of an exact run's,
    /// the last window's of a sampled run.
    l1_lookups: u64,
    /// Misses among them.
    l1_misses: u64,
    /// Per thread, whether each of those misses hit in the L2, in order.
    l2_hits: Vec<Vec<bool>>,
}

/// Drives fresh layers through a workload's trace events, making the calls
/// the simulator makes, and logs each layer's calls.
struct Recorder<'a> {
    config: &'a SystemConfig,
    mem: MemorySystem,
    l1s: Vec<L1Tlb>,
    org: OrgState,
    /// Synthetic cycle for port scheduling: one per L2 access.
    clock: u64,
    /// Whether shootdowns are kept for the NoC replay (exact runs).
    keep_shootdowns: bool,
    log: Logs,
    counts: Counts,
}

fn fresh_l1s(config: &SystemConfig) -> Vec<L1Tlb> {
    (0..config.cores)
        .map(|_| L1Tlb::new(config.l1_config()))
        .collect()
}

fn fresh_mem(config: &SystemConfig) -> MemorySystem {
    MemorySystem::new(MemoryConfig::haswell(config.cores))
}

impl<'a> Recorder<'a> {
    /// Records `sources` (one per hardware thread) for the workload's
    /// batch. An exact run is replayed in order of `schedule` (from
    /// [`access_cycles`]) so flushes and shootdowns interleave with lookups
    /// as they did in simulated time; a sampled run one access per thread
    /// in turn, the order the simulator's fast-forward uses.
    fn record(
        workload: &Workload,
        config: &'a SystemConfig,
        sources: &mut [Box<dyn TraceSource>],
        schedule: Option<&[Vec<u64>]>,
    ) -> Self {
        let mut r = Recorder {
            config,
            mem: fresh_mem(config),
            l1s: fresh_l1s(config),
            org: OrgState::new(config),
            clock: 0,
            keep_shootdowns: schedule.is_some(),
            log: Logs::default(),
            counts: Counts {
                l2_hits: vec![Vec::new(); sources.len()],
                ..Counts::default()
            },
        };
        match schedule {
            Some(cycles) => {
                let mut due: BinaryHeap<Reverse<(u64, usize, usize)>> = cycles
                    .iter()
                    .enumerate()
                    .filter_map(|(t, c)| c.first().map(|&at| Reverse((at, t, 0))))
                    .collect();
                while let Some(Reverse((at, t, index))) = due.pop() {
                    r.step(t, at, true, true, sources[t].as_mut());
                    if let Some(&next) = cycles[t].get(index + 1) {
                        due.push(Reverse((next, t, index + 1)));
                    }
                }
            }
            None => {
                for index in 0..workload.mode.per_thread() {
                    let detailed = workload.mode.detailed(index);
                    let measured = workload.mode.in_last_window(index);
                    for (thread, src) in sources.iter_mut().enumerate() {
                        r.step(thread, 0, detailed, measured, src.as_mut());
                    }
                }
            }
        }
        r
    }

    fn l1(&mut self, op: L1Op) -> Option<TlbEntry> {
        self.log.l1.push(op);
        op.apply(&mut self.l1s)
    }

    fn slice(&mut self, op: SliceOp) -> (usize, Option<TlbEntry>) {
        self.log.slice.push(op);
        op.apply(&mut self.org)
    }

    fn mem(&mut self, op: MemOp) -> MemOut {
        self.log.mem.push(op);
        op.apply(&mut self.mem)
    }

    /// Consumes one thread's events up to and including its next access,
    /// due at simulated cycle `at`. Non-access events take the path of the
    /// access that follows them, as in the simulator.
    fn step(
        &mut self,
        thread: usize,
        at: u64,
        detailed: bool,
        measured: bool,
        src: &mut dyn TraceSource,
    ) {
        let core = CoreId::new(thread / self.config.smt);
        self.log.feed.push(FeedStep {
            thread: thread as u32,
            backing: false,
        });
        loop {
            let event = src.next_event();
            self.counts.events += 1;
            let asid = src.asid();
            match event {
                TraceEvent::Access(access) => {
                    self.counts.accesses += 1;
                    let backing = src.backing(access.va);
                    let asked = if detailed {
                        let measured = measured.then_some(thread);
                        self.detailed_access(core, asid, access, backing, measured)
                    } else {
                        self.functional_access(core, asid, access, backing)
                    };
                    if let Some(step) = self.log.feed.last_mut() {
                        step.backing = asked;
                    }
                    return;
                }
                TraceEvent::ContextSwitch => {
                    let shared = self.config.org.is_shared();
                    self.l1(L1Op::Flush(core));
                    self.mem(MemOp::FlushPwc(core));
                    self.slice(SliceOp::Flush((!shared).then_some(core)));
                    self.counts.invalidations +=
                        1 + if shared { self.org.count() as u64 } else { 1 };
                }
                TraceEvent::Remap(vpn) => {
                    if let MemOut::Remapped(true) = self.mem(MemOp::Remap(asid, vpn)) {
                        self.shootdown(at, core, asid, vpn, true, detailed);
                    }
                }
                TraceEvent::Promote(v2m) => {
                    for i in 0..v2m.page_size().base_pages() {
                        let va = VirtAddr::new(v2m.base().value() + i * 4096);
                        if let MemOut::Mapping(None) = self.mem(MemOp::Translate(asid, va)) {
                            self.mem(MemOp::EnsureMapped(asid, va, PageSize::Size4K));
                        }
                    }
                    if let MemOut::Promoted(Some(stale)) = self.mem(MemOp::Promote(asid, v2m)) {
                        for vpn in stale {
                            self.shootdown(at, core, asid, vpn, false, detailed);
                        }
                    }
                }
                TraceEvent::Demote(v2m) => {
                    if let MemOut::Demoted(Some(stale)) = self.mem(MemOp::Demote(asid, v2m)) {
                        self.shootdown(at, core, asid, stale, false, detailed);
                    }
                }
            }
        }
    }

    /// The detailed path of one access: demand mapping, L1 lookup, on a
    /// miss the home structure and perhaps a walk, then the data access.
    /// `measured` is the thread, when the access is measured. Returns
    /// whether the simulator asks the backing page size.
    fn detailed_access(
        &mut self,
        core: CoreId,
        asid: Asid,
        access: MemAccess,
        backing: PageSize,
        measured: Option<usize>,
    ) -> bool {
        let va = access.va;
        let unmapped = matches!(self.mem(MemOp::Translate(asid, va)), MemOut::Mapping(None));
        if unmapped {
            self.mem(MemOp::EnsureMapped(asid, va, backing));
        }
        let hit = self.l1(L1Op::Lookup(core, asid, va));
        if measured.is_some() {
            self.counts.l1_lookups += 1;
            self.counts.l1_misses += u64::from(hit.is_none());
        }
        let entry = match hit {
            Some(entry) => entry,
            None => {
                let entry = self.l2_access(core, asid, va, backing, measured);
                self.l1(L1Op::Insert(core, entry));
                entry
            }
        };
        self.mem(MemOp::Access(core, entry.translate(va), access.is_write));
        unmapped || hit.is_none()
    }

    /// An L1 miss on the detailed path: the home structure's lookup, and on
    /// a miss a walk by the requester and an insert at the home.
    fn l2_access(
        &mut self,
        core: CoreId,
        asid: Asid,
        va: VirtAddr,
        backing: PageSize,
        measured: Option<usize>,
    ) -> TlbEntry {
        let vpn = va.page_number(backing);
        self.clock += 1;
        let now = Cycle::new(self.clock);
        let (idx, hit) = self.slice(SliceOp::Lookup {
            core,
            asid,
            vpn,
            now,
        });
        self.counts.slice_probes += 1;
        if let Some(thread) = measured {
            self.counts.l2_hits[thread].push(hit.is_some());
        }
        if let Some(entry) = hit {
            return entry;
        }
        let policy = self.config.walk_latency;
        let entry = match self.mem(MemOp::Walk(core, asid, va, policy)) {
            MemOut::Mapping(Some((vpn, ppn))) => TlbEntry::new(asid, vpn, ppn),
            out => unreachable!("a walk returns its mapping, not {out:?}"),
        };
        self.slice(SliceOp::Insert {
            idx,
            entry,
            now: Some(now),
        });
        entry
    }

    /// The fast-forward path of one access, as the simulator takes it:
    /// stat-free `touch` lookups, demand mapping and walk warming on an L2
    /// miss, and `warm_access` for the data. Returns whether the simulator
    /// asks the backing page size.
    fn functional_access(
        &mut self,
        core: CoreId,
        asid: Asid,
        access: MemAccess,
        backing: PageSize,
    ) -> bool {
        let va = access.va;
        let l1_hit = self.l1(L1Op::Touch(core, asid, va));
        let entry = match l1_hit {
            Some(entry) => entry,
            None => {
                let vpn = va.page_number(backing);
                let (idx, hit) = self.slice(SliceOp::Touch { core, asid, vpn });
                self.counts.slice_probes += 1;
                let entry = match hit {
                    Some(entry) => entry,
                    None => {
                        let (vpn, ppn) = match self.mem(MemOp::Resolve(asid, va, backing)) {
                            MemOut::Mapping(Some(mapping)) => mapping,
                            out => unreachable!("a resolve returns its mapping, not {out:?}"),
                        };
                        if self.config.walk_latency == WalkLatency::Variable {
                            self.mem(MemOp::WarmWalk(core, asid, va));
                        }
                        let entry = TlbEntry::new(asid, vpn, ppn);
                        self.slice(SliceOp::Insert {
                            idx,
                            entry,
                            now: None,
                        });
                        entry
                    }
                };
                self.l1(L1Op::Insert(core, entry));
                entry
            }
        };
        self.mem(MemOp::WarmAccess(
            core,
            entry.translate(va),
            access.is_write,
        ));
        l1_hit.is_none()
    }

    /// Drops a stale translation from every L1 and from the L2 structures
    /// the simulator's invalidation messages reach (one per relay that
    /// arrives at a structure); without a network, from its home directly.
    fn shootdown(
        &mut self,
        at: u64,
        core: CoreId,
        asid: Asid,
        vpn: VirtPageNum,
        broadcast: bool,
        detailed: bool,
    ) {
        let targets = if detailed {
            relays(self.config, &self.org, vpn, core, broadcast)
        } else {
            None
        };
        self.l1(L1Op::Invalidate(asid, vpn));
        self.counts.invalidations += self.l1s.len() as u64;
        match targets {
            Some(targets) => {
                let now = Cycle::new(self.clock);
                for (_, idx, _, arrives) in targets {
                    if arrives {
                        self.slice(SliceOp::Invalidate {
                            idx,
                            asid,
                            vpn,
                            now,
                        });
                        self.counts.invalidations += 1;
                    }
                }
            }
            None => {
                self.slice(SliceOp::InvalidateHome(asid, vpn));
                self.counts.invalidations += 1;
            }
        }
        if self.keep_shootdowns {
            self.log.shootdowns.push(Shootdown {
                at,
                initiator: core,
                vpn,
                broadcast,
            });
        }
    }
}

/// A message the NoC replay submits at simulated cycle `at`, departing
/// at `depart`; `respond` messages go through `NetworkModel::respond`.
#[derive(Debug, Clone, Copy)]
struct Planned {
    at: u64,
    depart: u64,
    msg: Message,
    respond: bool,
}

fn push(
    plan: &mut Vec<Planned>,
    at: u64,
    depart: u64,
    src: CoreId,
    dst: CoreId,
    kind: MsgKind,
    respond: bool,
) {
    let id = plan.len() as u64 + 1;
    plan.push(Planned {
        at,
        depart,
        msg: Message::new(id, src, dst, kind),
        respond,
    });
}

/// The messages a run sent, as far as they can be seen from outside:
/// lookup requests at `ISSUE` records, responses at `SLICE_DONE`, remote
/// inserts at `WALK_DONE` (walks run at the requester), and the
/// invalidation relays of the recorded shootdowns, which are not traced
/// and go out at their estimated cycle. Sorted by cycle.
fn plan_messages(
    config: &SystemConfig,
    org: &OrgState,
    sources: &[Box<dyn TraceSource>],
    trace: &[TraceRecord],
    shootdowns: &[Shootdown],
) -> Vec<Planned> {
    let mut plan = Vec::new();
    if network_for(config).is_none() {
        return plan;
    }
    // Lookups waiting at (structure, address), and walks at (core, address).
    let mut waiting: BTreeMap<(usize, u64), VecDeque<usize>> = BTreeMap::new();
    let mut walking: BTreeMap<(usize, u64), VecDeque<usize>> = BTreeMap::new();
    for r in trace {
        match r.kind {
            trace_kind::ISSUE => {
                let core = CoreId::new(r.component as usize);
                let va = VirtAddr::new(r.a);
                let Some(src) = sources.get(r.b as usize) else {
                    continue;
                };
                let (idx, tile) = org.home_of(va.page_number(src.backing(va)), core);
                waiting
                    .entry((idx, r.a))
                    .or_default()
                    .push_back(core.index());
                if tile != core {
                    push(
                        &mut plan,
                        r.cycle,
                        r.cycle + 1,
                        core,
                        tile,
                        MsgKind::TlbRequest,
                        false,
                    );
                }
            }
            trace_kind::SLICE_DONE => {
                let Some(idx) = r.component.checked_sub(SLICE_COMPONENT_BASE) else {
                    continue;
                };
                let idx = idx as usize;
                let Some(core) = waiting.get_mut(&(idx, r.a)).and_then(VecDeque::pop_front) else {
                    continue;
                };
                if r.b == 0 {
                    walking.entry((core, r.a)).or_default().push_back(idx);
                }
                let tile = org.tile_of(idx);
                if tile.index() != core {
                    push(
                        &mut plan,
                        r.cycle,
                        r.cycle,
                        tile,
                        CoreId::new(core),
                        MsgKind::TlbResponse,
                        true,
                    );
                }
            }
            trace_kind::WALK_DONE => {
                let core = r.component as usize;
                let Some(idx) = walking.get_mut(&(core, r.a)).and_then(VecDeque::pop_front) else {
                    continue;
                };
                let tile = org.tile_of(idx);
                if tile.index() != core {
                    push(
                        &mut plan,
                        r.cycle,
                        r.cycle,
                        CoreId::new(core),
                        tile,
                        MsgKind::Insert,
                        false,
                    );
                }
            }
            _ => {}
        }
    }
    for s in shootdowns {
        for (src, _, dst, _) in
            relays(config, org, s.vpn, s.initiator, s.broadcast).unwrap_or_default()
        {
            push(
                &mut plan,
                s.at,
                s.at,
                src,
                dst,
                MsgKind::Invalidation,
                false,
            );
        }
    }
    plan.sort_by_key(|p| p.at);
    plan
}

/// The fabric `Simulation::new` builds for `config`; `None` without one.
fn network_for(config: &SystemConfig) -> Option<NetworkModel> {
    let mesh = config.mesh();
    match config.org {
        TlbOrg::Private { .. } | TlbOrg::IdealShared { .. } => None,
        TlbOrg::Distributed { .. } => Some(NetworkModel::Mesh(MeshNoc::contention_free(mesh))),
        TlbOrg::Monolithic { net, .. } => match net {
            MonolithicNet::Mesh => Some(NetworkModel::Mesh(MeshNoc::contention_free(mesh))),
            MonolithicNet::Smart(hpc) => Some(NetworkModel::Smart(SmartNoc::new(mesh, hpc))),
            MonolithicNet::Ideal => None,
        },
        TlbOrg::Nocstar {
            hpc_max,
            acquire,
            ideal_fabric,
            ..
        } => Some(NetworkModel::nocstar(mesh, hpc_max, acquire, ideal_fabric)),
        TlbOrg::Hier {
            cluster_size,
            intra,
            inter,
            ..
        } => Some(NetworkModel::Hier(HierNoc::new(
            config.cores,
            cluster_size,
            intra,
            inter,
        ))),
    }
}

/// Calls the NoC replay made, and its host time.
#[derive(Debug, Clone, Copy, Default)]
struct NocReplay {
    /// Messages submitted.
    messages: u64,
    /// Messages delivered.
    delivered: u64,
    /// `advance` calls.
    advance_calls: u64,
    /// `next_activity` calls.
    next_activity_calls: u64,
    /// Host nanoseconds of the whole replay loop.
    ns: f64,
}

/// Submits `plan` into `net` in cycle order and drives it as the event
/// loop does: `next_activity` picks the next cycle (twice per iteration),
/// `advance` runs when work is due, until every message is delivered.
///
/// # Errors
///
/// A protocol error from `respond`, a fabric that stops making progress,
/// or messages left undelivered.
fn replay_noc(net: &mut NetworkModel, plan: &[Planned]) -> Result<NocReplay, String> {
    let mut out = NocReplay {
        messages: plan.len() as u64,
        ..NocReplay::default()
    };
    let limit = 1_000_000 + 10_000 * plan.len() as u64;
    let mut iterations = 0u64;
    let mut next = 0usize;
    let mut now = 0u64;
    let start = Instant::now();
    loop {
        out.next_activity_calls += 1;
        let due = match (
            plan.get(next).map(|p| p.at),
            net.next_activity().map(Cycle::value),
        ) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => break,
        };
        now = now.max(due);
        while let Some(p) = plan.get(next).filter(|p| p.at <= now) {
            if p.respond {
                net.respond(p.msg, Cycle::new(p.depart))
                    .map_err(|e| format!("noc replay: {e}"))?;
            } else {
                net.submit(Cycle::new(p.depart), p.msg);
            }
            next += 1;
        }
        out.next_activity_calls += 1;
        if net.next_activity().is_some_and(|a| a.value() <= now) {
            out.advance_calls += 1;
            out.delivered += net.advance(Cycle::new(now)).len() as u64;
        }
        iterations += 1;
        if iterations > limit {
            return Err(format!(
                "noc replay made no progress after {iterations} iterations at cycle {now}"
            ));
        }
    }
    out.ns = start.elapsed().as_nanos() as f64;
    if out.delivered != out.messages {
        return Err(format!(
            "noc replay delivered {} of {} messages",
            out.delivered, out.messages
        ));
    }
    Ok(out)
}

/// Trace ring size that keeps every record the batch retains: at most
/// four (issue, slice done, walk done, translation done) per detailed
/// access. A sampled run keeps its last window, but before a leg's reset
/// clears the ring it holds that leg's warmup on top of the previous
/// window.
fn trace_capacity(workload: &Workload, threads: u64) -> usize {
    let per_thread = match workload.mode {
        Mode::Exact { quota } => quota,
        Mode::Sampled { spec, .. } => spec.warmup() + 2 * spec.window(),
    };
    (4 * threads * per_thread + 1024) as usize
}

/// The last window's value of a sampled report's estimate `name`.
fn last_window(report: &SimReport, name: &str) -> Option<f64> {
    report
        .sampling
        .as_ref()?
        .estimates
        .iter()
        .find(|e| e.name == name)?
        .per_window
        .last()
        .copied()
}

/// Per-layer metrics of one traced run, and the self-checks it failed.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Self-check failures; empty when the run passed.
    pub failures: Vec<String>,
    /// Doubts about the attribution that do not fail the run: layer times
    /// that add up to more than the run's wall time.
    pub warnings: Vec<String>,
}

/// Runs the traced run and the layer replays for `workload` on the first
/// sub-seed of `seed`. `batch` is the untraced measurement: that sub-seed's
/// median run time is the base of every layer share, and its report is
/// what the traced run must match.
///
/// # Errors
///
/// A failure that leaves no metrics to report.
pub fn traced(
    workload: &Workload,
    seed: u64,
    prepared: &Prepared,
    batch: &Batch,
) -> Result<Traced, String> {
    let first = batch.seeds.first().ok_or("no sub-seed was measured")?;
    let untraced = first.report.as_ref().ok_or("no untraced run passed")?;
    let wall_s = median(&first.run_s);
    let all = |f: fn(&SeedRuns) -> &Vec<f64>| -> Vec<f64> {
        batch
            .seeds
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect()
    };
    let mut config = workload.config(sub_seed(seed, 0));
    config.metrics = true;
    config.trace_capacity = trace_capacity(workload, config.threads() as u64);
    let sim = Simulation::new(config, workload.assignment(&config, prepared, 0)?);
    let start = Instant::now();
    let mut report = workload
        .run(sim)
        .map_err(|abort| format!("traced run aborted: {}", abort.error))?;
    let traced_s = start.elapsed().as_secs_f64();
    let trace = std::mem::take(&mut report.trace);
    let registry = std::mem::take(&mut report.metrics);

    let mut failures = Vec::new();
    if report.trace_dropped != 0 {
        failures.push(format!(
            "the trace ring dropped {} records",
            report.trace_dropped
        ));
    }
    report.trace_dropped = 0;
    if digest(&report) != digest(untraced) {
        failures.push("tracing changed the simulated machine's report".into());
    }
    let count = |kind: u16| trace.iter().filter(|r| r.kind == kind).count() as u64;
    let slice_hits = trace
        .iter()
        .filter(|r| r.kind == trace_kind::SLICE_DONE && r.b == 1)
        .count() as u64;
    // The replayed L2 hit ratio is held to the ring's `SLICE_DONE` records:
    // a whole exact run, or a sampled run's last window from the moment
    // its slowest thread finished the warmup (the statistics reset). The
    // replayed L1 miss ratio is held to an exact run's report; a sampled
    // run's L1 hits are not traced, and its report's last window leaves
    // out the fast threads' first window accesses, so that comparison is
    // printed only.
    let want_slice_hit = ratio(slice_hits as f64, count(trace_kind::SLICE_DONE) as f64);
    let (want_l1_miss, hold_l1) = match workload.mode {
        Mode::Exact { .. } => {
            for (what, got, want) in [
                (
                    "ISSUE records vs L1 misses",
                    count(trace_kind::ISSUE),
                    report.l1.misses(),
                ),
                (
                    "SLICE_DONE records vs L2 lookups",
                    count(trace_kind::SLICE_DONE),
                    report.l2.accesses(),
                ),
                ("SLICE_DONE hits vs L2 hits", slice_hits, report.l2.hits()),
                (
                    "TRANSLATION_DONE records vs translations",
                    count(trace_kind::TRANSLATION_DONE),
                    report.translation_latency.count(),
                ),
            ] {
                if got != want {
                    failures.push(format!("{what}: {got} != {want}"));
                }
            }
            (untraced.l1.miss_rate(), true)
        }
        Mode::Sampled { .. } => (
            last_window(untraced, "l1_miss_rate").unwrap_or(f64::NAN),
            false,
        ),
    };
    // Each thread's L1 misses the ring kept: on a sampled run, the last
    // ones of its last window.
    let mut kept = vec![0usize; config.threads()];
    for r in trace.iter().filter(|r| r.kind == trace_kind::ISSUE) {
        if let Some(k) = kept.get_mut(r.b as usize) {
            *k += 1;
        }
    }

    let schedule = match workload.mode {
        Mode::Exact { quota } => Some(access_cycles(
            &config,
            &mut workload.sources(&config, prepared, 0)?,
            quota,
            &trace,
            &report.per_thread_finish,
        )),
        Mode::Sampled { .. } => None,
    };
    let mut sources = workload.sources(&config, prepared, 0)?;
    let rec = Recorder::record(workload, &config, &mut sources, schedule.as_deref());
    let plan = plan_messages(&config, &rec.org, &sources, &trace, &rec.log.shootdowns);
    let noc = match network_for(&config) {
        Some(mut net) => replay_noc(&mut net, &plan)?,
        None => NocReplay::default(),
    };
    let (log, counts) = (&rec.log, &rec.counts);
    let feed = time_calls(
        &log.feed,
        1,
        |_| 0,
        || workload.sources(&config, prepared, 0),
        |sources, step| step.apply(sources),
    )?;
    let l1 = time_calls(
        &log.l1,
        2,
        L1Op::kind,
        || Ok(fresh_l1s(&config)),
        |l1s, op| {
            black_box(op.apply(l1s));
        },
    )?;
    let slice = time_calls(
        &log.slice,
        2,
        SliceOp::kind,
        || Ok(OrgState::new(&config)),
        |org, op| {
            black_box(op.apply(org));
        },
    )?;
    let mem = time_calls(
        &log.mem,
        4,
        MemOp::kind,
        || Ok(fresh_mem(&config)),
        |mem, op| {
            black_box(op.apply(mem));
        },
    )?;

    let l1_miss_ratio = ratio(counts.l1_misses as f64, counts.l1_lookups as f64);
    let (slice_lookups, slice_hits) =
        counts
            .l2_hits
            .iter()
            .zip(&kept)
            .fold((0, 0), |(lookups, hits), (outcomes, &k)| {
                let tail = &outcomes[outcomes.len().saturating_sub(k)..];
                (
                    lookups + tail.len(),
                    hits + tail.iter().filter(|&&hit| hit).count(),
                )
            });
    let slice_hit_ratio = ratio(slice_hits as f64, slice_lookups as f64);
    let l1_drift = drift(l1_miss_ratio, want_l1_miss);
    let slice_drift = drift(slice_hit_ratio, want_slice_hit);
    for (what, value, held) in [
        ("L1 miss ratio", l1_drift, hold_l1),
        ("L2 hit ratio", slice_drift, true),
    ] {
        if held && (value.is_nan() || value > DRIFT_LIMIT) {
            failures.push(format!(
                "replayed {what} drifts {value:.4} from the run's (limit {DRIFT_LIMIT})"
            ));
        }
    }

    let feed_s = feed.ns / 1e9;
    let tlb_s = (l1.ns + slice.ns) / 1e9;
    let mem_s = mem.ns / 1e9;
    let network = untraced.network.clone().unwrap_or_default();
    let coverage = ratio(noc.messages as f64, network.delivered as f64);
    let noc_s = match workload.mode {
        Mode::Exact { .. } => noc.ns / 1e9,
        // The ring kept the last window only: scale to all the run's messages.
        Mode::Sampled { .. } => ratio(noc.ns / 1e9, coverage),
    };
    let residual_s = wall_s - feed_s - tlb_s - mem_s - noc_s;
    let mut warnings = Vec::new();
    if residual_s < 0.0 {
        warnings.push(format!(
            "the layer replays took {:.3} of the run's wall time, so at least one layer's \
             share is overstated",
            (wall_s - residual_s) / wall_s
        ));
    }
    let accesses = processed_accesses(untraced) as f64;
    let per_event = ratio(feed.ns, counts.events as f64);
    let (gen_ns, decode_ns, open_s) = match workload.feed {
        Feed::NctReplay(_) => (
            ratio(prepared.generate_s * 1e9, prepared.generated_events as f64),
            per_event,
            median(&all(|s| &s.assign_s)),
        ),
        _ => (per_event, 0.0, 0.0),
    };
    let ff_share = untraced.sampling.as_ref().map_or(0.0, |s| {
        ratio(
            s.accesses_fast_forwarded as f64,
            (s.accesses_fast_forwarded + s.accesses_detailed) as f64,
        )
    });
    let mut latencies: Vec<u64> = trace
        .iter()
        .filter(|r| r.kind == trace_kind::TRANSLATION_DONE)
        .map(|r| r.b)
        .collect();
    latencies.sort_unstable();
    let stalls = ["slice", "walk", "response"].map(|kind| stall_cycles(&registry, kind));
    let stall_total: f64 = stalls.iter().sum();
    let per_call = |t: &Timing, kind: usize| ratio(t.by_kind[kind], t.calls[kind] as f64);

    let metrics = vec![
        Metric::new("workloads.gen_ns_per_event", "ns", gen_ns),
        Metric::new("workloads.nct_decode_ns_per_event", "ns", decode_ns),
        Metric::new("workloads.nct_open_s", "s", open_s),
        Metric::new("workloads.share", "ratio", ratio(feed_s, wall_s)),
        Metric::new(
            "tlb.l1_ns_per_lookup",
            "ns",
            ratio(l1.by_kind[LOOKUP], counts.accesses as f64),
        ),
        Metric::new("tlb.l1_miss_ratio", "ratio", l1_miss_ratio),
        Metric::new("tlb.l1_replay_drift", "ratio", l1_drift),
        Metric::new(
            "tlb.slice_ns_per_lookup",
            "ns",
            ratio(slice.by_kind[LOOKUP], counts.slice_probes as f64),
        ),
        Metric::new("tlb.slice_hit_ratio", "ratio", slice_hit_ratio),
        Metric::new("tlb.slice_replay_drift", "ratio", slice_drift),
        Metric::new(
            "tlb.invalidate_ns_per_op",
            "ns",
            ratio(
                l1.by_kind[INVALIDATE] + slice.by_kind[INVALIDATE],
                counts.invalidations as f64,
            ),
        ),
        Metric::new("tlb.flushes", "count", untraced.flushes as f64),
        Metric::new("tlb.shootdowns", "count", untraced.shootdowns as f64),
        Metric::new("tlb.share", "ratio", ratio(tlb_s, wall_s)),
        Metric::new("mem.access_ns", "ns", per_call(&mem, ACCESS)),
        Metric::new("mem.walk_ns", "ns", per_call(&mem, WALK)),
        Metric::new("mem.ensure_mapped_ns", "ns", per_call(&mem, MAP)),
        Metric::new(
            "mem.walks_per_kaccess",
            "1/kaccess",
            ratio(untraced.walks as f64 * 1000.0, untraced.accesses as f64),
        ),
        Metric::new(
            "mem.walk_llc_or_mem_ratio",
            "ratio",
            untraced.walk_llc_fraction(),
        ),
        Metric::new("mem.share", "ratio", ratio(mem_s, wall_s)),
        Metric::new("noc.ns_per_msg", "ns", ratio(noc.ns, noc.messages as f64)),
        Metric::new(
            "noc.advance_calls_per_msg",
            "1/msg",
            ratio(noc.advance_calls as f64, noc.messages as f64),
        ),
        Metric::new(
            "noc.next_activity_calls_per_msg",
            "1/msg",
            ratio(noc.next_activity_calls as f64, noc.messages as f64),
        ),
        Metric::new(
            "noc.retry_ratio",
            "ratio",
            ratio(network.retries as f64, network.delivered as f64),
        ),
        Metric::new("noc.delivered", "count", network.delivered as f64),
        Metric::new("noc.grants", "count", network.grants as f64),
        Metric::new("noc.replay_coverage", "ratio", coverage),
        Metric::new("noc.share", "ratio", ratio(noc_s, wall_s)),
        Metric::new("core.new_s", "s", median(&all(|s| &s.new_s))),
        Metric::new(
            "core.residual_ns_per_access",
            "ns",
            ratio(residual_s * 1e9, accesses),
        ),
        Metric::new("core.residual_share", "ratio", ratio(residual_s, wall_s)),
        Metric::new("core.ff_share", "ratio", ff_share),
        Metric::new("sim.cycles", "cycles", untraced.cycles as f64),
        Metric::new(
            "sim.translation_latency_p50_cycles",
            "cycles",
            percentile(&latencies, 50),
        ),
        Metric::new(
            "sim.translation_latency_p99_cycles",
            "cycles",
            percentile(&latencies, 99),
        ),
        Metric::new(
            "sim.stall_slice_share",
            "ratio",
            ratio(stalls[0], stall_total),
        ),
        Metric::new(
            "sim.stall_walk_share",
            "ratio",
            ratio(stalls[1], stall_total),
        ),
        Metric::new(
            "sim.stall_response_share",
            "ratio",
            ratio(stalls[2], stall_total),
        ),
        Metric::new("trace.overhead_ratio", "ratio", ratio(traced_s, wall_s)),
    ];
    Ok(Traced {
        metrics,
        failures,
        warnings,
    })
}

/// `|replayed - reported| / reported` (0 when both are 0).
fn drift(replayed: f64, reported: f64) -> f64 {
    if reported == 0.0 {
        if replayed == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (replayed - reported).abs() / reported
    }
}

/// Nearest-rank percentile of sorted `values` (0 when empty).
fn percentile(sorted: &[u64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1] as f64
}

/// Cycles all cores stalled on `kind` (`slice`, `walk`, `response`).
fn stall_cycles(registry: &MetricsSnapshot, kind: &str) -> f64 {
    let suffix = format!(".stall.{kind}_cycles");
    registry
        .samples()
        .iter()
        .filter(|s| s.name.ends_with(&suffix))
        .map(|s| match s.value {
            MetricValue::Counter(v) => v as f64,
            _ => 0.0,
        })
        .sum()
}
