//! Full-system configuration (paper §IV and Table II).

use nocstar_mem::walker::WalkLatency;
use nocstar_noc::circuit::AcquireMode;
use nocstar_noc::hier::{InterKind, IntraKind};
use nocstar_tlb::l1::L1Config;
use nocstar_tlb::prefetch::PrefetchDepth;
use nocstar_tlb::shootdown::LeaderPolicy;
use nocstar_types::time::Cycles;
use nocstar_types::{CoreId, MeshShape};

/// Interconnect used to reach a monolithic shared TLB's banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonolithicNet {
    /// Traditional multi-hop mesh (2 cycles per hop).
    Mesh,
    /// SMART bypass mesh with the given HPCmax.
    Smart(usize),
    /// Zero-latency interconnect (the idealized points of Fig 4).
    Ideal,
}

/// Where page-table walks execute on a shared-slice miss (Fig 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkPolicy {
    /// The remote slice replies with a miss message; the requesting core
    /// walks, then sends the translation back for insertion. The paper
    /// finds this slightly better (no remote-cache pollution).
    #[default]
    AtRequester,
    /// The core co-located with the slice walks and replies with the
    /// translation (fewer messages, pollutes the remote core's caches).
    AtRemote,
}

/// The L2 TLB organization under test (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TlbOrg {
    /// Per-core private L2 TLBs — the baseline all speedups are relative to.
    Private {
        /// Entries per core (Haswell: 1024, 8-way).
        entries: usize,
        /// Explicit lookup latency; `None` uses the Fig 3 SRAM model.
        latency_override: Option<Cycles>,
    },
    /// A monolithic shared L2 TLB, banked, at the chip edge.
    Monolithic {
        /// Entries per core of capacity (total = cores x this).
        entries_per_core: usize,
        /// Bank count (the paper settles on 4 for 16/32 cores, 8 for 64).
        banks: usize,
        /// How cores reach the banks.
        net: MonolithicNet,
        /// Explicit *total* access latency (Fig 4 sweeps 9–25 cycles with
        /// `net = Ideal`); `None` uses the Fig 3 SRAM model.
        latency_override: Option<Cycles>,
    },
    /// Per-core shared slices over a contention-free multi-hop mesh.
    Distributed {
        /// Entries per slice (1024).
        slice_entries: usize,
    },
    /// Per-core shared slices over the NOCSTAR circuit-switched fabric.
    Nocstar {
        /// Entries per slice (920: area-normalized against 1024 private,
        /// §IV).
        slice_entries: usize,
        /// Maximum hops per traversal cycle.
        hpc_max: usize,
        /// Link-reservation mode (Fig 16 left).
        acquire: AcquireMode,
        /// Contention-free fabric (the `NOCSTAR (ideal)` series of Fig 15).
        ideal_fabric: bool,
    },
    /// Per-core shared slices with a zero-latency interconnect — the
    /// `Ideal` upper bound in Figs 12–15.
    IdealShared {
        /// Entries per slice.
        slice_entries: usize,
    },
    /// Per-core shared slices over a two-level hierarchical fabric
    /// (`DESIGN.md §13`): clusters of `cluster_size` tiles with an
    /// intra-cluster bus/crossbar and a mesh/SMART overlay between
    /// cluster gateways. Homing is cluster-local: a core's set ranges
    /// map to slices in its own cluster, so lookups never pay overlay
    /// latency (capacity is shared per cluster, not chip-wide).
    Hier {
        /// Entries per slice (1024).
        slice_entries: usize,
        /// Tiles per cluster (`--cluster-size`, default 16); must evenly
        /// divide the core count.
        cluster_size: usize,
        /// Intra-cluster fabric.
        intra: IntraKind,
        /// Inter-cluster overlay.
        inter: InterKind,
    },
}

impl TlbOrg {
    /// L2 TLB associativity used throughout the paper.
    pub const WAYS: usize = 8;

    /// The paper's private baseline: 1024-entry, 8-way, 9-cycle L2 TLBs.
    pub fn paper_private() -> Self {
        TlbOrg::Private {
            entries: 1024,
            latency_override: Some(Cycles::new(9)),
        }
    }

    /// The paper's monolithic configuration for a core count (4 banks for
    /// 16/32 cores, 8 banks for 64+), over a multi-hop mesh.
    pub fn paper_monolithic(cores: usize) -> Self {
        TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: if cores >= 64 { 8 } else { 4 },
            net: MonolithicNet::Mesh,
            latency_override: None,
        }
    }

    /// The paper's distributed configuration: 1024-entry slices on a mesh.
    pub fn paper_distributed() -> Self {
        TlbOrg::Distributed {
            slice_entries: 1024,
        }
    }

    /// The paper's NOCSTAR configuration: 920-entry slices
    /// (area-normalized), single-cycle fabric, one-way acquire.
    pub fn paper_nocstar() -> Self {
        TlbOrg::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
            acquire: AcquireMode::OneWay,
            ideal_fabric: false,
        }
    }

    /// The zero-interconnect-latency upper bound.
    pub fn paper_ideal() -> Self {
        TlbOrg::IdealShared {
            slice_entries: 1024,
        }
    }

    /// The hierarchical scale-up configuration: 1024-entry slices,
    /// cluster-local bus, contended mesh overlay between gateways.
    pub fn paper_hier(cluster_size: usize) -> Self {
        TlbOrg::Hier {
            slice_entries: 1024,
            cluster_size,
            intra: IntraKind::Bus,
            inter: InterKind::Mesh,
        }
    }

    /// Whether this organization shares L2 capacity among cores.
    pub fn is_shared(&self) -> bool {
        !matches!(self, TlbOrg::Private { .. })
    }

    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            TlbOrg::Private { .. } => "private",
            TlbOrg::Monolithic {
                net: MonolithicNet::Smart(_),
                ..
            } => "monolithic(SMART)",
            TlbOrg::Monolithic { .. } => "monolithic",
            TlbOrg::Distributed { .. } => "distributed",
            TlbOrg::Nocstar {
                ideal_fabric: true, ..
            } => "nocstar(ideal)",
            TlbOrg::Nocstar { .. } => "nocstar",
            TlbOrg::IdealShared { .. } => "ideal",
            TlbOrg::Hier {
                inter: InterKind::Smart(_),
                ..
            } => "hier(SMART)",
            TlbOrg::Hier {
                intra: IntraKind::Xbar,
                ..
            } => "hier(xbar)",
            TlbOrg::Hier { .. } => "hier",
        }
    }
}

/// Everything that defines a simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Core (tile) count.
    pub cores: usize,
    /// Hardware threads per core (Table III studies 1, 2, 4).
    pub smt: usize,
    /// The L2 TLB organization.
    pub org: TlbOrg,
    /// L1 TLB capacity scale (Fig 6 studies 0.5x and 1.5x).
    pub l1_scale: f64,
    /// Adjacent-page prefetch depth (Table III).
    pub prefetch: PrefetchDepth,
    /// Where walks run on shared-slice misses (Fig 17).
    pub walk_policy: WalkPolicy,
    /// Variable (through the caches) or fixed walk latency (Table III).
    pub walk_latency: WalkLatency,
    /// Shootdown leader granularity (Fig 16 right).
    pub leader_policy: LeaderPolicy,
    /// Transparent 2 MiB superpages enabled (Fig 13) or 4 KiB-only (Fig 12).
    pub thp: bool,
    /// Workload/trace seed.
    pub seed: u64,
    /// Collect the detailed metrics registry (per-slice occupancy and
    /// queue waits, per-link utilization, arbitration counts, walk
    /// histograms, per-core stall breakdowns). Off by default: disabled
    /// metrics cost one predicted branch per update and never allocate.
    pub metrics: bool,
    /// Ring-buffer capacity for cycle-level event tracing; `0` (the
    /// default) disables tracing entirely. When full, the oldest records
    /// are overwritten and counted as dropped.
    pub trace_capacity: usize,
    /// Hard simulated-cycle budget: if set, a run that would advance past
    /// this cycle aborts with a structured
    /// [`CycleBudgetExceeded`](nocstar_faults::SimError::CycleBudgetExceeded)
    /// error carrying a partial report, instead of running unbounded.
    pub max_cycles: Option<u64>,
    /// Livelock watchdog window: if simulated time advances this many
    /// cycles without any memory access completing chip-wide, the run
    /// aborts with [`Livelock`](nocstar_faults::SimError::Livelock). The
    /// default (2 million cycles) is orders of magnitude above any legal
    /// inter-completion gap.
    pub livelock_window: u64,
}

impl SystemConfig {
    /// A paper-faithful Haswell system with the given core count and
    /// organization; THP on, no prefetch, walk at requester, every core
    /// relaying its own shootdowns.
    pub fn new(cores: usize, org: TlbOrg) -> Self {
        Self {
            cores,
            smt: 1,
            org,
            l1_scale: 1.0,
            prefetch: PrefetchDepth::disabled(),
            walk_policy: WalkPolicy::default(),
            walk_latency: WalkLatency::Variable,
            leader_policy: LeaderPolicy::EveryCore,
            thp: true,
            seed: 0xcafe,
            metrics: false,
            trace_capacity: 0,
            max_cycles: None,
            livelock_window: 2_000_000,
        }
    }

    /// The chip's mesh floorplan.
    pub fn mesh(&self) -> MeshShape {
        MeshShape::square_for(self.cores)
    }

    /// Total hardware threads.
    pub fn threads(&self) -> usize {
        self.cores * self.smt
    }

    /// The L1 TLB sizing after scaling.
    pub fn l1_config(&self) -> L1Config {
        L1Config::haswell().scale(self.l1_scale)
    }

    /// The tiles hosting the monolithic TLB's banks: spread along the
    /// chip's south edge (the paper places the monolithic structure at one
    /// end of the chip, §II-C).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or exceeds the mesh's columns x 2.
    pub fn bank_tiles(&self, banks: usize) -> Vec<CoreId> {
        assert!(banks > 0, "need at least one bank");
        let mesh = self.mesh();
        let cols = mesh.cols();
        (0..banks)
            .map(|b| {
                let x = (b * cols + cols / 2) / banks % cols;
                mesh.id_at(nocstar_types::Coord::new(x, mesh.rows() - 1))
            })
            .collect()
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero cores/SMT, bad scales).
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(self.smt > 0, "need at least one thread per core");
        assert!(
            self.l1_scale.is_finite() && self.l1_scale > 0.0,
            "bad L1 scale"
        );
        assert!(self.livelock_window > 0, "livelock window must be nonzero");
        match self.org {
            TlbOrg::Private { entries, .. } => {
                assert!(
                    entries > 0 && entries % TlbOrg::WAYS == 0,
                    "bad private size"
                )
            }
            TlbOrg::Monolithic {
                entries_per_core,
                banks,
                net,
                ..
            } => {
                assert!(entries_per_core > 0, "bad monolithic size");
                assert!(
                    banks > 0 && banks <= self.cores,
                    "banks must be in 1..=cores"
                );
                assert!(
                    (entries_per_core * self.cores).is_multiple_of(banks * TlbOrg::WAYS),
                    "banked capacity must divide evenly"
                );
                if let MonolithicNet::Smart(hpc) = net {
                    assert!(hpc > 0, "HPCmax must be nonzero");
                }
            }
            TlbOrg::Distributed { slice_entries } | TlbOrg::IdealShared { slice_entries } => {
                assert!(
                    slice_entries > 0 && slice_entries % TlbOrg::WAYS == 0,
                    "bad slice size"
                );
            }
            TlbOrg::Nocstar {
                slice_entries,
                hpc_max,
                ..
            } => {
                assert!(
                    slice_entries > 0 && slice_entries % TlbOrg::WAYS == 0,
                    "bad slice size"
                );
                assert!(hpc_max > 0, "HPCmax must be nonzero");
            }
            TlbOrg::Hier {
                slice_entries,
                cluster_size,
                inter,
                ..
            } => {
                assert!(
                    slice_entries > 0 && slice_entries % TlbOrg::WAYS == 0,
                    "bad slice size"
                );
                assert!(
                    cluster_size > 0
                        && cluster_size <= self.cores
                        && self.cores.is_multiple_of(cluster_size),
                    "cluster size must evenly partition the cores"
                );
                if let InterKind::Smart(hpc) = inter {
                    assert!(hpc > 0, "HPCmax must be nonzero");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_table_2() {
        match TlbOrg::paper_private() {
            TlbOrg::Private {
                entries,
                latency_override,
            } => {
                assert_eq!(entries, 1024);
                assert_eq!(latency_override, Some(Cycles::new(9)));
            }
            _ => unreachable!(),
        }
        match TlbOrg::paper_nocstar() {
            TlbOrg::Nocstar { slice_entries, .. } => assert_eq!(slice_entries, 920),
            _ => unreachable!(),
        }
        match TlbOrg::paper_monolithic(32) {
            TlbOrg::Monolithic { banks, .. } => assert_eq!(banks, 4),
            _ => unreachable!(),
        }
        match TlbOrg::paper_monolithic(64) {
            TlbOrg::Monolithic { banks, .. } => assert_eq!(banks, 8),
            _ => unreachable!(),
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            TlbOrg::paper_private().label(),
            TlbOrg::paper_monolithic(32).label(),
            TlbOrg::paper_distributed().label(),
            TlbOrg::paper_nocstar().label(),
            TlbOrg::paper_ideal().label(),
            TlbOrg::paper_hier(16).label(),
            TlbOrg::Hier {
                slice_entries: 1024,
                cluster_size: 16,
                intra: IntraKind::Xbar,
                inter: InterKind::Mesh,
            }
            .label(),
            TlbOrg::Hier {
                slice_entries: 1024,
                cluster_size: 16,
                intra: IntraKind::Bus,
                inter: InterKind::Smart(8),
            }
            .label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn bank_tiles_sit_on_the_south_edge() {
        let cfg = SystemConfig::new(32, TlbOrg::paper_monolithic(32));
        let tiles = cfg.bank_tiles(4);
        assert_eq!(tiles.len(), 4);
        let mesh = cfg.mesh();
        for t in &tiles {
            assert_eq!(mesh.coord_of(*t).y, mesh.rows() - 1);
        }
        // Banks are spread out, not stacked on one tile.
        let set: std::collections::BTreeSet<_> = tiles.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn validate_accepts_all_paper_configs() {
        for cores in [16, 32, 64] {
            for org in [
                TlbOrg::paper_private(),
                TlbOrg::paper_monolithic(cores),
                TlbOrg::paper_distributed(),
                TlbOrg::paper_nocstar(),
                TlbOrg::paper_ideal(),
                TlbOrg::paper_hier(16),
            ] {
                SystemConfig::new(cores, org).validate();
            }
        }
    }

    #[test]
    #[should_panic(expected = "evenly partition")]
    fn ragged_cluster_size_rejected() {
        SystemConfig::new(24, TlbOrg::paper_hier(16)).validate();
    }

    #[test]
    #[should_panic(expected = "banks must be in")]
    fn too_many_banks_rejected() {
        let cfg = SystemConfig::new(
            4,
            TlbOrg::Monolithic {
                entries_per_core: 1024,
                banks: 8,
                net: MonolithicNet::Mesh,
                latency_override: None,
            },
        );
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "HPCmax must be nonzero")]
    fn zero_hpc_monolithic_smart_rejected() {
        let cfg = SystemConfig::new(
            16,
            TlbOrg::Monolithic {
                entries_per_core: 1024,
                banks: 4,
                net: MonolithicNet::Smart(0),
                latency_override: None,
            },
        );
        cfg.validate();
    }

    #[test]
    fn threads_account_for_smt() {
        let mut cfg = SystemConfig::new(16, TlbOrg::paper_private());
        cfg.smt = 4;
        assert_eq!(cfg.threads(), 64);
    }
}
