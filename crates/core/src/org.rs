//! The physical L2 TLB structures of each organization.

use crate::config::{SystemConfig, TlbOrg};
use nocstar_stats::concurrency::OutstandingTracker;
use nocstar_stats::counter::HitMiss;
use nocstar_tlb::indexing;
use nocstar_tlb::slice::{SlicePorts, TlbSlice};
use nocstar_tlb::sram;
use nocstar_types::{CoreId, VirtPageNum};

/// The set of L2 TLB structures (private L2s, monolithic banks, or shared
/// slices), their tile placement, and per-structure concurrency trackers.
#[derive(Debug)]
pub struct OrgState {
    org: TlbOrg,
    cores: usize,
    structures: Vec<TlbSlice>,
    tiles: Vec<CoreId>,
    /// Per-structure outstanding-access trackers (Fig 6 right).
    pub trackers: Vec<OutstandingTracker>,
    /// Chip-wide outstanding-access tracker (Figs 5, 6 left).
    pub chip_tracker: OutstandingTracker,
    /// SRAM lookup energy of one structure access, in pJ.
    lookup_pj: f64,
}

impl OrgState {
    /// Builds the structures for a configuration.
    pub fn new(config: &SystemConfig) -> Self {
        config.validate();
        let cores = config.cores;
        let ports = SlicePorts::default();
        let (structures, tiles, lookup_pj) = match config.org {
            TlbOrg::Private {
                entries,
                latency_override,
            } => {
                let make = || match latency_override {
                    Some(lat) => TlbSlice::with_latency(entries, TlbOrg::WAYS, ports, lat),
                    None => TlbSlice::new(entries, TlbOrg::WAYS, ports),
                };
                (
                    (0..cores).map(|_| make()).collect::<Vec<_>>(),
                    CoreId::all(cores).collect(),
                    sram::lookup_energy_pj(entries),
                )
            }
            TlbOrg::Monolithic {
                entries_per_core,
                banks,
                latency_override,
                ..
            } => {
                let total = entries_per_core * cores;
                let per_bank = total / banks;
                // The banked monolithic structure's lookup latency is set
                // by the full array (global decode / H-tree), per Fig 3.
                let latency = latency_override.unwrap_or_else(|| sram::lookup_cycles(total));
                (
                    (0..banks)
                        .map(|_| TlbSlice::with_latency(per_bank, TlbOrg::WAYS, ports, latency))
                        .collect(),
                    config.bank_tiles(banks),
                    sram::lookup_energy_pj(total),
                )
            }
            TlbOrg::Distributed { slice_entries }
            | TlbOrg::IdealShared { slice_entries }
            | TlbOrg::Nocstar { slice_entries, .. }
            | TlbOrg::Hier { slice_entries, .. } => (
                (0..cores)
                    .map(|_| TlbSlice::new(slice_entries, TlbOrg::WAYS, ports))
                    .collect(),
                CoreId::all(cores).collect(),
                sram::lookup_energy_pj(slice_entries),
            ),
        };
        let mut structures = structures;
        // Slices/banks are homed by vpn % count; their set index must
        // discard those stripe bits or most sets go unused. Hier homes by
        // vpn % cluster_size (each cluster replicates the residue map),
        // so only the intra-cluster stripe bits are discarded.
        let divisor = match config.org {
            TlbOrg::Hier { cluster_size, .. } => cluster_size as u64,
            _ => structures.len() as u64,
        };
        if config.org.is_shared() {
            for s in &mut structures {
                s.set_index_divisor(divisor);
            }
        }
        let count = structures.len();
        Self {
            org: config.org,
            cores,
            structures,
            tiles,
            trackers: (0..count).map(|_| OutstandingTracker::new()).collect(),
            chip_tracker: OutstandingTracker::new(),
            lookup_pj,
        }
    }

    /// Number of structures (cores, banks, or slices).
    pub fn count(&self) -> usize {
        self.structures.len()
    }

    /// Dynamic energy of one lookup in pJ.
    pub fn lookup_pj(&self) -> f64 {
        self.lookup_pj
    }

    /// The structure index and its tile for a request to `vpn` from
    /// `requester`.
    pub fn home_of(&self, vpn: VirtPageNum, requester: CoreId) -> (usize, CoreId) {
        match self.org {
            TlbOrg::Private { .. } => (requester.index(), requester),
            TlbOrg::Monolithic { banks, .. } => {
                let b = indexing::bank_for(vpn, banks).index();
                (b, self.tiles[b])
            }
            TlbOrg::Hier { cluster_size, .. } => {
                let s = indexing::cluster_home_for(vpn, requester, cluster_size).index();
                (s, self.tiles[s])
            }
            _ => {
                let s = indexing::slice_for(vpn, self.cores).index();
                (s, self.tiles[s])
            }
        }
    }

    /// Every structure that may hold `vpn`, with its tile. One home for
    /// the flat shared organizations; one per *cluster* for `hier`, where
    /// each cluster replicates the residue map. Shootdowns must reach all
    /// of them. (Private organizations invalidate all cores instead.)
    pub fn homes_of(&self, vpn: VirtPageNum) -> Vec<(usize, CoreId)> {
        match self.org {
            TlbOrg::Hier { cluster_size, .. } => (0..self.cores / cluster_size)
                .map(|k| {
                    let gw = CoreId::new(k * cluster_size);
                    let s = indexing::cluster_home_for(vpn, gw, cluster_size).index();
                    (s, self.tiles[s])
                })
                .collect(),
            _ => vec![self.home_of(vpn, CoreId::new(0))],
        }
    }

    /// The tile a structure lives on.
    pub fn tile_of(&self, index: usize) -> CoreId {
        self.tiles[index]
    }

    /// Mutable access to one structure.
    pub fn structure_mut(&mut self, index: usize) -> &mut TlbSlice {
        &mut self.structures[index]
    }

    /// Shared access to one structure.
    pub fn structure(&self, index: usize) -> &TlbSlice {
        &self.structures[index]
    }

    /// Flushes all non-global entries everywhere (chip-wide context-switch
    /// behaviour of the paper's x86 model); returns entries dropped.
    pub fn flush_all_non_global(&mut self) -> usize {
        self.structures
            .iter_mut()
            .map(|s| s.flush_non_global())
            .sum()
    }

    /// Flushes one core's private structure (private organization only).
    pub fn flush_core_non_global(&mut self, core: CoreId) -> usize {
        self.structures[core.index()].flush_non_global()
    }

    /// Invalidates a translation in its home structure; returns whether it
    /// was present. For private L2s, invalidates in *all* cores (an IPI
    /// reaches every core).
    pub fn invalidate(&mut self, asid: nocstar_types::Asid, vpn: VirtPageNum) -> bool {
        match self.org {
            TlbOrg::Private { .. } => {
                let mut any = false;
                for s in &mut self.structures {
                    any |= s.invalidate(asid, vpn);
                }
                any
            }
            _ => {
                // One home per flat organization; one per cluster for hier.
                let mut any = false;
                for (idx, _) in self.homes_of(vpn) {
                    any |= self.structures[idx].invalidate(asid, vpn);
                }
                any
            }
        }
    }

    /// Clears every structure's statistics and all concurrency bins
    /// (simulation warmup boundary).
    pub fn reset_stats(&mut self) {
        for s in &mut self.structures {
            s.reset_stats();
        }
        for t in &mut self.trackers {
            t.reset_bins();
        }
        self.chip_tracker.reset_bins();
    }

    /// Per-structure hit/miss statistics (slice/bank load balance).
    pub fn per_structure_stats(&self) -> Vec<HitMiss> {
        self.structures.iter().map(|s| s.array().stats()).collect()
    }

    /// Aggregated hit/miss statistics over all structures.
    pub fn merged_stats(&self) -> HitMiss {
        let mut total = HitMiss::new();
        for s in &self.structures {
            total.merge(s.array().stats());
        }
        total
    }

    /// Total valid entries across structures.
    pub fn occupancy(&self) -> usize {
        self.structures.iter().map(|s| s.array().occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocstar_tlb::entry::TlbEntry;
    use nocstar_types::time::Cycles;
    use nocstar_types::{Asid, PageSize, PhysPageNum};

    fn v4k(n: u64) -> VirtPageNum {
        VirtPageNum::new(n, PageSize::Size4K)
    }

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry::new(
            Asid::new(1),
            v4k(vpn),
            PhysPageNum::new(vpn, PageSize::Size4K),
        )
    }

    #[test]
    fn private_homes_are_the_requester() {
        let org = OrgState::new(&SystemConfig::new(16, TlbOrg::paper_private()));
        assert_eq!(org.count(), 16);
        let (idx, tile) = org.home_of(v4k(123), CoreId::new(5));
        assert_eq!(idx, 5);
        assert_eq!(tile, CoreId::new(5));
        assert_eq!(org.structure(0).lookup_latency(), Cycles::new(9));
    }

    #[test]
    fn monolithic_banks_have_full_array_latency() {
        let org = OrgState::new(&SystemConfig::new(32, TlbOrg::paper_monolithic(32)));
        assert_eq!(org.count(), 4);
        // 32k entries: the Fig 3 model gives ~15 cycles.
        let lat = org.structure(0).lookup_latency().value();
        assert!((14..=16).contains(&lat), "latency {lat}");
        // Requests stripe across banks by VPN, regardless of requester.
        let (b0, _) = org.home_of(v4k(0), CoreId::new(7));
        let (b1, _) = org.home_of(v4k(1), CoreId::new(7));
        assert_ne!(b0, b1);
    }

    #[test]
    fn slices_stripe_by_low_vpn_bits() {
        let org = OrgState::new(&SystemConfig::new(16, TlbOrg::paper_nocstar()));
        assert_eq!(org.count(), 16);
        let (idx, tile) = org.home_of(v4k(18), CoreId::new(0));
        assert_eq!(idx, 2);
        assert_eq!(tile, CoreId::new(2));
    }

    #[test]
    fn nocstar_slices_are_area_normalized() {
        let org = OrgState::new(&SystemConfig::new(16, TlbOrg::paper_nocstar()));
        assert_eq!(org.structure(0).array().entries(), 920);
    }

    #[test]
    fn chip_wide_flush_drops_everything_non_global() {
        let mut org = OrgState::new(&SystemConfig::new(4, TlbOrg::paper_distributed()));
        for i in 0..8 {
            let (idx, _) = org.home_of(v4k(i), CoreId::new(0));
            org.structure_mut(idx).insert(entry(i));
        }
        assert_eq!(org.occupancy(), 8);
        assert_eq!(org.flush_all_non_global(), 8);
        assert_eq!(org.occupancy(), 0);
    }

    #[test]
    fn private_invalidation_reaches_all_cores() {
        let mut org = OrgState::new(&SystemConfig::new(4, TlbOrg::paper_private()));
        for c in 0..4 {
            org.structure_mut(c).insert(entry(9));
        }
        assert!(org.invalidate(Asid::new(1), v4k(9)));
        assert_eq!(org.occupancy(), 0);
    }

    #[test]
    fn hier_homes_are_cluster_local() {
        let org = OrgState::new(&SystemConfig::new(64, TlbOrg::paper_hier(16)));
        assert_eq!(org.count(), 64);
        for c in [0usize, 15, 16, 37, 63] {
            let (idx, tile) = org.home_of(v4k(37), CoreId::new(c));
            assert_eq!(idx / 16, c / 16, "home stays in the requester's cluster");
            assert_eq!(tile.index(), idx);
            // Residue within the cluster matches the flat stripe rule.
            assert_eq!(idx % 16, 37 % 16);
        }
    }

    #[test]
    fn hier_set_index_discards_only_cluster_stripe_bits() {
        // With 64 slices but cluster_size 4, pages striding by 4 land in
        // the same slice and must fill distinct sets, not one set.
        let mut org = OrgState::new(&SystemConfig::new(
            64,
            TlbOrg::Hier {
                slice_entries: 1024,
                cluster_size: 4,
                intra: nocstar_noc::hier::IntraKind::Bus,
                inter: nocstar_noc::hier::InterKind::Mesh,
            },
        ));
        let sets = 1024 / TlbOrg::WAYS;
        let (idx, _) = org.home_of(v4k(0), CoreId::new(0));
        for i in 0..sets as u64 {
            org.structure_mut(idx).insert(entry(i * 4));
        }
        assert_eq!(org.structure(idx).array().occupancy(), sets);
    }

    #[test]
    fn hier_invalidation_reaches_every_cluster_replica() {
        let mut org = OrgState::new(&SystemConfig::new(64, TlbOrg::paper_hier(16)));
        let homes = org.homes_of(v4k(7));
        assert_eq!(homes.len(), 4, "one replica slice per cluster");
        for &(idx, _) in &homes {
            org.structure_mut(idx).insert(entry(7));
        }
        assert!(org.invalidate(Asid::new(1), v4k(7)));
        assert_eq!(org.occupancy(), 0, "all replicas invalidated");
    }

    #[test]
    fn shared_invalidation_targets_the_home_slice() {
        let mut org = OrgState::new(&SystemConfig::new(4, TlbOrg::paper_distributed()));
        let (idx, _) = org.home_of(v4k(7), CoreId::new(0));
        org.structure_mut(idx).insert(entry(7));
        assert!(org.invalidate(Asid::new(1), v4k(7)));
        assert!(!org.invalidate(Asid::new(1), v4k(7)));
    }
}
