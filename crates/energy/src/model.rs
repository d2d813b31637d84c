//! Per-event dynamic-energy constants and the Fig 11(b) message breakdown.
//!
//! Constants are calibrated so the *relative* components match the paper's
//! Fig 11(b): the monolithic design's SRAM dominates; the distributed
//! design's buffered-router switches cost several times NOCSTAR's bare
//! muxes per hop; NOCSTAR's control cost grows with hop count (it
//! arbitrates every link in the path simultaneously) and slightly exceeds
//! the distributed design's, but its total stays lowest.

use nocstar_tlb::sram;

/// Energy of one hop over a repeated on-chip link, in pJ.
pub const LINK_PJ_PER_HOP: f64 = 1.5;
/// Energy of one traversal through a buffered mesh/SMART router, in pJ
/// (buffer write/read + VC/SA arbitration + crossbar).
pub const MESH_SWITCH_PJ_PER_HOP: f64 = 2.5;
/// Energy of one traversal through a NOCSTAR latchless mux switch, in pJ.
pub const CIRCUIT_SWITCH_PJ_PER_HOP: f64 = 0.3;
/// Per-message control energy of a packet-switched NoC (header route
/// computation), in pJ.
pub const MESH_CONTROL_PJ: f64 = 0.5;
/// NOCSTAR control energy per link arbitrated (request wire + arbiter +
/// grant wire), in pJ. A 14-hop path arbitrates 14 links at once, which is
/// why Fig 11(b) shows NOCSTAR's control component growing with distance.
pub const CIRCUIT_CONTROL_PJ_PER_LINK: f64 = 0.45;

/// Energy of one L1 TLB lookup, in pJ (small, highly-ported array).
pub const L1_TLB_LOOKUP_PJ: f64 = 2.0;
/// Energy of a paging-structure-cache hit during a walk, in pJ.
pub const PWC_PJ: f64 = 0.5;
/// Energy of a data-cache access during a page walk, by level, in pJ.
/// Cache/DRAM reads move whole 64-byte lines (and DRAM activates a row),
/// so these sit orders of magnitude above a TLB lookup — the relation the
/// paper's energy argument rests on (Karakostas et al., HPCA 2016).
pub const L1_CACHE_PJ: f64 = 30.0;
/// L2 cache access energy in pJ.
pub const L2_CACHE_PJ: f64 = 100.0;
/// Shared LLC access energy in pJ.
pub const LLC_CACHE_PJ: f64 = 500.0;
/// DRAM access energy in pJ (64B read incl. amortized row activation).
pub const DRAM_PJ: f64 = 20_000.0;

/// The NoC + TLB design whose per-message energy is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocDesign {
    /// Monolithic banked shared TLB over a multi-hop mesh.
    Monolithic {
        /// Total entries of the monolithic SRAM.
        total_entries: usize,
    },
    /// Distributed slices over a multi-hop mesh.
    Distributed {
        /// Entries per slice.
        slice_entries: usize,
    },
    /// Distributed slices over the NOCSTAR circuit-switched fabric.
    Nocstar {
        /// Entries per slice.
        slice_entries: usize,
    },
}

/// The four stacked components of Fig 11(b), in pJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Link wires.
    pub link: f64,
    /// Switch datapath (router or mux).
    pub switch: f64,
    /// Control (route computation or link arbitration).
    pub control: f64,
    /// The TLB SRAM lookup at the destination.
    pub sram: f64,
}

impl EnergyBreakdown {
    /// Total message energy in pJ.
    pub fn total(&self) -> f64 {
        self.link + self.switch + self.control + self.sram
    }
}

/// The energy of one shared-L2-TLB access message travelling `hops` hops
/// (Fig 11(b): (M)onolithic, (D)istributed, (N)OCSTAR).
pub fn message_energy(design: NocDesign, hops: usize) -> EnergyBreakdown {
    let h = hops as f64;
    match design {
        NocDesign::Monolithic { total_entries } => EnergyBreakdown {
            link: LINK_PJ_PER_HOP * h,
            switch: MESH_SWITCH_PJ_PER_HOP * h,
            control: if hops == 0 { 0.0 } else { MESH_CONTROL_PJ },
            sram: sram::lookup_energy_pj(total_entries),
        },
        NocDesign::Distributed { slice_entries } => EnergyBreakdown {
            link: LINK_PJ_PER_HOP * h,
            switch: MESH_SWITCH_PJ_PER_HOP * h,
            control: if hops == 0 { 0.0 } else { MESH_CONTROL_PJ },
            sram: sram::lookup_energy_pj(slice_entries),
        },
        NocDesign::Nocstar { slice_entries } => EnergyBreakdown {
            link: LINK_PJ_PER_HOP * h,
            switch: CIRCUIT_SWITCH_PJ_PER_HOP * h,
            control: CIRCUIT_CONTROL_PJ_PER_LINK * h,
            sram: sram::lookup_energy_pj(slice_entries),
        },
    }
}

/// The hop counts Fig 11(b) sweeps.
pub const FIG11B_HOPS: [usize; 8] = [0, 1, 2, 4, 6, 8, 10, 12];

#[cfg(test)]
mod tests {
    use super::*;

    fn mono() -> NocDesign {
        NocDesign::Monolithic {
            total_entries: 32 * 1536,
        }
    }
    fn dist() -> NocDesign {
        NocDesign::Distributed {
            slice_entries: 1024,
        }
    }
    fn nocstar() -> NocDesign {
        NocDesign::Nocstar { slice_entries: 920 }
    }

    #[test]
    fn monolithic_sram_dominates() {
        let e = message_energy(mono(), 4);
        assert!(e.sram > e.link + e.switch + e.control);
        // Most of the distributed/NOCSTAR savings come from the smaller
        // SRAM (paper §III-D).
        assert!(e.sram > 5.0 * message_energy(dist(), 4).sram);
    }

    #[test]
    fn nocstar_switch_is_cheaper_than_mesh_switch() {
        let d = message_energy(dist(), 8);
        let n = message_energy(nocstar(), 8);
        assert!(n.switch < d.switch / 4.0);
    }

    #[test]
    fn nocstar_control_grows_with_hops_and_exceeds_distributed() {
        let n2 = message_energy(nocstar(), 2);
        let n14 = message_energy(nocstar(), 14);
        assert!(n14.control > n2.control);
        let d14 = message_energy(dist(), 14);
        assert!(
            n14.control > d14.control,
            "paper: slightly higher control cost"
        );
    }

    #[test]
    fn nocstar_total_is_lowest_overall() {
        for hops in FIG11B_HOPS {
            let m = message_energy(mono(), hops).total();
            let d = message_energy(dist(), hops).total();
            let n = message_energy(nocstar(), hops).total();
            assert!(n < d && d < m, "hops={hops}: n={n:.1} d={d:.1} m={m:.1}");
        }
    }

    #[test]
    fn zero_hop_message_has_no_network_energy() {
        let e = message_energy(nocstar(), 0);
        assert_eq!(e.link, 0.0);
        assert_eq!(e.switch, 0.0);
        assert_eq!(e.control, 0.0);
        assert!(e.sram > 0.0);
    }

    #[test]
    fn walk_cache_energy_dwarfs_tlb_lookup_energy() {
        // Paper [58]: energy of cache accesses for walks is orders of
        // magnitude above TLB access energy.
        let (llc, dram, tlb) = (LLC_CACHE_PJ, DRAM_PJ, L1_TLB_LOOKUP_PJ);
        assert!(llc > 10.0 * tlb);
        assert!(dram > 100.0 * tlb);
    }
}
