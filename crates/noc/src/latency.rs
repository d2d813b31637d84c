//! Analytical per-message latency model behind Fig 11(a).
//!
//! For each shared-TLB design, a message's latency splits into the SRAM
//! access component (from [`nocstar_tlb::sram`]) and the network component
//! as a function of hop count:
//!
//! * monolithic / distributed over a multi-hop mesh:
//!   [`CYCLES_PER_HOP`](crate::mesh::CYCLES_PER_HOP) `x hops`
//!   (1-cycle router + 1-cycle link per hop);
//! * NOCSTAR: 1 cycle of path setup + `ceil(hops / HPCmax)` traversal
//!   cycles (0 network cycles for a local slice).

use crate::mesh;
use nocstar_tlb::sram;
use nocstar_types::time::Cycles;
use std::fmt;

/// A shared-L2-TLB design point of Fig 11(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedTlbDesign {
    /// Monolithic banked SRAM reached over a multi-hop mesh.
    Monolithic {
        /// Total entries of the monolithic structure.
        total_entries: usize,
    },
    /// Per-core slices reached over a multi-hop mesh.
    Distributed {
        /// Entries per slice.
        slice_entries: usize,
    },
    /// Per-core slices reached over the NOCSTAR circuit-switched fabric.
    Nocstar {
        /// Entries per slice.
        slice_entries: usize,
        /// Maximum hops per traversal cycle.
        hpc_max: usize,
    },
}

impl fmt::Display for SharedTlbDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharedTlbDesign::Monolithic { .. } => write!(f, "Monolithic"),
            SharedTlbDesign::Distributed { .. } => write!(f, "Distributed"),
            SharedTlbDesign::Nocstar { hpc_max, .. } => write!(f, "NOCSTAR HPCmax={hpc_max}"),
        }
    }
}

/// The two stacked components Fig 11(a) plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageLatency {
    /// SRAM lookup component.
    pub access: Cycles,
    /// Interconnect component (one way).
    pub network: Cycles,
}

impl MessageLatency {
    /// Total message latency.
    pub fn total(&self) -> Cycles {
        self.access + self.network
    }
}

/// The contention-free latency of one shared-L2 access at `hops` distance.
///
/// # Examples
///
/// ```
/// use nocstar_noc::latency::{message_latency, SharedTlbDesign};
///
/// let nocstar = SharedTlbDesign::Nocstar { slice_entries: 920, hpc_max: 16 };
/// let far = message_latency(nocstar, 12);
/// assert_eq!(far.network.value(), 2); // 1 setup + 1 traversal
/// let mesh = SharedTlbDesign::Distributed { slice_entries: 1024 };
/// assert_eq!(message_latency(mesh, 12).network.value(), 24);
/// ```
pub fn message_latency(design: SharedTlbDesign, hops: usize) -> MessageLatency {
    match design {
        SharedTlbDesign::Monolithic {
            total_entries: entries,
        }
        | SharedTlbDesign::Distributed {
            slice_entries: entries,
        } => MessageLatency {
            access: sram::lookup_cycles(entries),
            network: Cycles::new(mesh::CYCLES_PER_HOP * hops as u64),
        },
        SharedTlbDesign::Nocstar {
            slice_entries,
            hpc_max,
        } => {
            assert!(hpc_max > 0, "HPCmax must be at least 1");
            let network = if hops == 0 {
                0
            } else {
                1 + hops.div_ceil(hpc_max) as u64
            };
            MessageLatency {
                access: sram::lookup_cycles(slice_entries),
                network: Cycles::new(network),
            }
        }
    }
}

/// The hop counts Fig 11(a) sweeps.
pub const FIG11A_HOPS: [usize; 8] = [0, 1, 2, 4, 6, 8, 10, 12];

/// The five Fig 11(a) series for a 32-core chip (32x1536-entry monolithic,
/// 1024-entry distributed slices, 920-entry NOCSTAR slices at HPCmax 4/8/16).
pub fn fig11a_designs() -> Vec<SharedTlbDesign> {
    vec![
        SharedTlbDesign::Monolithic {
            total_entries: 32 * 1536,
        },
        SharedTlbDesign::Distributed {
            slice_entries: 1024,
        },
        SharedTlbDesign::Nocstar {
            slice_entries: 920,
            hpc_max: 4,
        },
        SharedTlbDesign::Nocstar {
            slice_entries: 920,
            hpc_max: 8,
        },
        SharedTlbDesign::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_pays_big_sram_plus_mesh() {
        let m = SharedTlbDesign::Monolithic {
            total_entries: 32 * 1536,
        };
        let l = message_latency(m, 12);
        assert_eq!(l.access.value(), 15);
        assert_eq!(l.network.value(), 24);
        assert_eq!(l.total().value(), 39); // the top of Fig 11(a)
    }

    #[test]
    fn nocstar_network_is_flat_in_hops_at_high_hpc() {
        let n = SharedTlbDesign::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
        };
        for hops in [1, 4, 8, 12, 16] {
            assert_eq!(message_latency(n, hops).network.value(), 2);
        }
        assert_eq!(message_latency(n, 0).network.value(), 0);
    }

    #[test]
    fn lower_hpc_adds_pipeline_cycles() {
        let n4 = SharedTlbDesign::Nocstar {
            slice_entries: 920,
            hpc_max: 4,
        };
        assert_eq!(message_latency(n4, 12).network.value(), 1 + 3);
    }

    #[test]
    fn ordering_matches_the_paper() {
        // NOCSTAR <= distributed < monolithic everywhere, with NOCSTAR
        // strictly ahead once the mesh needs more than one hop.
        for hops in [1, 2, 4, 6, 8, 10, 12] {
            let designs = fig11a_designs();
            let mono = message_latency(designs[0], hops).total();
            let dist = message_latency(designs[1], hops).total();
            let nocstar = message_latency(designs[4], hops).total();
            assert!(nocstar <= dist, "hops={hops}");
            if hops >= 2 {
                assert!(nocstar < dist, "hops={hops}");
            }
            assert!(dist < mono, "hops={hops}");
        }
    }

    #[test]
    fn fig11a_has_five_series_and_eight_points() {
        assert_eq!(fig11a_designs().len(), 5);
        assert_eq!(FIG11A_HOPS.len(), 8);
    }
}
