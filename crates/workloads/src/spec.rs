//! The tunable synthetic-workload description.
//!
//! Each paper workload is modelled as a *hot/cold* access mixture over a
//! shared region (one address space touched by all of the application's
//! threads) plus per-thread private regions:
//!
//! * a **hot set** of `hot_pages` pages, *scattered* across the region
//!   (so superpage backing does not collapse it onto a handful of 2 MiB
//!   translations) and accessed with a Zipf rank distribution — its
//!   popular head fits the L1 TLB, its tail fits an L2 TLB but not the
//!   L1; this is what puts private-L2-TLB miss rates in the paper's
//!   5–18 % band;
//! * the **cold** remainder of the footprint is sampled uniformly or by a
//!   Zipf tail; its size relative to the *aggregate* shared-L2 capacity is
//!   what sets how many private misses a shared TLB eliminates (Fig 2),
//!   and makes the elimination grow with core count exactly as in the
//!   paper.

use crate::generator::SyntheticTrace;
use nocstar_types::{Asid, ThreadId};

/// How cold (non-hot-set) pages are chosen within a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColdDistribution {
    /// Uniform over the cold pages (gups-like random access).
    Uniform,
    /// Zipf with the given exponent over the cold pages (power-law reuse,
    /// graph and key-value workloads).
    Zipf(f64),
    /// A sequential scan with the given page step (streaming kernels;
    /// the pattern adjacent-page TLB prefetching is built for). Each
    /// thread scans from its own starting offset.
    Strided(u64),
}

/// A complete synthetic workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (the paper's label).
    pub name: &'static str,
    /// Shared-region footprint in 4 KiB pages (includes the hot set).
    pub shared_pages: u64,
    /// Per-thread private-region footprint in 4 KiB pages.
    pub private_pages: u64,
    /// Probability an access targets the shared region.
    pub shared_access_fraction: f64,
    /// Hot-set size in pages (scattered evenly across the region).
    pub hot_pages: u64,
    /// Probability an in-region access hits the hot set.
    pub hot_fraction: f64,
    /// Zipf exponent over hot-set ranks (popular hot pages fit the L1
    /// TLB; the tail of the hot set lives in the L2 TLB).
    pub hot_zipf_exponent: f64,
    /// Distribution over the cold pages.
    pub cold: ColdDistribution,
    /// Fraction of the footprint backed by 2 MiB pages when transparent
    /// huge pages are enabled (the paper measures 50–80 %).
    pub superpage_fraction: f64,
    /// Mean cycles of non-memory work between memory ops.
    pub mem_op_gap: u64,
    /// Fraction of accesses that write.
    pub write_fraction: f64,
    /// OS page remaps (→ chip-wide shootdowns) per million accesses.
    pub remaps_per_million: f64,
}

impl WorkloadSpec {
    /// Builds the deterministic trace for one hardware thread of this
    /// workload.
    ///
    /// `thp_enabled` selects transparent-huge-page backing (Fig 13) versus
    /// 4 KiB-only (Fig 12). Traces with the same `(seed, asid, thread)`
    /// are identical.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (see [`validate`](Self::validate)).
    pub fn trace(
        &self,
        asid: Asid,
        thread: ThreadId,
        seed: u64,
        thp_enabled: bool,
    ) -> SyntheticTrace {
        self.validate();
        SyntheticTrace::new(*self, asid, thread, seed, thp_enabled)
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`, the hot set exceeds
    /// the shared footprint, or the footprint is empty.
    pub fn validate(&self) {
        assert!(
            self.shared_pages > 0,
            "{}: empty shared footprint",
            self.name
        );
        assert!(
            self.hot_pages <= self.shared_pages,
            "{}: hot set larger than footprint",
            self.name
        );
        for (label, p) in [
            ("shared_access_fraction", self.shared_access_fraction),
            ("hot_fraction", self.hot_fraction),
            ("superpage_fraction", self.superpage_fraction),
            ("write_fraction", self.write_fraction),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{}: {label} = {p} is not a probability",
                self.name
            );
        }
        assert!(
            self.remaps_per_million >= 0.0,
            "{}: negative remap rate",
            self.name
        );
        match self.cold {
            ColdDistribution::Zipf(s) => {
                assert!(s > 0.0, "{}: non-positive Zipf exponent", self.name)
            }
            ColdDistribution::Strided(step) => {
                assert!(step > 0, "{}: zero scan stride", self.name)
            }
            ColdDistribution::Uniform => {}
        }
        assert!(
            self.hot_zipf_exponent > 0.0,
            "{}: non-positive hot Zipf exponent",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            shared_pages: 1000,
            private_pages: 100,
            shared_access_fraction: 0.8,
            hot_pages: 64,
            hot_fraction: 0.9,
            hot_zipf_exponent: 1.2,
            cold: ColdDistribution::Uniform,
            superpage_fraction: 0.5,
            mem_op_gap: 8,
            write_fraction: 0.3,
            remaps_per_million: 10.0,
        }
    }

    #[test]
    fn valid_spec_passes() {
        base().validate();
    }

    #[test]
    #[should_panic(expected = "hot set larger")]
    fn oversized_hot_set_rejected() {
        let mut s = base();
        s.hot_pages = 2000;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_probability_rejected() {
        let mut s = base();
        s.hot_fraction = 1.5;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "Zipf exponent")]
    fn bad_zipf_rejected() {
        let mut s = base();
        s.cold = ColdDistribution::Zipf(-1.0);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "zero scan stride")]
    fn zero_stride_rejected() {
        let mut s = base();
        s.cold = ColdDistribution::Strided(0);
        s.validate();
    }
}
