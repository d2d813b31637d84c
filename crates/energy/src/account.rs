//! The running energy tally a simulation accumulates into.

use crate::model;
use std::fmt;

/// Address-translation energy of one run, split by where it was spent.
///
/// All values in picojoules. The paper's Fig 14 (right) compares total
/// *dynamic* address-translation energy across TLB organizations; the
/// dominant term is page-walk cache/DRAM accesses, which is why eliminating
/// walks (higher shared-TLB hit rate) saves energy.
///
/// # Examples
///
/// ```
/// use nocstar_energy::account::EnergyAccount;
///
/// let mut acct = EnergyAccount::default();
/// acct.add_l1_lookup();
/// acct.add_walk_access(nocstar_energy::model::LLC_CACHE_PJ);
/// assert!(acct.total_pj() > 500.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyAccount {
    /// L1 TLB lookups.
    pub l1_tlb_pj: f64,
    /// L2 TLB (private or shared slice/bank) SRAM lookups.
    pub l2_tlb_pj: f64,
    /// Interconnect: links + switches + control.
    pub noc_pj: f64,
    /// Cache and DRAM accesses performed by page walks.
    pub walk_pj: f64,
    /// Static energy of the translation machinery over the run. No run
    /// charges leakage (it is nearly organization-invariant), so this
    /// stays 0.0; reports keep the key.
    pub static_pj: f64,
}

impl EnergyAccount {
    /// Charges one L1 TLB lookup.
    pub fn add_l1_lookup(&mut self) {
        self.l1_tlb_pj += model::L1_TLB_LOOKUP_PJ;
    }

    /// Charges one L2 TLB SRAM lookup of the given energy
    /// (see [`nocstar_tlb::sram::lookup_energy_pj`]).
    pub fn add_l2_lookup(&mut self, pj: f64) {
        self.l2_tlb_pj += pj;
    }

    /// Charges interconnect energy (links, switches, arbitration).
    pub fn add_noc(&mut self, pj: f64) {
        self.noc_pj += pj;
    }

    /// Charges one page-walk memory access of the given energy.
    pub fn add_walk_access(&mut self, pj: f64) {
        self.walk_pj += pj;
    }

    /// Total address-translation energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.l1_tlb_pj + self.l2_tlb_pj + self.noc_pj + self.walk_pj + self.static_pj
    }

    /// Percent of this account's energy saved relative to `baseline`
    /// (positive when this run is cheaper).
    pub fn percent_saved_vs(&self, baseline: &EnergyAccount) -> f64 {
        let base = baseline.total_pj();
        if base == 0.0 {
            0.0
        } else {
            (base - self.total_pj()) / base * 100.0
        }
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        self.l1_tlb_pj += other.l1_tlb_pj;
        self.l2_tlb_pj += other.l2_tlb_pj;
        self.noc_pj += other.noc_pj;
        self.walk_pj += other.walk_pj;
        self.static_pj += other.static_pj;
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "l1={:.0}pJ l2={:.0}pJ noc={:.0}pJ walk={:.0}pJ static={:.0}pJ (total {:.0}pJ)",
            self.l1_tlb_pj,
            self.l2_tlb_pj,
            self.noc_pj,
            self.walk_pj,
            self.static_pj,
            self.total_pj()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_all_categories() {
        let mut a = EnergyAccount::default();
        a.add_l1_lookup();
        a.add_l2_lookup(8.0);
        a.add_noc(3.0);
        a.add_walk_access(100.0);
        a.static_pj = 10.0;
        assert!((a.total_pj() - (2.0 + 8.0 + 3.0 + 100.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn percent_saved_is_signed() {
        let mut cheap = EnergyAccount::default();
        cheap.add_noc(50.0);
        let mut costly = EnergyAccount::default();
        costly.add_noc(100.0);
        assert!((cheap.percent_saved_vs(&costly) - 50.0).abs() < 1e-9);
        assert!((costly.percent_saved_vs(&cheap) + 100.0).abs() < 1e-9);
        assert_eq!(cheap.percent_saved_vs(&EnergyAccount::default()), 0.0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = EnergyAccount::default();
        a.add_walk_access(10.0);
        let mut b = EnergyAccount::default();
        b.add_walk_access(5.0);
        b.add_l1_lookup();
        a.merge(&b);
        assert!((a.walk_pj - 15.0).abs() < 1e-9);
        assert!(a.l1_tlb_pj > 0.0);
    }

    #[test]
    fn display_has_all_components() {
        let a = EnergyAccount::default();
        let s = a.to_string();
        for key in ["l1=", "l2=", "noc=", "walk=", "static=", "total"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
