//! The TLB entry format.
//!
//! Paper §III-A: "Each entry in a slice includes a valid bit, the
//! translation and a context ID associated with the translation." Validity
//! is represented here by presence in the array, so the entry itself carries
//! the context id (ASID), the virtual page tag, and the physical frame.

use nocstar_types::{Asid, PageSize, PhysPageNum, VirtAddr, VirtPageNum};
use std::fmt;

/// One cached virtual-to-physical translation.
///
/// # Examples
///
/// ```
/// use nocstar_tlb::entry::TlbEntry;
/// use nocstar_types::{Asid, PageSize, PhysPageNum, VirtPageNum};
///
/// let e = TlbEntry::new(
///     Asid::new(3),
///     VirtPageNum::new(0x10, PageSize::Size2M),
///     PhysPageNum::new(0x99, PageSize::Size2M),
/// );
/// assert_eq!(e.page_size(), PageSize::Size2M);
/// assert!(e.matches(Asid::new(3), VirtPageNum::new(0x10, PageSize::Size2M)));
/// assert!(!e.matches(Asid::new(4), VirtPageNum::new(0x10, PageSize::Size2M)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbEntry {
    asid: Asid,
    vpn: VirtPageNum,
    ppn: PhysPageNum,
    global: bool,
}

impl TlbEntry {
    /// Builds an entry for a non-global (per-address-space) translation.
    ///
    /// # Panics
    ///
    /// Panics if the virtual and physical page sizes differ — a translation
    /// always maps same-sized pages.
    pub fn new(asid: Asid, vpn: VirtPageNum, ppn: PhysPageNum) -> Self {
        assert_eq!(
            vpn.page_size(),
            ppn.page_size(),
            "translation must map equal page sizes"
        );
        Self {
            asid,
            vpn,
            ppn,
            global: false,
        }
    }

    /// Builds a global translation (kernel mappings shared by all address
    /// spaces), which survives ASID-targeted invalidations.
    pub fn new_global(vpn: VirtPageNum, ppn: PhysPageNum) -> Self {
        let mut e = Self::new(Asid::KERNEL, vpn, ppn);
        e.global = true;
        e
    }

    /// Rebuilds an entry from fields that were taken from a valid entry,
    /// so the page sizes already agree and the size assert is skipped
    /// (the flat TLB array decodes one of these on every hit).
    #[inline]
    pub(crate) fn from_parts(asid: Asid, vpn: VirtPageNum, ppn: PhysPageNum, global: bool) -> Self {
        Self {
            asid,
            vpn,
            ppn,
            global,
        }
    }

    /// The context (address space) id this entry belongs to.
    pub fn asid(self) -> Asid {
        self.asid
    }

    /// The virtual page tag.
    pub fn vpn(self) -> VirtPageNum {
        self.vpn
    }

    /// The translated physical frame.
    pub fn ppn(self) -> PhysPageNum {
        self.ppn
    }

    /// The page size of the mapping.
    pub fn page_size(self) -> PageSize {
        self.vpn.page_size()
    }

    /// Whether this is a global (all-ASID) mapping.
    pub fn is_global(self) -> bool {
        self.global
    }

    /// True when this entry translates `vpn` in address space `asid`
    /// (global entries match any ASID).
    pub fn matches(self, asid: Asid, vpn: VirtPageNum) -> bool {
        self.vpn == vpn && (self.global || self.asid == asid)
    }

    /// Translates a virtual address through this entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address is not inside this entry's
    /// virtual page.
    pub fn translate(self, va: VirtAddr) -> nocstar_types::PhysAddr {
        debug_assert_eq!(
            va.page_number(self.page_size()),
            self.vpn,
            "address {va} is not in page {}",
            self.vpn
        );
        self.ppn.base().offset(va.page_offset(self.page_size()))
    }
}

impl fmt::Display for TlbEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{}{}",
            self.asid,
            self.vpn,
            self.ppn,
            if self.global { " (global)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_4k(asid: u16, vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry::new(
            Asid::new(asid),
            VirtPageNum::new(vpn, PageSize::Size4K),
            PhysPageNum::new(ppn, PageSize::Size4K),
        )
    }

    #[test]
    fn matches_requires_same_asid_and_vpn() {
        let e = entry_4k(1, 0x10, 0x20);
        assert!(e.matches(Asid::new(1), VirtPageNum::new(0x10, PageSize::Size4K)));
        assert!(!e.matches(Asid::new(2), VirtPageNum::new(0x10, PageSize::Size4K)));
        assert!(!e.matches(Asid::new(1), VirtPageNum::new(0x11, PageSize::Size4K)));
        // A 2M page with the same frame index is a different page.
        assert!(!e.matches(Asid::new(1), VirtPageNum::new(0x10, PageSize::Size2M)));
    }

    #[test]
    fn global_entries_match_any_asid() {
        let e = TlbEntry::new_global(
            VirtPageNum::new(0x10, PageSize::Size4K),
            PhysPageNum::new(0x20, PageSize::Size4K),
        );
        assert!(e.is_global());
        assert!(e.matches(Asid::new(7), VirtPageNum::new(0x10, PageSize::Size4K)));
    }

    #[test]
    fn translate_preserves_page_offset() {
        let e = entry_4k(1, 2, 5);
        let pa = e.translate(VirtAddr::new(0x2abc));
        assert_eq!(pa.value(), 0x5abc);
    }

    #[test]
    #[should_panic(expected = "equal page sizes")]
    fn mismatched_page_sizes_rejected() {
        let _ = TlbEntry::new(
            Asid::new(1),
            VirtPageNum::new(0, PageSize::Size4K),
            PhysPageNum::new(0, PageSize::Size2M),
        );
    }

    #[test]
    fn display_shows_mapping() {
        let text = entry_4k(1, 2, 3).to_string();
        assert!(text.contains("asid1"));
        assert!(text.contains("->"));
    }
}
