//! A 4-level x86-64-style radix page table, built in simulated physical
//! memory.
//!
//! Each table node occupies a real (simulated) 4 KiB frame, so every PTE
//! the walker reads has a physical address to send through the cache
//! hierarchy — this is what makes the paper's "variable" page-walk latency
//! emerge from cache behaviour rather than being a constant.
//!
//! Leaves may sit at three depths: PT (4 KiB pages), PD (2 MiB), or PDPT
//! (1 GiB). [`PageTable::promote`] and [`PageTable::demote`] convert
//! between 4 KiB and 2 MiB mappings, as the transparent-huge-page storm
//! microbenchmark (paper §V) does continuously.

use crate::phys::PhysMemory;
use nocstar_types::{PageSize, PhysAddr, PhysPageNum, VirtAddr, VirtPageNum};

const FANOUT_BITS: u32 = 9;
const FANOUT: usize = 1 << FANOUT_BITS;
const FANOUT_MASK: u64 = (1 << FANOUT_BITS) - 1;
const PTE_BYTES: u64 = 8;
/// Levels of the radix tree (PML4, PDPT, PD, PT).
pub const LEVELS: usize = 4;
/// Largest node index or leaf frame number a 31-bit slot payload holds:
/// just under 8 TiB of 4 KiB frames.
const SLOT_PAYLOAD_MAX: u64 = (1 << 31) - 2;

/// A decoded non-empty PTE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Pointer to a lower-level table node.
    Table(usize),
    /// Terminal mapping to a physical frame number (page size implied by
    /// depth).
    Leaf(u64),
}

impl Slot {
    /// Decodes a raw slot: 0 is empty, an odd value is `index << 1 | 1`,
    /// an even one `(frame + 1) << 1`.
    fn decode(raw: u32) -> Option<Self> {
        match raw {
            0 => None,
            r if r & 1 == 1 => Some(Self::Table((r >> 1) as usize)),
            r => Some(Self::Leaf(u64::from(r >> 1) - 1)),
        }
    }

    /// The raw slot pointing at node `index`.
    fn table(index: usize) -> u32 {
        assert!(
            index as u64 <= SLOT_PAYLOAD_MAX,
            "page-table node {index} is beyond the 31-bit slot range"
        );
        (index as u32) << 1 | 1
    }

    /// The raw slot mapping `frame`.
    fn leaf(frame: PhysPageNum) -> u32 {
        let n = frame.number();
        assert!(
            n <= SLOT_PAYLOAD_MAX,
            "frame {n} ({:?}) is beyond the 31-bit slot range",
            frame.page_size()
        );
        ((n + 1) as u32) << 1
    }
}

/// One table node: the simulated frame it occupies and its 512 PTEs,
/// each encoded as [`Slot::decode`] describes.
#[derive(Debug, Clone)]
struct Node {
    frame: PhysPageNum,
    slots: Box<[u32; FANOUT]>,
}

impl Node {
    fn new(frame: PhysPageNum) -> Self {
        Self {
            frame,
            slots: Box::new([0; FANOUT]),
        }
    }

    fn get(&self, index: u16) -> Option<Slot> {
        Slot::decode(self.slots[usize::from(index)])
    }
}

/// The outcome of walking one virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Physical addresses of the PTEs read, in walk order. Populated even
    /// for failed walks (the walker reads until it finds a hole).
    pub pte_addrs: Vec<PhysAddr>,
    /// The translation found, if the address is mapped.
    pub mapping: Option<(VirtPageNum, PhysPageNum)>,
}

/// One address space's page table.
///
/// Each node is a boxed array of 512 `u32` slots, so a walk is four
/// indexed loads. A slot holds a child node index or a leaf frame number
/// in 31 bits, so either one of 2³¹ − 1 or more panics: 4 KiB frames
/// reach that just below 8 TiB, superpage frames further out.
///
/// # Examples
///
/// ```
/// use nocstar_mem::page_table::PageTable;
/// use nocstar_mem::phys::PhysMemory;
/// use nocstar_types::{PageSize, VirtAddr};
///
/// let mut phys = PhysMemory::new(1 << 30);
/// let mut pt = PageTable::new(&mut phys);
/// let vpn = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
/// pt.map(vpn, &mut phys);
/// let walk = pt.walk(VirtAddr::new(0x20_1234));
/// assert_eq!(walk.pte_addrs.len(), 3); // superpage leaf at the PD level
/// assert_eq!(walk.mapping.unwrap().0, vpn);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    root: usize,
    mapped_pages: u64,
}

impl PageTable {
    /// Creates an empty table, allocating its root node.
    pub fn new(phys: &mut PhysMemory) -> Self {
        let root_frame = phys.alloc(PageSize::Size4K);
        Self {
            nodes: vec![Node::new(root_frame)],
            root: 0,
            mapped_pages: 0,
        }
    }

    /// The radix index at each level for a virtual address.
    fn indices(va: VirtAddr) -> [u16; LEVELS] {
        let mut idx = [0u16; LEVELS];
        for (level, slot) in idx.iter_mut().enumerate() {
            let shift = 12 + FANOUT_BITS * (LEVELS - 1 - level) as u32;
            *slot = ((va.value() >> shift) & FANOUT_MASK) as u16;
        }
        idx
    }

    /// The depth (0-based level index) at which a leaf of `size` lives.
    fn leaf_depth(size: PageSize) -> usize {
        size.walk_levels() - 1
    }

    fn pte_addr(&self, node: usize, index: u16) -> PhysAddr {
        self.nodes[node]
            .frame
            .base()
            .offset(u64::from(index) * PTE_BYTES)
    }

    fn set(&mut self, node: usize, index: u16, raw: u32) {
        self.nodes[node].slots[usize::from(index)] = raw;
    }

    /// Appends a node on a fresh frame and returns its index.
    fn push_node(&mut self, phys: &mut PhysMemory) -> usize {
        self.nodes.push(Node::new(phys.alloc(PageSize::Size4K)));
        self.nodes.len() - 1
    }

    /// Walks `va`, recording the PTE reads a hardware walker would issue.
    pub fn walk(&self, va: VirtAddr) -> WalkOutcome {
        let mut pte_addrs = Vec::with_capacity(LEVELS);
        let mapping = self.descend(va, |pa| pte_addrs.push(pa));
        WalkOutcome { pte_addrs, mapping }
    }

    /// The translation of `va`, if mapped: [`walk`](Self::walk)'s
    /// `mapping` without recording (or allocating for) the PTE reads.
    pub fn lookup(&self, va: VirtAddr) -> Option<(VirtPageNum, PhysPageNum)> {
        self.descend(va, |_| {})
    }

    /// Descends the radix tree for `va`, passing each PTE read to `read`
    /// in walk order (up to and including the hole of a failed walk).
    fn descend(
        &self,
        va: VirtAddr,
        mut read: impl FnMut(PhysAddr),
    ) -> Option<(VirtPageNum, PhysPageNum)> {
        let mut node = self.root;
        for (depth, &i) in Self::indices(va).iter().enumerate() {
            read(self.pte_addr(node, i));
            match self.nodes[node].get(i)? {
                Slot::Table(child) => node = child,
                Slot::Leaf(frame) => {
                    let size = match depth {
                        1 => PageSize::Size1G,
                        2 => PageSize::Size2M,
                        3 => PageSize::Size4K,
                        _ => unreachable!("no leaves at the PML4 level"),
                    };
                    return Some((va.page_number(size), PhysPageNum::new(frame, size)));
                }
            }
        }
        unreachable!("PT-level entries are always leaves")
    }

    /// Maps `vpn` to a freshly allocated frame, creating intermediate
    /// nodes as needed. Returns the frame (the existing one if `vpn` was
    /// already mapped at the same size).
    ///
    /// # Panics
    ///
    /// Panics if the region is already mapped at a *different* page size —
    /// overlapping mixed-size mappings are an OS bug the simulator refuses
    /// to model — or if the new frame or node is beyond the 31-bit slot
    /// range (see [`PageTable`]).
    pub fn map(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> PhysPageNum {
        let size = vpn.page_size();
        let depth = Self::leaf_depth(size);
        let idx = Self::indices(vpn.base());
        let mut node = self.root;
        for &i in idx.iter().take(depth) {
            node = match self.nodes[node].get(i) {
                Some(Slot::Table(child)) => child,
                Some(Slot::Leaf(_)) => {
                    panic!("mapping {vpn} conflicts with an existing superpage leaf")
                }
                None => {
                    let child = self.push_node(phys);
                    self.set(node, i, Slot::table(child));
                    child
                }
            };
        }
        match self.nodes[node].get(idx[depth]) {
            Some(Slot::Leaf(existing)) => PhysPageNum::new(existing, size),
            Some(Slot::Table(_)) => {
                panic!("mapping {vpn} conflicts with finer-grained existing mappings")
            }
            None => {
                let frame = phys.alloc(size);
                self.set(node, idx[depth], Slot::leaf(frame));
                self.mapped_pages += 1;
                frame
            }
        }
    }

    /// Points an existing mapping at a fresh frame (an OS page migration /
    /// copy-on-write-style remap). Returns the new frame, or `None` if the
    /// page was not mapped.
    ///
    /// # Panics
    ///
    /// Panics if the new frame is beyond the 31-bit slot range (see
    /// [`PageTable`]).
    pub fn remap(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> Option<PhysPageNum> {
        let (node, index) = self.leaf_slot(vpn)?;
        let frame = phys.alloc(vpn.page_size());
        self.set(node, index, Slot::leaf(frame));
        Some(frame)
    }

    /// Removes a mapping; returns whether it existed.
    pub fn unmap(&mut self, vpn: VirtPageNum) -> bool {
        match self.leaf_slot(vpn) {
            Some((node, index)) => {
                self.set(node, index, 0);
                self.mapped_pages -= 1;
                true
            }
            None => false,
        }
    }

    fn leaf_slot(&self, vpn: VirtPageNum) -> Option<(usize, u16)> {
        let depth = Self::leaf_depth(vpn.page_size());
        let idx = Self::indices(vpn.base());
        let mut node = self.root;
        for &i in idx.iter().take(depth) {
            match self.nodes[node].get(i) {
                Some(Slot::Table(child)) => node = child,
                _ => return None,
            }
        }
        match self.nodes[node].get(idx[depth]) {
            Some(Slot::Leaf(_)) => Some((node, idx[depth])),
            _ => None,
        }
    }

    /// Promotes the 512 4 KiB pages under `vpn_2m` into one 2 MiB mapping,
    /// allocating a fresh superpage frame. Returns the 4 KiB pages whose
    /// translations became stale (the OS must shoot these down), in
    /// address order, or `None` if no PT node existed there.
    ///
    /// # Panics
    ///
    /// Panics if `vpn_2m` is not a 2 MiB page, or if the superpage frame
    /// is beyond the 31-bit slot range (see [`PageTable`]).
    pub fn promote(
        &mut self,
        vpn_2m: VirtPageNum,
        phys: &mut PhysMemory,
    ) -> Option<Vec<VirtPageNum>> {
        assert_eq!(
            vpn_2m.page_size(),
            PageSize::Size2M,
            "promote takes a 2M page"
        );
        let idx = Self::indices(vpn_2m.base());
        let mut node = self.root;
        for &i in idx.iter().take(2) {
            match self.nodes[node].get(i) {
                Some(Slot::Table(child)) => node = child,
                _ => return None,
            }
        }
        let pd_index = idx[2];
        let Some(Slot::Table(pt_node)) = self.nodes[node].get(pd_index) else {
            return None;
        };
        let base_4k = vpn_2m.to_base_pages();
        let stale: Vec<VirtPageNum> = (0u64..)
            .zip(self.nodes[pt_node].slots.iter())
            .filter(|&(_, &raw)| raw != 0)
            .map(|(i, _)| VirtPageNum::new(base_4k + i, PageSize::Size4K))
            .collect();
        self.mapped_pages -= stale.len() as u64;
        let frame = phys.alloc(PageSize::Size2M);
        self.set(node, pd_index, Slot::leaf(frame));
        self.mapped_pages += 1;
        // The PT node's frame leaks in simulated memory, exactly like an OS
        // that defers freeing page-table pages; the simulator never reuses it.
        Some(stale)
    }

    /// Demotes a 2 MiB mapping back into 512 4 KiB mappings with fresh
    /// frames. Returns the stale 2 MiB page to shoot down, or `None` if
    /// `vpn_2m` was not a 2 MiB leaf.
    ///
    /// # Panics
    ///
    /// Panics if `vpn_2m` is not a 2 MiB page, or if the new node or base
    /// frames are beyond the 31-bit slot range (see [`PageTable`]).
    pub fn demote(&mut self, vpn_2m: VirtPageNum, phys: &mut PhysMemory) -> Option<VirtPageNum> {
        assert_eq!(
            vpn_2m.page_size(),
            PageSize::Size2M,
            "demote takes a 2M page"
        );
        let (node, index) = self.leaf_slot(vpn_2m)?;
        let pt_node = self.push_node(phys);
        let base_frame = phys.alloc(PageSize::Size2M).to_base_pages(); // 512 contiguous 4K frames
        for (slot, i) in self.nodes[pt_node].slots.iter_mut().zip(0u64..) {
            *slot = Slot::leaf(PhysPageNum::new(base_frame + i, PageSize::Size4K));
        }
        self.set(node, index, Slot::table(pt_node));
        self.mapped_pages += 511; // -1 superpage, +512 base pages
        Some(vpn_2m)
    }

    /// Number of leaf mappings currently present.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of table nodes (root + interior + PT nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The ordered-map page table this module used to implement, kept as
    /// the reference the flat nodes must agree with: every node maps its
    /// occupied PTE indices to a child or a leaf frame.
    struct Reference {
        nodes: Vec<RefNode>,
        mapped_pages: u64,
    }

    struct RefNode {
        frame: PhysPageNum,
        entries: BTreeMap<u16, RefSlot>,
    }

    #[derive(Clone, Copy)]
    enum RefSlot {
        Table(usize),
        Leaf(PhysPageNum),
    }

    impl Reference {
        fn new(phys: &mut PhysMemory) -> Self {
            Self {
                nodes: vec![RefNode::new(phys)],
                mapped_pages: 0,
            }
        }

        fn walk(&self, va: VirtAddr) -> WalkOutcome {
            let mut pte_addrs = Vec::new();
            let mut node = 0;
            for (depth, &i) in PageTable::indices(va).iter().enumerate() {
                let n = &self.nodes[node];
                pte_addrs.push(n.frame.base().offset(u64::from(i) * PTE_BYTES));
                match n.entries.get(&i) {
                    None => break,
                    Some(RefSlot::Table(child)) => node = *child,
                    Some(RefSlot::Leaf(ppn)) => {
                        let size =
                            [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K][depth - 1];
                        let mapping = Some((va.page_number(size), *ppn));
                        return WalkOutcome { pte_addrs, mapping };
                    }
                }
            }
            WalkOutcome {
                pte_addrs,
                mapping: None,
            }
        }

        /// Whether mapping `vpn` would meet a leaf above its depth or a
        /// table at it (the mixed-size overlap `map` refuses).
        fn conflicts(&self, vpn: VirtPageNum) -> bool {
            let depth = PageTable::leaf_depth(vpn.page_size());
            let idx = PageTable::indices(vpn.base());
            let mut node = 0;
            for &i in idx.iter().take(depth) {
                match self.nodes[node].entries.get(&i) {
                    Some(RefSlot::Table(child)) => node = *child,
                    Some(RefSlot::Leaf(_)) => return true,
                    None => return false,
                }
            }
            matches!(
                self.nodes[node].entries.get(&idx[depth]),
                Some(RefSlot::Table(_))
            )
        }

        fn map(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> PhysPageNum {
            let depth = PageTable::leaf_depth(vpn.page_size());
            let idx = PageTable::indices(vpn.base());
            let mut node = 0;
            for &i in idx.iter().take(depth) {
                node = match self.nodes[node].entries.get(&i) {
                    Some(RefSlot::Table(child)) => *child,
                    Some(RefSlot::Leaf(_)) => panic!("conflict"),
                    None => {
                        let child = self.push(phys);
                        self.nodes[node].entries.insert(i, RefSlot::Table(child));
                        child
                    }
                };
            }
            match self.nodes[node].entries.get(&idx[depth]) {
                Some(RefSlot::Leaf(existing)) => *existing,
                Some(RefSlot::Table(_)) => panic!("conflict"),
                None => {
                    let frame = phys.alloc(vpn.page_size());
                    self.nodes[node]
                        .entries
                        .insert(idx[depth], RefSlot::Leaf(frame));
                    self.mapped_pages += 1;
                    frame
                }
            }
        }

        fn remap(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> Option<PhysPageNum> {
            let (node, index) = self.leaf_slot(vpn)?;
            let frame = phys.alloc(vpn.page_size());
            self.nodes[node].entries.insert(index, RefSlot::Leaf(frame));
            Some(frame)
        }

        fn unmap(&mut self, vpn: VirtPageNum) -> bool {
            let Some((node, index)) = self.leaf_slot(vpn) else {
                return false;
            };
            self.nodes[node].entries.remove(&index);
            self.mapped_pages -= 1;
            true
        }

        /// The (node, index) of `vpn`'s leaf, or of its table slot when
        /// `table` is set.
        fn slot(&self, vpn: VirtPageNum, table: bool) -> Option<(usize, u16)> {
            let depth = PageTable::leaf_depth(vpn.page_size());
            let idx = PageTable::indices(vpn.base());
            let mut node = 0;
            for &i in idx.iter().take(depth) {
                match self.nodes[node].entries.get(&i) {
                    Some(RefSlot::Table(child)) => node = *child,
                    _ => return None,
                }
            }
            match self.nodes[node].entries.get(&idx[depth])? {
                RefSlot::Leaf(_) if !table => Some((node, idx[depth])),
                RefSlot::Table(_) if table => Some((node, idx[depth])),
                _ => None,
            }
        }

        fn leaf_slot(&self, vpn: VirtPageNum) -> Option<(usize, u16)> {
            self.slot(vpn, false)
        }

        fn promote(
            &mut self,
            vpn_2m: VirtPageNum,
            phys: &mut PhysMemory,
        ) -> Option<Vec<VirtPageNum>> {
            let (node, pd_index) = self.slot(vpn_2m, true)?;
            let Some(RefSlot::Table(pt)) = self.nodes[node].entries.get(&pd_index).copied() else {
                unreachable!("slot returned a table slot")
            };
            let stale: Vec<VirtPageNum> = self.nodes[pt]
                .entries
                .keys()
                .map(|&i| VirtPageNum::new(vpn_2m.to_base_pages() + u64::from(i), PageSize::Size4K))
                .collect();
            self.mapped_pages -= stale.len() as u64;
            let frame = phys.alloc(PageSize::Size2M);
            self.nodes[node]
                .entries
                .insert(pd_index, RefSlot::Leaf(frame));
            self.mapped_pages += 1;
            Some(stale)
        }

        fn demote(&mut self, vpn_2m: VirtPageNum, phys: &mut PhysMemory) -> Option<VirtPageNum> {
            let (node, index) = self.leaf_slot(vpn_2m)?;
            let pt = self.push(phys);
            let base = phys.alloc(PageSize::Size2M).to_base_pages();
            self.nodes[pt].entries = (0..512u16)
                .map(|i| {
                    let frame = PhysPageNum::new(base + u64::from(i), PageSize::Size4K);
                    (i, RefSlot::Leaf(frame))
                })
                .collect();
            self.nodes[node].entries.insert(index, RefSlot::Table(pt));
            self.mapped_pages += 511;
            Some(vpn_2m)
        }

        fn push(&mut self, phys: &mut PhysMemory) -> usize {
            self.nodes.push(RefNode::new(phys));
            self.nodes.len() - 1
        }
    }

    impl RefNode {
        fn new(phys: &mut PhysMemory) -> Self {
            Self {
                frame: phys.alloc(PageSize::Size4K),
                entries: BTreeMap::new(),
            }
        }
    }

    fn setup() -> (PhysMemory, PageTable) {
        let mut phys = PhysMemory::new(8 << 30);
        let pt = PageTable::new(&mut phys);
        (phys, pt)
    }

    #[test]
    fn walk_of_unmapped_address_fails_at_the_root() {
        let (_, pt) = setup();
        let walk = pt.walk(VirtAddr::new(0x1234));
        assert!(walk.mapping.is_none());
        assert!(pt.lookup(VirtAddr::new(0x1234)).is_none());
        assert_eq!(walk.pte_addrs.len(), 1); // read the PML4 entry, found hole
    }

    #[test]
    fn mapping_a_4k_page_yields_a_four_level_walk() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x7654_3210).page_number(PageSize::Size4K);
        let frame = pt.map(vpn, &mut phys);
        let walk = pt.walk(VirtAddr::new(0x7654_3213));
        assert_eq!(walk.pte_addrs.len(), 4);
        assert_eq!(walk.mapping, Some((vpn, frame)));
        // Four nodes: PML4 + PDPT + PD + PT.
        assert_eq!(pt.node_count(), 4);
    }

    #[test]
    fn superpage_walks_stop_early() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x4000_0000).page_number(PageSize::Size2M);
        pt.map(v2m, &mut phys);
        assert_eq!(pt.walk(VirtAddr::new(0x4000_1000)).pte_addrs.len(), 3);

        let v1g = VirtAddr::new(0x1_0000_0000).page_number(PageSize::Size1G);
        let frame = pt.map(v1g, &mut phys);
        assert_eq!(pt.walk(VirtAddr::new(0x1_2345_6789)).pte_addrs.len(), 2);
        assert_eq!(pt.lookup(VirtAddr::new(0x1_2345_6789)), Some((v1g, frame)));
    }

    #[test]
    fn mapping_is_idempotent() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x1000).page_number(PageSize::Size4K);
        let a = pt.map(vpn, &mut phys);
        let b = pt.map(vpn, &mut phys);
        assert_eq!(a, b);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn adjacent_pages_share_interior_nodes() {
        let (mut phys, mut pt) = setup();
        pt.map(
            VirtAddr::new(0x1000).page_number(PageSize::Size4K),
            &mut phys,
        );
        pt.map(
            VirtAddr::new(0x2000).page_number(PageSize::Size4K),
            &mut phys,
        );
        assert_eq!(pt.node_count(), 4); // same PML4/PDPT/PD/PT path
                                        // Their PTEs sit in the same PT frame, 8 bytes apart.
        let w1 = pt.walk(VirtAddr::new(0x1000));
        let w2 = pt.walk(VirtAddr::new(0x2000));
        assert_eq!(w2.pte_addrs[3].value() - w1.pte_addrs[3].value(), PTE_BYTES);
    }

    #[test]
    fn remap_changes_the_frame() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x5000).page_number(PageSize::Size4K);
        let old = pt.map(vpn, &mut phys);
        let new = pt.remap(vpn, &mut phys).unwrap();
        assert_ne!(old, new);
        assert_eq!(pt.walk(VirtAddr::new(0x5000)).mapping.unwrap().1, new);
        assert!(pt
            .remap(
                VirtAddr::new(0x9000).page_number(PageSize::Size4K),
                &mut phys
            )
            .is_none());
    }

    #[test]
    fn unmap_removes_the_leaf() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x5000).page_number(PageSize::Size4K);
        pt.map(vpn, &mut phys);
        assert!(pt.unmap(vpn));
        assert!(!pt.unmap(vpn));
        assert!(pt.walk(VirtAddr::new(0x5000)).mapping.is_none());
    }

    #[test]
    fn promote_collapses_4k_pages_into_a_superpage() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        // Map 512 base pages underneath it.
        for i in 0..512u64 {
            pt.map(
                VirtPageNum::new(v2m.to_base_pages() + i, PageSize::Size4K),
                &mut phys,
            );
        }
        let stale = pt.promote(v2m, &mut phys).unwrap();
        assert_eq!(stale.len(), 512);
        assert_eq!(pt.mapped_pages(), 1);
        let walk = pt.walk(VirtAddr::new(0x20_0000));
        assert_eq!(walk.mapping.unwrap().0, v2m);
        assert_eq!(walk.pte_addrs.len(), 3);
    }

    #[test]
    fn demote_splits_a_superpage() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        pt.map(v2m, &mut phys);
        let stale = pt.demote(v2m, &mut phys).unwrap();
        assert_eq!(stale, v2m);
        assert_eq!(pt.mapped_pages(), 512);
        let walk = pt.walk(VirtAddr::new(0x20_3000));
        assert_eq!(walk.pte_addrs.len(), 4);
        assert_eq!(walk.mapping.unwrap().0.page_size(), PageSize::Size4K);
    }

    #[test]
    fn promote_then_demote_round_trips_structure() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        for i in 0..512u64 {
            pt.map(
                VirtPageNum::new(v2m.to_base_pages() + i, PageSize::Size4K),
                &mut phys,
            );
        }
        pt.promote(v2m, &mut phys).unwrap();
        pt.demote(v2m, &mut phys).unwrap();
        assert_eq!(pt.mapped_pages(), 512);
        assert!(pt.walk(VirtAddr::new(0x20_0000)).mapping.is_some());
    }

    #[test]
    #[should_panic(expected = "conflicts")]
    fn mixed_size_overlap_panics() {
        let (mut phys, mut pt) = setup();
        pt.map(
            VirtAddr::new(0x20_0000).page_number(PageSize::Size2M),
            &mut phys,
        );
        pt.map(
            VirtAddr::new(0x20_0000).page_number(PageSize::Size4K),
            &mut phys,
        );
    }

    #[test]
    fn slot_encoding_round_trips_at_the_range_limit() {
        let max = SLOT_PAYLOAD_MAX;
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            for n in [0, 1, max] {
                let raw = Slot::leaf(PhysPageNum::new(n, size));
                assert_eq!(Slot::decode(raw), Some(Slot::Leaf(n)));
            }
        }
        for index in [0, 1, max as usize] {
            assert_eq!(Slot::decode(Slot::table(index)), Some(Slot::Table(index)));
        }
        assert_eq!(Slot::decode(0), None);
    }

    #[test]
    #[should_panic(expected = "beyond the 31-bit slot range")]
    fn frame_beyond_the_slot_range_panics() {
        // Bump the allocator past 8 TiB; the next 4 KiB frame's number
        // needs 32 bits.
        let mut phys = PhysMemory::new(16 << 40);
        let mut pt = PageTable::new(&mut phys);
        while phys.allocated() < 8 << 40 {
            phys.alloc(PageSize::Size1G);
        }
        pt.map(VirtPageNum::new(0, PageSize::Size4K), &mut phys);
    }

    /// The page `size`/`x` select: 4 KiB pages cluster in the low 64 of
    /// four 2 MiB regions in two 1 GiB regions, so nodes are shared and
    /// promotes and conflicts happen.
    fn op_page(size: u8, x: u64) -> VirtPageNum {
        let (g, m, p) = (x % 2, (x / 2) % 4, (x / 8) % 64);
        match size % 3 {
            0 => VirtPageNum::new((g * 512 + m) * 512 + p, PageSize::Size4K),
            1 => VirtPageNum::new(g * 512 + m, PageSize::Size2M),
            _ => VirtPageNum::new(g, PageSize::Size1G),
        }
    }

    proptest! {
        /// The flat nodes agree with the ordered-map reference on every
        /// operation's result, on the walk of every page in the window,
        /// on promote's stale list and its order, and on the mapped-page
        /// and node counts.
        #[test]
        fn prop_matches_ordered_map_reference(
            ops in prop::collection::vec((0u8..8, 0u8..3, 0u64..1 << 20), 1..300),
        ) {
            let mut phys = PhysMemory::new(64 << 30);
            let mut ref_phys = PhysMemory::new(64 << 30);
            let mut pt = PageTable::new(&mut phys);
            let mut reference = Reference::new(&mut ref_phys);
            for (op, size, x) in ops {
                let vpn = op_page(size, x);
                let vpn_2m = vpn.base().page_number(PageSize::Size2M);
                match op {
                    0..=2 => {
                        // Weighted towards mapping; skip the overlaps
                        // `map` refuses.
                        if !reference.conflicts(vpn) {
                            prop_assert_eq!(
                                pt.map(vpn, &mut phys),
                                reference.map(vpn, &mut ref_phys)
                            );
                        }
                    }
                    3 => prop_assert_eq!(pt.unmap(vpn), reference.unmap(vpn)),
                    4 => prop_assert_eq!(
                        pt.remap(vpn, &mut phys),
                        reference.remap(vpn, &mut ref_phys)
                    ),
                    5 => prop_assert_eq!(
                        pt.promote(vpn_2m, &mut phys),
                        reference.promote(vpn_2m, &mut ref_phys)
                    ),
                    6 => prop_assert_eq!(
                        pt.demote(vpn_2m, &mut phys),
                        reference.demote(vpn_2m, &mut ref_phys)
                    ),
                    _ => {
                        let va = vpn.base().offset(x % 4096);
                        let walk = reference.walk(va);
                        prop_assert_eq!(pt.lookup(va), walk.mapping);
                        prop_assert_eq!(pt.walk(va), walk);
                    }
                }
                prop_assert_eq!(pt.mapped_pages(), reference.mapped_pages);
                prop_assert_eq!(pt.node_count(), reference.nodes.len());
            }
            for x in 0..512 {
                let va = op_page(0, x).base();
                prop_assert_eq!(pt.walk(va), reference.walk(va));
            }
        }


        /// Every mapped page walks back to the frame map() returned, and
        /// PTE addresses are frame-aligned reads within table nodes.
        #[test]
        fn prop_map_walk_round_trip(pages in prop::collection::vec(0u64..1_000_000, 1..100)) {
            let mut phys = PhysMemory::new(32 << 30);
            let mut pt = PageTable::new(&mut phys);
            let mut expect = std::collections::BTreeMap::new();
            for &p in &pages {
                let vpn = VirtPageNum::new(p, PageSize::Size4K);
                let frame = pt.map(vpn, &mut phys);
                expect.insert(p, frame);
            }
            for (&p, &frame) in &expect {
                let walk = pt.walk(VirtAddr::new(p << 12));
                prop_assert_eq!(pt.lookup(VirtAddr::new(p << 12)), walk.mapping);
                let (vpn, got) = walk.mapping.expect("mapped page must walk");
                prop_assert_eq!(got, frame);
                prop_assert_eq!(vpn.number(), p);
                prop_assert_eq!(walk.pte_addrs.len(), 4);
                for pa in &walk.pte_addrs {
                    prop_assert_eq!(pa.value() % PTE_BYTES, 0);
                }
            }
            prop_assert_eq!(pt.mapped_pages(), expect.len() as u64);
        }
    }
}
