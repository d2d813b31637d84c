//! [`SyntheticTrace`]: the interpreter for a [`WorkloadSpec`].

use crate::spec::{ColdDistribution, WorkloadSpec};
use crate::trace::{MemAccess, TraceEvent, TraceSource};
use crate::zipf::Zipf;
use nocstar_types::time::Cycles;
use nocstar_types::{Asid, PageSize, ThreadId, VirtAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base virtual address of the shared region's window (per address space).
const SHARED_BASE: u64 = 0x10_0000_0000;
/// Base virtual address of thread 0's private window; each thread gets a
/// 64 GiB window.
const PRIVATE_BASE: u64 = 0x100_0000_0000;
const PRIVATE_STRIDE: u64 = 0x10_0000_0000;
/// Span of the ASLR-style random page offset applied to each region's
/// base (up to 1 GiB). Without it, every thread's region starts at a
/// 64 GiB-aligned address, and identically-strided hot pages from all
/// threads alias into the *same* TLB sets chip-wide — a pathology real
/// systems avoid precisely because mmap randomizes placements.
const ASLR_PAGES: u64 = 0x40_000;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic synthetic trace for one hardware thread.
///
/// See [`WorkloadSpec::trace`] for construction.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    spec: WorkloadSpec,
    asid: Asid,
    thp_enabled: bool,
    shared_base: u64,
    private_base: u64,
    rng: SmallRng,
    shared_hot: Option<Zipf>,
    private_hot: Option<Zipf>,
    shared_cold: Option<Zipf>,
    private_cold: Option<Zipf>,
    /// Sequential-scan cursor for [`ColdDistribution::Strided`] workloads.
    scan_pos: u64,
    backing_salt: u64,
}

impl SyntheticTrace {
    pub(crate) fn new(
        spec: WorkloadSpec,
        asid: Asid,
        thread: ThreadId,
        seed: u64,
        thp_enabled: bool,
    ) -> Self {
        let stream = splitmix64(seed)
            ^ splitmix64(0x5151 ^ u64::from(asid.value()) << 32)
            ^ splitmix64(thread.index() as u64).rotate_left(17);
        let make_cold = |pages: u64| -> Option<Zipf> {
            match spec.cold {
                ColdDistribution::Zipf(s) if pages > 0 => Some(Zipf::new(pages, s)),
                _ => None,
            }
        };
        let make_hot = |hot: u64| -> Option<Zipf> {
            (hot > 0).then(|| Zipf::new(hot, spec.hot_zipf_exponent))
        };
        let private_hot_pages = spec.hot_pages.min(spec.private_pages);
        // ASLR: randomize each region's base by a per-(seed, asid[, thread])
        // page offset. Shared offsets are per-address-space so all threads
        // of an application agree on shared addresses.
        let shared_base = SHARED_BASE
            + (splitmix64(seed ^ 0xa51d ^ (u64::from(asid.value()) << 8)) % ASLR_PAGES) * 4096;
        let private_base = PRIVATE_BASE
            + thread.index() as u64 * PRIVATE_STRIDE
            + (splitmix64(stream ^ 0x915e) % ASLR_PAGES) * 4096;
        Self {
            spec,
            asid,
            thp_enabled,
            shared_base,
            private_base,
            rng: SmallRng::seed_from_u64(stream),
            shared_hot: make_hot(spec.hot_pages),
            private_hot: make_hot(private_hot_pages),
            shared_cold: make_cold(spec.shared_pages),
            private_cold: make_cold(spec.private_pages),
            scan_pos: splitmix64(stream ^ 0x5ca9) % spec.shared_pages.max(1),
            // Backing decisions are per-address-space, not per-thread, so
            // all threads agree on a page's size.
            backing_salt: splitmix64(seed ^ (u64::from(asid.value()) << 17)),
        }
    }

    /// The spec this trace interprets.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Picks a page index within a region: hot-set ranks are Zipf
    /// distributed and scattered across the region with a fixed stride
    /// (rank `r` lives at page `r * stride`), so superpage backing does
    /// not collapse the whole hot set onto a few 2 MiB translations;
    /// cold samples range over the entire region (rarely landing on a hot
    /// page, which is harmless).
    fn pick_page(&mut self, region_pages: u64, hot: Option<Zipf>, cold: Option<Zipf>) -> u64 {
        let go_hot = hot.is_some() && self.rng.gen::<f64>() < self.spec.hot_fraction;
        if go_hot {
            #[expect(clippy::expect_used, reason = "go_hot is only true when hot is Some")]
            let zipf = hot.expect("checked");
            let rank = zipf.sample(&mut self.rng);
            // Odd stride: hot pages must stay coprime with power-of-two
            // slice/bank striping, or they all land on a few home slices.
            let stride = ((region_pages / zipf.n()).max(1)) | 1;
            (rank * stride) % region_pages.max(1)
        } else {
            match (self.spec.cold, cold) {
                (_, Some(zipf)) => zipf.sample(&mut self.rng),
                (ColdDistribution::Strided(step), None) => {
                    self.scan_pos = (self.scan_pos + step) % region_pages.max(1);
                    self.scan_pos
                }
                (_, None) => self.rng.gen_range(0..region_pages),
            }
        }
    }

    fn pick_address(&mut self) -> VirtAddr {
        let shared = self.rng.gen::<f64>() < self.spec.shared_access_fraction
            || self.spec.private_pages == 0;
        let (base, page) = if shared {
            let page = self.pick_page(self.spec.shared_pages, self.shared_hot, self.shared_cold);
            (self.shared_base, page)
        } else {
            let page = self.pick_page(self.spec.private_pages, self.private_hot, self.private_cold);
            (self.private_base, page)
        };
        let offset = u64::from(self.rng.gen::<u16>()) & 0xff8; // 8-byte aligned
        VirtAddr::new(base + page * 4096 + offset)
    }
}

impl TraceSource for SyntheticTrace {
    fn next_event(&mut self) -> TraceEvent {
        if self.spec.remaps_per_million > 0.0
            && self.rng.gen::<f64>() < self.spec.remaps_per_million / 1.0e6
        {
            // Remap a random shared page; the stale translation's page size
            // is whatever backs that address.
            let page = self.rng.gen_range(0..self.spec.shared_pages);
            let va = VirtAddr::new(self.shared_base + page * 4096);
            return TraceEvent::Remap(va.page_number(self.backing(va)));
        }
        let va = self.pick_address();
        let gap_mean = self.spec.mem_op_gap.max(1);
        let gap = self
            .rng
            .gen_range(gap_mean.div_ceil(2)..=gap_mean + gap_mean / 2);
        TraceEvent::Access(MemAccess {
            va,
            is_write: self.rng.gen::<f64>() < self.spec.write_fraction,
            gap: Cycles::new(gap),
        })
    }

    fn backing(&self, va: VirtAddr) -> PageSize {
        if !self.thp_enabled {
            return PageSize::Size4K;
        }
        let frame_2m = va.value() >> 21;
        let h = splitmix64(frame_2m ^ self.backing_salt);
        if ((h % 10_000) as f64) < self.spec.superpage_fraction * 10_000.0 {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        }
    }

    fn asid(&self) -> Asid {
        self.asid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ColdDistribution;
    use std::collections::BTreeSet;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "gen-test",
            shared_pages: 10_000,
            private_pages: 1_000,
            shared_access_fraction: 0.8,
            hot_pages: 128,
            hot_fraction: 0.9,
            hot_zipf_exponent: 1.2,
            cold: ColdDistribution::Uniform,
            superpage_fraction: 0.6,
            mem_op_gap: 8,
            write_fraction: 0.3,
            remaps_per_million: 0.0,
        }
    }

    fn accesses(trace: &mut SyntheticTrace, n: usize) -> Vec<MemAccess> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if let TraceEvent::Access(a) = trace.next_event() {
                out.push(a);
            }
        }
        out
    }

    #[test]
    fn traces_are_deterministic_per_seed_and_thread() {
        let s = spec();
        let mut a = s.trace(Asid::new(1), ThreadId::new(0), 7, true);
        let mut b = s.trace(Asid::new(1), ThreadId::new(0), 7, true);
        for _ in 0..200 {
            assert_eq!(a.next_event(), b.next_event());
        }
        let mut c = s.trace(Asid::new(1), ThreadId::new(1), 7, true);
        let same = (0..200)
            .filter(|_| a.next_event() == c.next_event())
            .count();
        assert!(same < 50, "different threads should diverge");
    }

    #[test]
    fn hot_set_dominates_accesses_and_is_scattered() {
        let s = spec();
        let mut t = s.trace(Asid::new(1), ThreadId::new(0), 1, false);
        let stride = (s.shared_pages / s.hot_pages) | 1; // 79
        let base = t.shared_base;
        let sample = accesses(&mut t, 5_000);
        let mut hot_pages_seen = std::collections::BTreeSet::new();
        let mut shared_hot = 0usize;
        for a in &sample {
            if a.va.value() >= base && a.va.value() < PRIVATE_BASE {
                let page = (a.va.value() - base) >> 12;
                if page.is_multiple_of(stride) && page / stride < s.hot_pages {
                    shared_hot += 1;
                    hot_pages_seen.insert(page);
                }
            }
        }
        // ~80% shared x ~90% hot = ~72% expected (cold samples can also
        // land on hot pages, nudging it up slightly).
        let frac = shared_hot as f64 / 5_000.0;
        assert!((0.62..0.84).contains(&frac), "hot fraction {frac}");
        // The hot set spans many distinct scattered pages, and those pages
        // cover many distinct 2 MiB frames (no superpage collapse).
        assert!(
            hot_pages_seen.len() > 32,
            "{} hot pages",
            hot_pages_seen.len()
        );
        let frames: std::collections::BTreeSet<u64> =
            hot_pages_seen.iter().map(|p| (p * 4096) >> 21).collect();
        assert!(frames.len() > 16, "{} hot 2MiB frames", frames.len());
    }

    #[test]
    fn private_addresses_are_disjoint_across_threads() {
        let s = spec();
        let mut pages0 = BTreeSet::new();
        let mut pages1 = BTreeSet::new();
        let mut t0 = s.trace(Asid::new(1), ThreadId::new(0), 3, false);
        let mut t1 = s.trace(Asid::new(1), ThreadId::new(1), 3, false);
        for a in accesses(&mut t0, 2_000) {
            if a.va.value() >= PRIVATE_BASE {
                pages0.insert(a.va.value() >> 12);
            }
        }
        for a in accesses(&mut t1, 2_000) {
            if a.va.value() >= PRIVATE_BASE {
                pages1.insert(a.va.value() >> 12);
            }
        }
        assert!(!pages0.is_empty() && !pages1.is_empty());
        assert!(pages0.is_disjoint(&pages1));
    }

    #[test]
    fn backing_is_stable_and_respects_thp_flag() {
        let s = spec();
        let t = s.trace(Asid::new(1), ThreadId::new(0), 5, true);
        let va = VirtAddr::new(SHARED_BASE + 123 * 4096);
        let first = t.backing(va);
        assert_eq!(t.backing(va), first);
        let no_thp = s.trace(Asid::new(1), ThreadId::new(0), 5, false);
        assert_eq!(no_thp.backing(va), PageSize::Size4K);
    }

    #[test]
    fn superpage_fraction_roughly_matches_spec() {
        let s = spec();
        let t = s.trace(Asid::new(1), ThreadId::new(0), 5, true);
        let total = 4_000u64;
        let mut big = 0u64;
        for r in 0..total {
            let va = VirtAddr::new(SHARED_BASE + r * (2 << 20));
            if t.backing(va) == PageSize::Size2M {
                big += 1;
            }
        }
        let frac = big as f64 / total as f64;
        assert!((frac - 0.6).abs() < 0.05, "superpage fraction {frac}");
    }

    #[test]
    fn threads_agree_on_backing() {
        let s = spec();
        let t0 = s.trace(Asid::new(1), ThreadId::new(0), 5, true);
        let t1 = s.trace(Asid::new(1), ThreadId::new(1), 5, true);
        for r in 0..500u64 {
            let va = VirtAddr::new(SHARED_BASE + r * (2 << 20) + 0x123);
            assert_eq!(t0.backing(va), t1.backing(va));
        }
    }

    #[test]
    fn strided_cold_scans_sequentially() {
        let mut s = spec();
        s.cold = ColdDistribution::Strided(1);
        s.hot_fraction = 0.0; // all accesses are cold
        s.shared_access_fraction = 1.0;
        s.private_pages = 0;
        let mut t = s.trace(Asid::new(1), ThreadId::new(0), 4, false);
        let base = t.shared_base;
        let pages: Vec<u64> = accesses(&mut t, 50)
            .iter()
            .map(|a| (a.va.value() - base) >> 12)
            .collect();
        // Consecutive accesses touch consecutive pages (mod region size).
        for w in pages.windows(2) {
            assert_eq!((w[0] + 1) % s.shared_pages, w[1]);
        }
    }

    #[test]
    fn remap_events_appear_at_the_configured_rate() {
        let mut s = spec();
        s.remaps_per_million = 50_000.0; // 5% for test speed
        let mut t = s.trace(Asid::new(1), ThreadId::new(0), 9, true);
        let mut remaps = 0;
        for _ in 0..10_000 {
            if matches!(t.next_event(), TraceEvent::Remap(_)) {
                remaps += 1;
            }
        }
        assert!((300..700).contains(&remaps), "remaps = {remaps}");
    }

    #[test]
    fn gaps_center_on_the_spec_mean() {
        let s = spec();
        let mut t = s.trace(Asid::new(1), ThreadId::new(0), 2, false);
        let sample = accesses(&mut t, 3_000);
        let mean: f64 =
            sample.iter().map(|a| a.gap.value() as f64).sum::<f64>() / sample.len() as f64;
        assert!((mean - 8.0).abs() < 1.0, "gap mean {mean}");
        assert!(sample.iter().all(|a| a.gap.value() >= 4));
    }
}
