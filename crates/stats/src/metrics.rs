//! The metrics registry: named counters, gauges and log2 histograms with
//! cheap interned handles, harvested into deterministic snapshots.
//!
//! Simulator components register metrics once at construction and then
//! update them through copyable integer handles ([`CounterId`],
//! [`GaugeId`], [`HistogramId`]) — no string lookups or allocation on the
//! hot path. A disabled registry ([`MetricsRegistry::disabled`]) allocates
//! nothing and turns every update into a branch on one bool, so the
//! default (metrics off) costs effectively zero.
//!
//! [`MetricsRegistry::snapshot`] freezes the current values into a
//! [`MetricsSnapshot`] sorted by metric name, giving byte-identical JSON
//! for identical runs. Snapshots [`merge`](MetricsSnapshot::merge)
//! associatively and commutatively: counters and histograms add, gauges
//! take the maximum.

use std::collections::BTreeMap;
use std::fmt;

/// Number of buckets in a [`Log2Histogram`]: one for zero plus one per
/// power of two up to `2^63`.
pub const LOG2_BUCKETS: usize = 65;

/// An allocation-free power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `0` counts zero-valued samples; bucket `k` (for `k >= 1`)
/// counts samples in `[2^(k-1), 2^k)`. The bucket array is a fixed-size
/// inline array, so recording is a couple of arithmetic ops and one
/// indexed increment.
///
/// # Examples
///
/// ```
/// use nocstar_stats::metrics::Log2Histogram;
/// let mut h = Log2Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5); // bucket [4, 8)
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.buckets()[0], 1);
/// assert_eq!(h.buckets()[1], 1);
/// assert_eq!(h.buckets()[3], 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value falls into.
    #[inline]
    pub const fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by a bucket (`hi` is
    /// `u64::MAX` for the last bucket, whose true bound overflows).
    pub const fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub const fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` if empty.
    pub const fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Mean sample value, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// An approximate `p`-th percentile (`p` in `[0, 100]`), or `None` if
    /// empty. Walks the buckets to the one holding the rank-`ceil(p/100 ·
    /// count)` sample and reports that bucket's lower bound, clamped to
    /// the exact recorded min/max — so p0 is exactly `min()`, p100 is at
    /// most `max()`, and the answer is always a value the bucketing
    /// cannot place above the true percentile by more than one power of
    /// two. Deterministic: a pure fold over the bucket counts.
    pub fn approx_percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the percentile sample, 1-based (nearest-rank method).
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, _) = Self::bucket_range(bucket);
                return Some(lo.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one (bucketwise addition).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named metrics with interned handles.
///
/// Registration happens once, at component construction; updates go
/// through the returned ids. When built with
/// [`MetricsRegistry::disabled`], registration returns dummy handles and
/// every update is a single predictable branch.
///
/// # Examples
///
/// ```
/// use nocstar_stats::metrics::MetricsRegistry;
/// let mut reg = MetricsRegistry::enabled();
/// let hits = reg.counter("tlb.slice0.hits");
/// reg.add(hits, 3);
/// reg.add(hits, 1);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("tlb.slice0.hits"), Some(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    /// Counter name -> index into `counters`, assigned in registration
    /// order (likewise for gauges and histograms).
    counter_ids: BTreeMap<String, usize>,
    counters: Vec<u64>,
    gauge_ids: BTreeMap<String, usize>,
    gauges: Vec<u64>,
    histogram_ids: BTreeMap<String, usize>,
    histograms: Vec<Log2Histogram>,
}

/// The id of `name` in `ids`; a new name gets the next id and `push`
/// appends its value slot.
fn intern(ids: &mut BTreeMap<String, usize>, name: &str, push: impl FnOnce()) -> usize {
    if let Some(&id) = ids.get(name) {
        return id;
    }
    let id = ids.len();
    ids.insert(name.to_owned(), id);
    push();
    id
}

impl MetricsRegistry {
    /// A live registry that stores every update.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A no-op registry: registration hands out dummy ids, updates do
    /// nothing, snapshots are empty. Allocates nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether updates are being recorded.
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or re-resolves) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if !self.enabled {
            return CounterId(0);
        }
        CounterId(intern(&mut self.counter_ids, name, || {
            self.counters.push(0)
        }))
    }

    /// Registers `n` counters named `name(0)`, …, `name(n - 1)`, in that
    /// order. A disabled registry hands out `n` dummy ids without building
    /// any name.
    pub fn counters(&mut self, n: usize, name: impl Fn(usize) -> String) -> Vec<CounterId> {
        if !self.enabled {
            return vec![CounterId(0); n];
        }
        (0..n).map(|i| self.counter(&name(i))).collect()
    }

    /// Registers (or re-resolves) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if !self.enabled {
            return GaugeId(0);
        }
        GaugeId(intern(&mut self.gauge_ids, name, || self.gauges.push(0)))
    }

    /// Registers (or re-resolves) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if !self.enabled {
            return HistogramId(0);
        }
        HistogramId(intern(&mut self.histogram_ids, name, || {
            self.histograms.push(Log2Histogram::new())
        }))
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0] += n;
        }
    }

    /// Sets a gauge to its current level.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: u64) {
        if self.enabled {
            self.gauges[id.0] = value;
        }
    }

    /// Folds an externally accumulated histogram into a registered one.
    /// Components that keep their own [`Log2Histogram`] on the hot path
    /// use this to publish it at harvest time.
    pub fn merge_histogram(&mut self, id: HistogramId, other: &Log2Histogram) {
        if self.enabled {
            self.histograms[id.0].merge(other);
        }
    }

    /// Clears all values (names and handles stay valid). Used at the
    /// warmup/measurement boundary.
    pub fn reset_values(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.gauges.iter_mut().for_each(|g| *g = 0);
        self.histograms
            .iter_mut()
            .for_each(|h| *h = Log2Histogram::new());
    }

    /// Freezes the current values, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples: Vec<MetricSample> =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (name, &id) in &self.counter_ids {
            samples.push(MetricSample {
                name: name.clone(),
                value: MetricValue::Counter(self.counters[id]),
            });
        }
        for (name, &id) in &self.gauge_ids {
            samples.push(MetricSample {
                name: name.clone(),
                value: MetricValue::Gauge(self.gauges[id]),
            });
        }
        for (name, &id) in &self.histogram_ids {
            samples.push(MetricSample {
                name: name.clone(),
                value: MetricValue::Histogram(self.histograms[id]),
            });
        }
        // Each kind is already in name order; a stable sort merges them
        // and keeps a name shared across kinds in counter, gauge,
        // histogram order.
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }
}

/// A frozen metric value.
// Histogram inlines its 65 buckets; boxing it would cost `Copy` and an
// allocation per snapshot entry for a cold, snapshot-only type.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-set (or high-water) level.
    Gauge(u64),
    /// Distribution of samples.
    Histogram(Log2Histogram),
}

/// One named, frozen metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Dotted metric path, e.g. `noc.link3.busy_cycles`.
    pub name: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A sorted, immutable set of metric samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// All samples, sorted by name.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Looks up a sample by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Folds `other` into this snapshot. Shared names combine per kind —
    /// counters and histograms add, gauges take the max — and names unique
    /// to either side are kept. The operation is associative and
    /// commutative, so per-shard snapshots can fold in any order.
    ///
    /// # Panics
    ///
    /// Panics if the same name holds different metric kinds.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for sample in &other.samples {
            match self
                .samples
                .binary_search_by(|s| s.name.as_str().cmp(&sample.name))
            {
                Ok(i) => {
                    let mine = &mut self.samples[i].value;
                    match (mine, &sample.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        _ => panic!("metric {:?} merged across kinds", sample.name),
                    }
                }
                Err(i) => self.samples.insert(i, sample.clone()),
            }
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for sample in &self.samples {
            match &sample.value {
                MetricValue::Counter(v) => writeln!(f, "{} = {v}", sample.name)?,
                MetricValue::Gauge(v) => writeln!(f, "{} = {v} (gauge)", sample.name)?,
                MetricValue::Histogram(h) => writeln!(
                    f,
                    "{} = n={} sum={} min={:?} max={:?}",
                    sample.name,
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_edges_are_exact() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for bucket in 0..LOG2_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_range(bucket);
            assert_eq!(Log2Histogram::bucket_of(lo), bucket);
            assert!(lo < hi || bucket == 0);
        }
    }

    #[test]
    fn disabled_registry_is_inert_and_unallocated() {
        let mut reg = MetricsRegistry::disabled();
        let c = reg.counter("a");
        let g = reg.gauge("b");
        let h = reg.histogram("c");
        reg.add(c, 10);
        reg.set_gauge(g, 5);
        let mut sample = Log2Histogram::new();
        sample.record(7);
        reg.merge_histogram(h, &sample);
        assert!(reg.snapshot().is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        let mut reg = MetricsRegistry::enabled();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.add(a, 1);
        reg.add(b, 1);
        assert_eq!(reg.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn ids_follow_registration_order_and_snapshots_follow_names() {
        let mut reg = MetricsRegistry::enabled();
        let cores = reg.counters(3, |c| format!("core.{c}.stall"));
        let z = reg.counter("z");
        let a = reg.counter("a");
        assert_eq!(
            [cores[0].0, cores[1].0, cores[2].0, z.0, a.0],
            [0, 1, 2, 3, 4]
        );
        assert_eq!(reg.counter("core.1.stall"), cores[1]);
        let shared = reg.gauge("a");
        assert_eq!(shared.0, 0);
        for (i, id) in [a, z, cores[2], cores[0], cores[1]].into_iter().enumerate() {
            reg.add(id, i as u64 + 1);
        }
        reg.set_gauge(shared, 9);
        let snap = reg.snapshot();
        let samples: Vec<(&str, MetricValue)> = snap
            .samples()
            .iter()
            .map(|s| (s.name.as_str(), s.value))
            .collect();
        assert_eq!(
            samples,
            [
                ("a", MetricValue::Counter(1)),
                ("a", MetricValue::Gauge(9)),
                ("core.0.stall", MetricValue::Counter(4)),
                ("core.1.stall", MetricValue::Counter(5)),
                ("core.2.stall", MetricValue::Counter(3)),
                ("z", MetricValue::Counter(2)),
            ]
        );
        let mut off = MetricsRegistry::disabled();
        let dummies = off.counters(4, |_| unreachable!("no names when disabled"));
        assert_eq!(dummies, vec![CounterId(0); 4]);
    }

    #[test]
    fn snapshots_are_sorted_and_queryable() {
        let mut reg = MetricsRegistry::enabled();
        let z = reg.counter("z.last");
        let a = reg.gauge("a.first");
        let m = reg.histogram("m.mid");
        reg.add(z, 4);
        reg.set_gauge(a, 9);
        let mut sample = Log2Histogram::new();
        sample.record(100);
        reg.merge_histogram(m, &sample);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.samples().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
        assert_eq!(snap.gauge("a.first"), Some(9));
        assert_eq!(snap.counter("z.last"), Some(4));
        assert_eq!(snap.histogram("m.mid").unwrap().count(), 1);
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn reset_clears_values_but_keeps_handles() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("c");
        reg.add(c, 7);
        reg.reset_values();
        assert_eq!(reg.snapshot().counter("c"), Some(0));
        reg.add(c, 1);
        assert_eq!(reg.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn approx_percentiles_walk_buckets_and_clamp_to_extremes() {
        assert_eq!(Log2Histogram::new().approx_percentile(50.0), None);
        let mut h = Log2Histogram::new();
        for v in [3u64, 5, 9, 17, 33, 1000] {
            h.record(v);
        }
        // p0 is exactly the min; p100 never exceeds the max.
        assert_eq!(h.approx_percentile(0.0), Some(3));
        assert_eq!(h.approx_percentile(100.0), Some(512)); // bucket floor of 1000
                                                           // The median's rank-3 sample (9) lives in bucket [8, 16).
        assert_eq!(h.approx_percentile(50.0), Some(8));
        // A single-sample histogram answers that sample at every p.
        let mut one = Log2Histogram::new();
        one.record(42);
        assert_eq!(one.approx_percentile(0.0), Some(42));
        assert_eq!(one.approx_percentile(99.0), Some(42));
    }

    fn snap(counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::enabled();
        for (name, v) in counters {
            let id = reg.counter(name);
            reg.add(id, *v);
        }
        for (name, v) in gauges {
            let id = reg.gauge(name);
            reg.set_gauge(id, *v);
        }
        reg.snapshot()
    }

    #[test]
    fn merge_combines_by_kind_and_keeps_unique_names() {
        let mut a = snap(&[("c", 1), ("only_a", 5)], &[("g", 3)]);
        let b = snap(&[("c", 2)], &[("g", 7), ("only_b", 1)]);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.counter("only_a"), Some(5));
        assert_eq!(a.gauge("g"), Some(7));
        assert_eq!(a.gauge("only_b"), Some(1));
    }

    #[test]
    #[should_panic(expected = "merged across kinds")]
    fn merge_rejects_kind_conflicts() {
        let mut a = snap(&[("x", 1)], &[]);
        let b = snap(&[], &[("x", 1)]);
        a.merge(&b);
    }

    proptest! {
        /// Histogram bucket totals always equal the observation count.
        #[test]
        fn prop_bucket_totals_match_count(values in prop::collection::vec(0u64..=u64::MAX, 0..200)) {
            let mut h = Log2Histogram::new();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.buckets().iter().sum::<u64>(), values.len() as u64);
            prop_assert_eq!(h.count(), values.len() as u64);
            if let (Some(min), Some(max)) = (h.min(), h.max()) {
                prop_assert_eq!(min, *values.iter().min().unwrap());
                prop_assert_eq!(max, *values.iter().max().unwrap());
            } else {
                prop_assert!(values.is_empty());
            }
        }

        /// Every sample lands in the bucket whose range contains it.
        #[test]
        fn prop_samples_land_in_their_range(v in 0u64..=u64::MAX) {
            let bucket = Log2Histogram::bucket_of(v);
            let (lo, hi) = Log2Histogram::bucket_range(bucket);
            prop_assert!(v >= lo);
            // The last bucket's upper bound saturates at u64::MAX (inclusive).
            prop_assert!(v < hi || bucket == 64);
        }

        /// Histogram merge is commutative and preserves totals.
        #[test]
        fn prop_histogram_merge_commutes(
            xs in prop::collection::vec(0u64..1_000_000, 0..50),
            ys in prop::collection::vec(0u64..1_000_000, 0..50),
        ) {
            let mut hx = Log2Histogram::new();
            xs.iter().for_each(|&v| hx.record(v));
            let mut hy = Log2Histogram::new();
            ys.iter().for_each(|&v| hy.record(v));

            let mut xy = hx;
            xy.merge(&hy);
            let mut yx = hy;
            yx.merge(&hx);
            prop_assert_eq!(xy, yx);
            prop_assert_eq!(xy.count(), (xs.len() + ys.len()) as u64);
        }

        /// Snapshot merge is associative and commutative.
        #[test]
        fn prop_snapshot_merge_assoc_comm(
            a in 0u64..1000, b in 0u64..1000, c in 0u64..1000,
            ga in 0u64..1000, gb in 0u64..1000, gc in 0u64..1000,
        ) {
            let sa = snap(&[("n", a)], &[("g", ga)]);
            let sb = snap(&[("n", b)], &[("g", gb)]);
            let sc = snap(&[("n", c)], &[("g", gc)]);

            // (a + b) + c
            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);
            // a + (b + c)
            let mut right_inner = sb.clone();
            right_inner.merge(&sc);
            let mut right = sa.clone();
            right.merge(&right_inner);
            prop_assert_eq!(&left, &right);

            // b + a == a + b
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            prop_assert_eq!(&ab, &ba);

            prop_assert_eq!(left.counter("n"), Some(a + b + c));
            prop_assert_eq!(left.gauge("g"), Some(ga.max(gb).max(gc)));
        }

        /// Counter snapshots are monotone: more events never lowers a value.
        #[test]
        fn prop_counter_snapshots_monotone(incs in prop::collection::vec(0u64..100, 1..30)) {
            let mut reg = MetricsRegistry::enabled();
            let id = reg.counter("events");
            let mut last = 0;
            for n in incs {
                reg.add(id, n);
                let now = reg.snapshot().counter("events").unwrap();
                prop_assert!(now >= last);
                last = now;
            }
        }
    }
}
