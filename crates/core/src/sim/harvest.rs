//! Per-run statistics and their reduction to the report: the warmup
//! reset, the window harvest, harvest-time metrics and [`SimReport`]
//! assembly.

use super::Simulation;
use crate::config::TlbOrg;
use crate::report::SimReport;
use crate::sampling::WindowSample;
use nocstar_energy::account::EnergyAccount;
use nocstar_noc::NocStats;
use nocstar_stats::concurrency::ConcurrencyBins;
use nocstar_stats::counter::HitMiss;
use nocstar_stats::latency::LatencyRecorder;
use nocstar_stats::metrics::Log2Histogram;

/// What one measurement counts: everything the warmup boundary resets in
/// one assignment. Fault and recovery counters reach the report only as
/// metrics, and only under a fault plan (and a recovery policy).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunStats {
    pub(crate) energy: EnergyAccount,
    pub(crate) translation_latency: LatencyRecorder,
    pub(crate) walks: u64,
    pub(crate) walks_llc_or_mem: u64,
    pub(crate) shootdowns: u64,
    pub(crate) flushes: u64,
    pub(crate) fault_slice_misses: u64,
    pub(crate) fault_walk_spikes: u64,
    pub(crate) fault_storm_relays: u64,
    pub(crate) recovered_translations: u64,
    pub(crate) degraded_translations: u64,
    pub(crate) rehome_activations: u64,
    pub(crate) rehome_homebacks: u64,
    pub(crate) rehome_handoff_entries: Log2Histogram,
    pub(crate) detect_to_recovered: Log2Histogram,
}

impl RunStats {
    /// Folds another measurement into this one. Exact when either side is
    /// empty, so a one-window reduction reproduces that window.
    fn merge(&mut self, other: &RunStats) {
        self.energy.merge(&other.energy);
        self.translation_latency.merge(&other.translation_latency);
        self.walks += other.walks;
        self.walks_llc_or_mem += other.walks_llc_or_mem;
        self.shootdowns += other.shootdowns;
        self.flushes += other.flushes;
        self.fault_slice_misses += other.fault_slice_misses;
        self.fault_walk_spikes += other.fault_walk_spikes;
        self.fault_storm_relays += other.fault_storm_relays;
        self.recovered_translations += other.recovered_translations;
        self.degraded_translations += other.degraded_translations;
        self.rehome_activations += other.rehome_activations;
        self.rehome_homebacks += other.rehome_homebacks;
        self.rehome_handoff_entries
            .merge(&other.rehome_handoff_entries);
        self.detect_to_recovered.merge(&other.detect_to_recovered);
    }
}

impl Simulation {
    /// Captures the measurement that just ended as one window
    /// (`SAMPLING.md §1`, "Harvest"): everything counted since the last
    /// warmup-boundary reset. An exact run harvests once, when its event
    /// loop returns; a sampled run once per detailed leg.
    pub(super) fn harvest_window(&mut self) {
        let durations: Vec<u64> = self
            .threads
            .iter()
            .zip(&self.warm_cross_time)
            .map(|(th, &cross)| (th.finish_time - cross).value())
            .collect();
        let runtime = durations.iter().copied().max().unwrap_or(0);
        let mut l1 = HitMiss::new();
        for l in &self.l1s {
            l1.merge(l.stats());
        }
        let mut slice_concurrency = ConcurrencyBins::new();
        for tr in &self.org.trackers {
            slice_concurrency.merge(tr.bins());
        }
        self.windows.push(WindowSample {
            durations,
            runtime,
            accesses: self.threads.len() as u64 * (self.target - self.warm_target),
            l1,
            l2: self.org.merged_stats(),
            per_structure: self.org.per_structure_stats(),
            stats: self.stats,
            chip_concurrency: *self.org.chip_tracker.bins(),
            slice_concurrency,
            network: self.net.stats().cloned(),
        });
    }

    /// The warmup boundary: forget everything measured so far (contents of
    /// TLBs, caches and page tables are kept, and so are active re-homing
    /// windows — they are state, not statistics).
    pub(super) fn reset_statistics(&mut self) {
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        self.org.reset_stats();
        self.mem.reset_cache_stats();
        self.net.reset_stats();
        self.stats = RunStats::default();
        self.metrics.reset_values();
        self.trace.clear();
    }

    /// Publishes harvest-time observability into the registry: end-of-run
    /// slice occupancy and port-wait distributions, interconnect link and
    /// arbitration totals, and walk histograms. Hot-path counters (per-core
    /// stall breakdowns) are already in place.
    fn harvest_metrics(&mut self, window: u64) {
        if !self.metrics.is_enabled() {
            return;
        }
        for i in 0..self.org.count() {
            let occupancy = self.org.structure(i).array().occupancy() as u64;
            let waits = *self.org.structure(i).queue_wait_histogram();
            let g = self.metrics.gauge(&format!("l2.{i}.occupancy"));
            self.metrics.set_gauge(g, occupancy);
            let h = self.metrics.histogram(&format!("l2.{i}.queue_wait_cycles"));
            self.metrics.merge_histogram(h, &waits);
        }
        // Per-cluster aggregates for hierarchical organizations: slice
        // hit/miss and occupancy rolled up over each cluster's slices, so
        // a 1024-core report stays readable at cluster granularity.
        if let TlbOrg::Hier { cluster_size, .. } = self.config.org {
            let per_slice = self.org.per_structure_stats();
            for k in 0..self.config.cores / cluster_size {
                let slices = k * cluster_size..(k + 1) * cluster_size;
                let (mut hits, mut misses, mut occupancy) = (0u64, 0u64, 0u64);
                for i in slices {
                    hits += per_slice[i].hits();
                    misses += per_slice[i].misses();
                    occupancy += self.org.structure(i).array().occupancy() as u64;
                }
                let c = self.metrics.counter(&format!("cluster.{k}.l2_hits"));
                self.metrics.add(c, hits);
                let c = self.metrics.counter(&format!("cluster.{k}.l2_misses"));
                self.metrics.add(c, misses);
                let g = self.metrics.gauge(&format!("cluster.{k}.occupancy"));
                self.metrics.set_gauge(g, occupancy);
            }
        }
        let walk_latency = *self.mem.walk_latency_histogram();
        let h = self.metrics.histogram("mem.walk_latency_cycles");
        self.metrics.merge_histogram(h, &walk_latency);
        let pwc_hits = *self.mem.pwc_hits_histogram();
        let h = self.metrics.histogram("mem.pwc_hits_per_walk");
        self.metrics.merge_histogram(h, &pwc_hits);
        if let Some(stats) = self.net.stats().cloned() {
            for (name, v) in [
                ("noc.delivered", stats.delivered),
                ("noc.grants", stats.grants),
                ("noc.no_contention", stats.no_contention),
                ("noc.retries", stats.retries),
                ("noc.rotations", stats.rotations),
            ] {
                let c = self.metrics.counter(name);
                self.metrics.add(c, v);
            }
            for (l, &busy) in stats.link_busy.iter().enumerate() {
                let c = self.metrics.counter(&format!("noc.link.{l}.busy_cycles"));
                self.metrics.add(c, busy);
            }
            // The measurement window, so link utilization is recoverable
            // as busy_cycles / window.
            let g = self.metrics.gauge("noc.window_cycles");
            self.metrics.set_gauge(g, window);
        }
        // Fault accounting exists only under a non-empty plan, so
        // fault-free reports (and their goldens) are byte-identical to
        // builds that never heard of fault injection.
        let stats = self.stats;
        if !self.faults.is_empty() {
            for (name, v) in [
                ("faults.slice_offline_lookups", stats.fault_slice_misses),
                ("faults.walk_spikes", stats.fault_walk_spikes),
                ("faults.storm_relays", stats.fault_storm_relays),
            ] {
                let c = self.metrics.counter(name);
                self.metrics.add(c, v);
            }
            if let Some(fs) = self.net.fault_stats().cloned() {
                for (name, v) in [
                    ("faults.denied_setups", fs.denied_setups),
                    ("faults.link_blocked", fs.link_blocked),
                    ("faults.fallbacks", fs.fallbacks),
                    ("faults.degraded_traversals", fs.degraded_traversals),
                    ("faults.backoff_cycles", fs.backoff_cycles),
                ] {
                    let c = self.metrics.counter(name);
                    self.metrics.add(c, v);
                }
                let h = self.metrics.histogram("faults.retries_per_fallback");
                self.metrics.merge_histogram(h, &fs.retries_per_fallback);
            }
        }
        // Recovery accounting exists only when a policy AND a plan are
        // installed, so recovery-off reports (and their goldens) stay
        // byte-identical to builds that never heard of recovery.
        if self.recovery.is_enabled() && !self.faults.is_empty() {
            for (name, v) in [
                (
                    "recovery.translations_recovered",
                    stats.recovered_translations,
                ),
                (
                    "recovery.translations_degraded",
                    stats.degraded_translations,
                ),
                ("recovery.rehome_activations", stats.rehome_activations),
                ("recovery.rehome_homebacks", stats.rehome_homebacks),
            ] {
                let c = self.metrics.counter(name);
                self.metrics.add(c, v);
            }
            let handoff = stats.rehome_handoff_entries;
            let h = self.metrics.histogram("recovery.rehome_handoff_entries");
            self.metrics.merge_histogram(h, &handoff);
            let recovered = stats.detect_to_recovered;
            let h = self
                .metrics
                .histogram("recovery.detect_to_recovered_cycles");
            self.metrics.merge_histogram(h, &recovered);
            for (name, p) in [
                ("recovery.detect_to_recovered_p50", 50.0),
                ("recovery.detect_to_recovered_p99", 99.0),
            ] {
                if let Some(v) = recovered.approx_percentile(p) {
                    let c = self.metrics.counter(name);
                    self.metrics.add(c, v);
                }
            }
            if let Some(rs) = self.net.recovery_stats() {
                for (name, v) in [
                    ("recovery.reroutes", rs.reroutes),
                    ("recovery.detour_extra_hops", rs.detour_extra_hops),
                    ("recovery.reroute_failed", rs.reroute_failed),
                    ("recovery.escalations", rs.escalations),
                    ("recovery.gateway_failovers", rs.gateway_failovers),
                ] {
                    let c = self.metrics.counter(name);
                    self.metrics.add(c, v);
                }
                let h = self.metrics.histogram("recovery.detect_to_reroute_cycles");
                self.metrics.merge_histogram(h, &rs.detect_to_reroute);
                for (name, p) in [
                    ("recovery.detect_to_reroute_p50", 50.0),
                    ("recovery.detect_to_reroute_p99", 99.0),
                ] {
                    if let Some(v) = rs.detect_to_reroute.approx_percentile(p) {
                        let c = self.metrics.counter(name);
                        self.metrics.add(c, v);
                    }
                }
            }
        }
    }

    /// Reduces the harvested windows to the report (`SAMPLING.md §4`):
    /// sums for totals, merges for distributions, end state for occupancy,
    /// metrics and trace. Only sampled runs carry a `sampling` section. An
    /// aborted run reports the windows it harvested.
    pub(super) fn finish(mut self) -> SimReport {
        let last_runtime = self.windows.last().map_or(0, |w| w.runtime);
        self.harvest_metrics(last_runtime);
        // The energy account compares *dynamic* address-translation energy
        // (TLB lookups, interconnect messages, page-walk memory accesses),
        // as in McPAT-style studies. Leakage is excluded: total TLB SRAM is
        // area-normalized across organizations and the interconnect's
        // static power is ~1/4 of the SRAM's (Fig 9), so static terms are
        // nearly org-invariant and, at this simulator's footprint-scaled
        // event counts, would only drown the walk-elimination effect the
        // paper's Fig 14 (right) isolates.
        let mut cycles = 0u64;
        let mut accesses = 0u64;
        let mut per_thread_finish = vec![0u64; self.threads.len()];
        let mut l1 = HitMiss::new();
        let mut l2 = HitMiss::new();
        let mut per_structure: Vec<HitMiss> = Vec::new();
        let mut stats = RunStats::default();
        let mut chip_concurrency = ConcurrencyBins::new();
        let mut slice_concurrency = ConcurrencyBins::new();
        let mut network: Option<NocStats> = None;
        for w in &self.windows {
            cycles += w.runtime;
            accesses += w.accesses;
            for (total, d) in per_thread_finish.iter_mut().zip(&w.durations) {
                *total += d;
            }
            l1.merge(w.l1);
            l2.merge(w.l2);
            if per_structure.len() < w.per_structure.len() {
                per_structure.resize(w.per_structure.len(), HitMiss::new());
            }
            for (total, s) in per_structure.iter_mut().zip(&w.per_structure) {
                total.merge(*s);
            }
            stats.merge(&w.stats);
            chip_concurrency.merge(&w.chip_concurrency);
            slice_concurrency.merge(&w.slice_concurrency);
            if let Some(n) = &w.network {
                match &mut network {
                    Some(total) => total.merge(n),
                    None => network = Some(n.clone()),
                }
            }
        }
        let sampling = self
            .sampling
            .as_ref()
            .map(|s| s.section(&self.windows, self.threads.len()));
        SimReport {
            label: self.label,
            org_label: self.config.org.label().to_string(),
            cores: self.config.cores,
            cycles,
            accesses,
            per_thread_finish,
            l1,
            l2,
            per_structure,
            l2_occupancy: self.org.occupancy(),
            walks: stats.walks,
            walks_llc_or_mem: stats.walks_llc_or_mem,
            shootdowns: stats.shootdowns,
            flushes: stats.flushes,
            chip_concurrency,
            slice_concurrency,
            translation_latency: stats.translation_latency,
            network,
            energy: stats.energy,
            metrics: self.metrics.snapshot(),
            trace: self.trace.records().copied().collect(),
            trace_dropped: self.trace.dropped(),
            sampling,
        }
    }
}
