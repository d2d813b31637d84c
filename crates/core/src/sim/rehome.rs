//! Closed-loop slice re-homing: while a home slice is inside an injected
//! offline window, its set range is served by a deterministic backup
//! slice, and a coherent handoff invalidates the backup's copies when the
//! home comes back.

use super::Simulation;
use crate::config::TlbOrg;
use nocstar_tlb::entry::TlbEntry;
use nocstar_types::time::Cycle;
use nocstar_types::{Asid, CoreId, VirtPageNum};
use std::collections::BTreeSet;

/// The slice that will actually service a lookup, after any re-homing.
#[derive(Debug, Clone, Copy)]
pub(super) struct ResolvedHome {
    pub(super) idx: usize,
    pub(super) tile: CoreId,
    /// The static home before any recovery redirect (equals `idx` unless
    /// `rehomed`).
    pub(super) orig_idx: usize,
    /// The static home was offline and this lookup was redirected to a
    /// backup slice by the recovery policy.
    pub(super) rehomed: bool,
    /// The static home was offline and no redirect applied (open-loop or
    /// disconnected): the translation was served degraded (walk path).
    pub(super) degraded: bool,
}

/// An active re-homing window: a slice's set range served by a backup
/// slice while the home is offline.
#[derive(Debug, Clone)]
pub(super) struct Rehome {
    pub(super) backup_idx: usize,
    /// When the offline home was detected and the redirect installed.
    pub(super) since: Cycle,
    /// Whether a redirected translation has completed yet (the first one
    /// defines this activation's detect→recovered latency).
    pub(super) first_served: bool,
    /// Entries inserted into the backup during the window; invalidated on
    /// home-back so no stale copy outlives the redirect (coherent handoff).
    pub(super) inserted: BTreeSet<(Asid, VirtPageNum)>,
}

impl Simulation {
    /// The slice that will actually service `vpn` for `core` at `self.now`:
    /// the static home, unless re-homing is armed and the home is inside
    /// an injected offline window — then a deterministic backup slice.
    /// Also performs the lazy home-back handoff when a previously offline
    /// home is observed healthy again.
    ///
    /// The result is a pure function of (plan, policy, organization,
    /// cycle, vpn), so identical runs resolve identically.
    pub(super) fn resolve_home(&mut self, vpn: VirtPageNum, core: CoreId) -> ResolvedHome {
        let (home_idx, home_tile) = self.org.home_of(vpn, core);
        let static_home = ResolvedHome {
            idx: home_idx,
            tile: home_tile,
            orig_idx: home_idx,
            rehomed: false,
            degraded: false,
        };
        if !self.recovery.is_enabled() || self.faults.is_empty() || !self.config.org.is_shared() {
            return static_home;
        }
        let now = self.now.value();
        if !self.faults.slice_offline(home_idx, now) {
            self.maybe_home_back(home_idx);
            return static_home;
        }
        if !self.recovery.rehome {
            return ResolvedHome {
                degraded: true,
                ..static_home
            };
        }
        match self.activate_rehome(home_idx) {
            Some(backup_idx) => ResolvedHome {
                idx: backup_idx,
                tile: self.org.tile_of(backup_idx),
                orig_idx: home_idx,
                rehomed: true,
                degraded: false,
            },
            // Every candidate backup is also offline: serve degraded.
            None => ResolvedHome {
                degraded: true,
                ..static_home
            },
        }
    }

    /// The deterministic backup for an offline slice at `now`: the next
    /// healthy slice scanning upward (wrapping), or — for cluster-homed
    /// organizations — the same set-range residue in the next surviving
    /// cluster, so the backup indexes its sets identically to the home.
    fn backup_slice(&self, home_idx: usize, now: u64) -> Option<usize> {
        let count = self.org.count();
        match self.config.org {
            TlbOrg::Hier { cluster_size, .. } => {
                let residue = home_idx % cluster_size;
                let clusters = count / cluster_size;
                let home_cluster = home_idx / cluster_size;
                (1..clusters)
                    .map(|j| ((home_cluster + j) % clusters) * cluster_size + residue)
                    .find(|&c| !self.faults.slice_offline(c, now))
            }
            _ => (1..count)
                .map(|s| (home_idx + s) % count)
                .find(|&c| !self.faults.slice_offline(c, now)),
        }
    }

    /// Opens (or re-validates) the re-homing window for an offline home.
    /// Returns the backup slice index, or `None` when the fault plan has
    /// every candidate offline too.
    fn activate_rehome(&mut self, home_idx: usize) -> Option<usize> {
        let now = self.now.value();
        if let Some(r) = self.rehomed.get(&home_idx) {
            if !self.faults.slice_offline(r.backup_idx, now) {
                return Some(r.backup_idx);
            }
            // Cascading outage reached the backup: close this window
            // (dropping its stale copies) before electing a new backup.
            self.handoff(home_idx);
        }
        let backup_idx = self.backup_slice(home_idx, now)?;
        self.stats.rehome_activations += 1;
        self.rehomed.insert(
            home_idx,
            Rehome {
                backup_idx,
                since: self.now,
                first_served: false,
                inserted: BTreeSet::new(),
            },
        );
        Some(backup_idx)
    }

    /// Closes the re-homing window for `home_idx` if one is open: every
    /// entry the backup absorbed during the window is invalidated there,
    /// so no stale copy outlives the redirect once traffic homes back.
    fn maybe_home_back(&mut self, home_idx: usize) {
        if !self.rehomed.is_empty() && self.rehomed.contains_key(&home_idx) {
            self.stats.rehome_homebacks += 1;
            self.handoff(home_idx);
        }
    }

    /// The coherent-handoff invalidation sweep for one closing window.
    fn handoff(&mut self, home_idx: usize) {
        let Some(rehome) = self.rehomed.remove(&home_idx) else {
            return;
        };
        self.stats
            .rehome_handoff_entries
            .record(rehome.inserted.len() as u64);
        let now = self.now;
        let slice = self.org.structure_mut(rehome.backup_idx);
        if !rehome.inserted.is_empty() {
            slice.schedule_write(now);
        }
        for (asid, vpn) in &rehome.inserted {
            slice.invalidate(*asid, *vpn);
        }
    }

    /// Inserts into the resolved home, remembering redirected entries so
    /// the home-back handoff can invalidate them.
    pub(super) fn insert_resolved(&mut self, home: ResolvedHome, entry: TlbEntry) {
        self.insert_home(home.idx, entry);
        if home.rehomed {
            if let Some(r) = self.rehomed.get_mut(&home.orig_idx) {
                if r.backup_idx == home.idx {
                    r.inserted.insert((entry.asid(), entry.vpn()));
                }
            }
        }
    }
}
