//! Mapping workloads onto hardware threads.

use crate::config::SystemConfig;
use nocstar_types::{Asid, ThreadId};
use nocstar_workloads::file_trace::NctReader;
use nocstar_workloads::microbench::{SliceHammerTrace, StormTrace};
use nocstar_workloads::multiprog::Mix;
use nocstar_workloads::nct::NctError;
use nocstar_workloads::preset::Preset;
use nocstar_workloads::spec::WorkloadSpec;
use nocstar_workloads::trace::TraceSource;
use std::path::Path;

/// One trace per hardware thread (index = core * smt + context).
pub struct WorkloadAssignment {
    traces: Vec<Box<dyn TraceSource>>,
    label: String,
}

impl WorkloadAssignment {
    /// A multi-threaded run of one workload: every hardware thread runs a
    /// thread of the same application in one shared address space.
    pub fn homogeneous(config: &SystemConfig, spec: WorkloadSpec) -> Self {
        let traces = (0..config.threads())
            .map(|t| {
                Box::new(spec.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp))
                    as Box<dyn TraceSource>
            })
            .collect();
        Self {
            traces,
            label: spec.name.to_string(),
        }
    }

    /// A preset workload (see [`homogeneous`](Self::homogeneous)).
    pub fn preset(config: &SystemConfig, preset: Preset) -> Self {
        Self::homogeneous(config, preset.spec())
    }

    /// A multiprogrammed mix: four applications, each in its own address
    /// space, with [`Mix::THREADS_PER_APP`] threads apiece, laid out
    /// app-major over the chip's hardware threads.
    ///
    /// # Panics
    ///
    /// Panics unless the chip has exactly `4 x THREADS_PER_APP` hardware
    /// threads (the paper's 32-core setup).
    pub fn mix(config: &SystemConfig, mix: Mix) -> Self {
        let needed = 4 * Mix::THREADS_PER_APP;
        assert_eq!(
            config.threads(),
            needed,
            "mixes need exactly {needed} hardware threads"
        );
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(needed);
        for (app_index, preset) in mix.apps.iter().enumerate() {
            let spec = preset.spec();
            for t in 0..Mix::THREADS_PER_APP {
                traces.push(Box::new(spec.trace(
                    Asid::new(app_index as u16 + 1),
                    ThreadId::new(t),
                    config.seed,
                    config.thp,
                )));
            }
        }
        Self {
            traces,
            label: mix.to_string(),
        }
    }

    /// The TLB-storm stress (Fig 19): every thread runs the workload under
    /// aggressive context switching and superpage promote/demote churn.
    pub fn storm(
        config: &SystemConfig,
        preset: Preset,
        ctx_switch_interval: u64,
        churn_interval: u64,
    ) -> Self {
        let spec = preset.spec();
        let traces = (0..config.threads())
            .map(|t| {
                let inner = spec.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp);
                Box::new(StormTrace::new(inner, ctx_switch_interval, churn_interval))
                    as Box<dyn TraceSource>
            })
            .collect();
        Self {
            traces,
            label: format!("{}+storm", spec.name),
        }
    }

    /// The slice-congestion stress (§V): threads on cores `0..N-1` hammer
    /// the victim slice on core `N-1`; the victim core runs the preset.
    pub fn slice_hammer(config: &SystemConfig, victim_preset: Preset, pages: u64) -> Self {
        let cores = config.cores;
        let victim_slice = cores - 1;
        let spec = victim_preset.spec();
        let traces = (0..config.threads())
            .map(|t| {
                let core = t / config.smt;
                if core == victim_slice {
                    Box::new(spec.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp))
                        as Box<dyn TraceSource>
                } else {
                    Box::new(SliceHammerTrace::new(
                        Asid::new(2),
                        ThreadId::new(t),
                        victim_slice,
                        cores,
                        pages,
                        config.seed,
                    )) as Box<dyn TraceSource>
                }
            })
            .collect();
        Self {
            traces,
            label: format!("{}+slice-hammer", spec.name),
        }
    }

    /// Replays a captured NCT trace file (see `TRACE_FORMAT.md`): every
    /// hardware thread streams its own copy of one of the file's thread
    /// streams, with bounded memory per thread.
    ///
    /// Hardware thread `t` replays file stream `t % file_threads`, so a
    /// file captured for exactly `config.threads()` threads replays
    /// one-to-one — with matching seed, organization and THP setting the
    /// resulting `SimReport` is byte-identical to the generator-driven
    /// run it captured (policed by `tests/trace_replay.rs`) — while a
    /// smaller capture (e.g. a single-thread trace) still drives any
    /// chip size by reuse. The report label is the label stored in the
    /// file header.
    ///
    /// The file is opened once and each stream section the run uses is
    /// validated once, however many hardware threads replay it (see
    /// [`NctReader`]).
    ///
    /// # Errors
    ///
    /// Any [`NctError`] from opening or validating the file; every
    /// used stream's section is fully validated (checksums included)
    /// before the simulation starts.
    pub fn from_trace_file(
        config: &SystemConfig,
        path: impl AsRef<Path>,
    ) -> Result<Self, NctError> {
        let reader = NctReader::open(path)?;
        let label = reader.header().label.clone();
        let file_threads = usize::from(reader.header().thread_count);
        let streams: Vec<u16> = (0..config.threads())
            .map(|t| (t % file_threads) as u16)
            .collect();
        let traces = reader
            .streams(&streams)?
            .into_iter()
            .map(|ft| Box::new(ft) as Box<dyn TraceSource>)
            .collect();
        Ok(Self { traces, label })
    }

    /// A caller-assembled assignment (one trace per hardware thread).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn custom(traces: Vec<Box<dyn TraceSource>>, label: impl Into<String>) -> Self {
        assert!(!traces.is_empty(), "assignment needs at least one thread");
        Self {
            traces,
            label: label.into(),
        }
    }

    /// Number of hardware threads covered.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no threads are assigned (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    pub(crate) fn into_traces(self) -> Vec<Box<dyn TraceSource>> {
        self.traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TlbOrg;

    #[test]
    fn homogeneous_covers_all_threads_in_one_asid() {
        let cfg = SystemConfig::new(8, TlbOrg::paper_private());
        let wa = WorkloadAssignment::preset(&cfg, Preset::Redis);
        assert_eq!(wa.len(), 8);
        assert_eq!(wa.label(), "redis");
        for t in wa.into_traces() {
            assert_eq!(t.asid(), Asid::new(1));
        }
    }

    #[test]
    fn smt_multiplies_thread_count() {
        let mut cfg = SystemConfig::new(8, TlbOrg::paper_private());
        cfg.smt = 2;
        let wa = WorkloadAssignment::preset(&cfg, Preset::Gups);
        assert_eq!(wa.len(), 16);
    }

    #[test]
    fn mixes_use_four_address_spaces() {
        let cfg = SystemConfig::new(32, TlbOrg::paper_nocstar());
        let mix = nocstar_workloads::multiprog::all_mixes()[0];
        let wa = WorkloadAssignment::mix(&cfg, mix);
        assert_eq!(wa.len(), 32);
        let asids: std::collections::HashSet<u16> =
            wa.into_traces().iter().map(|t| t.asid().value()).collect();
        assert_eq!(asids.len(), 4);
    }

    #[test]
    #[should_panic(expected = "exactly 32")]
    fn mixes_demand_32_threads() {
        let cfg = SystemConfig::new(16, TlbOrg::paper_nocstar());
        let mix = nocstar_workloads::multiprog::all_mixes()[0];
        let _ = WorkloadAssignment::mix(&cfg, mix);
    }

    #[test]
    fn slice_hammer_isolates_the_victim() {
        let cfg = SystemConfig::new(8, TlbOrg::paper_nocstar());
        let wa = WorkloadAssignment::slice_hammer(&cfg, Preset::Canneal, 64);
        let traces = wa.into_traces();
        assert_eq!(traces[7].asid(), Asid::new(1)); // victim runs canneal
        for t in &traces[..7] {
            assert_eq!(t.asid(), Asid::new(2));
        }
    }

    #[test]
    fn custom_assignments_carry_their_label() {
        let cfg = SystemConfig::new(2, TlbOrg::paper_private());
        let spec = Preset::Olio.spec();
        let traces: Vec<Box<dyn TraceSource>> = (0..2)
            .map(|t| {
                Box::new(spec.trace(Asid::new(9), ThreadId::new(t), 1, false))
                    as Box<dyn TraceSource>
            })
            .collect();
        let wa = WorkloadAssignment::custom(traces, "bespoke");
        assert_eq!(wa.label(), "bespoke");
        assert_eq!(wa.len(), cfg.threads());
        assert!(!wa.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_custom_assignment_rejected() {
        let _ = WorkloadAssignment::custom(Vec::new(), "empty");
    }

    fn temp_nct(name: &str, threads: u16, events_per_thread: usize) -> std::path::PathBuf {
        use nocstar_workloads::nct::NctFile;
        use nocstar_workloads::recorded::RecordedTrace;
        let spec = Preset::Redis.spec();
        let traces: Vec<RecordedTrace> = (0..threads)
            .map(|t| {
                let mut src = spec.trace(Asid::new(1), ThreadId::new(usize::from(t)), 7, true);
                RecordedTrace::capture(&mut src, events_per_thread)
            })
            .collect();
        let file = NctFile::from_recorded(&traces, "redis").unwrap();
        let path =
            std::env::temp_dir().join(format!("nocstar_assignment_{}_{name}", std::process::id()));
        file.save(&path).unwrap();
        path
    }

    #[test]
    fn trace_file_assignment_takes_label_and_threads_from_the_file() {
        let path = temp_nct("label.nct", 2, 50);
        let cfg = SystemConfig::new(4, TlbOrg::paper_nocstar());
        let wa = WorkloadAssignment::from_trace_file(&cfg, &path).unwrap();
        assert_eq!(wa.label(), "redis");
        assert_eq!(wa.len(), 4); // 4 hw threads reuse the 2 file streams
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn trace_file_assignment_replays_each_stream_like_file_trace() {
        use nocstar_workloads::file_trace::FileTrace;
        // Three streams, one of more than one block, over seven hardware
        // threads: threads 0, 3 and 6 share stream 0.
        let spec = Preset::Gups.spec();
        let traces: Vec<_> = [5000, 40, 1]
            .iter()
            .enumerate()
            .map(|(t, &n)| {
                let mut src = spec.trace(Asid::new(1), ThreadId::new(t), 3, true);
                nocstar_workloads::recorded::RecordedTrace::capture(&mut src, n)
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "nocstar_assignment_{}_streams.nct",
            std::process::id()
        ));
        nocstar_workloads::nct::NctFile::from_recorded(&traces, "gups")
            .unwrap()
            .save(&path)
            .unwrap();
        let cfg = SystemConfig::new(7, TlbOrg::paper_nocstar());
        let replays = WorkloadAssignment::from_trace_file(&cfg, &path)
            .unwrap()
            .into_traces();
        assert_eq!(replays.len(), 7);
        for (t, mut replay) in replays.into_iter().enumerate() {
            let mut want = FileTrace::open(&path, (t % 3) as u16).unwrap();
            // Past the end of the longest stream, so every stream wraps.
            for i in 0..10_050 {
                let event = replay.next_event();
                assert_eq!(event, want.next_event(), "thread {t}, event {i}");
                if let nocstar_workloads::trace::TraceEvent::Access(a) = event {
                    assert_eq!(replay.backing(a.va), want.backing(a.va));
                }
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn trace_file_assignment_surfaces_structured_errors() {
        let cfg = SystemConfig::new(2, TlbOrg::paper_private());
        let err = match WorkloadAssignment::from_trace_file(&cfg, "/no/such/file.nct") {
            Ok(_) => panic!("opening a missing file should fail"),
            Err(e) => e,
        };
        assert!(matches!(err, nocstar_workloads::nct::NctError::Io(_)));
    }

    #[test]
    fn storm_label_mentions_the_storm() {
        let cfg = SystemConfig::new(4, TlbOrg::paper_nocstar());
        let wa = WorkloadAssignment::storm(&cfg, Preset::Gups, 1000, 2000);
        assert!(wa.label().contains("storm"));
        assert_eq!(wa.len(), 4);
    }
}
