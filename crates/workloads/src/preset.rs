//! The paper's 11 evaluation workloads as synthetic presets.
//!
//! The parameters encode each workload's TLB-relevant character as the
//! paper describes it: `canneal`, `gups` and `xsbench` have notably poor
//! locality (large cold footprints, weak or absent skew); the CloudSuite
//! services (`nutch`, `olio`, `redis`, `mongodb`, `data caching`) are
//! Zipf-skewed with heavy superpage coverage; `graph500`/`graph analytics`
//! are power-law with large footprints and high sharing. Footprints are
//! sized relative to aggregate shared-L2-TLB capacity so shared-TLB miss
//! elimination grows with core count as in Fig 2.

use crate::spec::{ColdDistribution, WorkloadSpec};
use std::fmt;

/// One of the paper's 11 workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Preset {
    Graph500,
    Canneal,
    Xsbench,
    DataCaching,
    SwTesting,
    GraphAnalytics,
    Nutch,
    Olio,
    Redis,
    MongoDb,
    Gups,
}

impl Preset {
    /// All presets, in the paper's figure order.
    pub const ALL: [Preset; 11] = [
        Preset::Graph500,
        Preset::Canneal,
        Preset::Xsbench,
        Preset::DataCaching,
        Preset::SwTesting,
        Preset::GraphAnalytics,
        Preset::Nutch,
        Preset::Olio,
        Preset::Redis,
        Preset::MongoDb,
        Preset::Gups,
    ];

    /// The synthetic spec modelling this workload.
    pub fn spec(self) -> WorkloadSpec {
        use ColdDistribution::{Uniform, Zipf};
        match self {
            Preset::Graph500 => WorkloadSpec {
                name: "graph500",
                shared_pages: 39000,
                private_pages: 700,
                shared_access_fraction: 0.85,
                hot_pages: 512,
                hot_fraction: 0.90,
                hot_zipf_exponent: 1.20,
                cold: Zipf(0.7),
                superpage_fraction: 0.60,
                mem_op_gap: 4,
                write_fraction: 0.25,
                remaps_per_million: 30.0,
            },
            Preset::Canneal => WorkloadSpec {
                name: "canneal",
                shared_pages: 40000,
                private_pages: 900,
                shared_access_fraction: 0.80,
                hot_pages: 640,
                hot_fraction: 0.88,
                hot_zipf_exponent: 1.10,
                cold: Uniform,
                superpage_fraction: 0.50,
                mem_op_gap: 5,
                write_fraction: 0.30,
                remaps_per_million: 20.0,
            },
            Preset::Xsbench => WorkloadSpec {
                name: "xsbench",
                shared_pages: 39000,
                private_pages: 600,
                shared_access_fraction: 0.90,
                hot_pages: 512,
                hot_fraction: 0.88,
                hot_zipf_exponent: 1.10,
                cold: Uniform,
                superpage_fraction: 0.55,
                mem_op_gap: 4,
                write_fraction: 0.10,
                remaps_per_million: 10.0,
            },
            Preset::DataCaching => WorkloadSpec {
                name: "data caching",
                shared_pages: 30000,
                private_pages: 700,
                shared_access_fraction: 0.70,
                hot_pages: 512,
                hot_fraction: 0.90,
                hot_zipf_exponent: 1.25,
                cold: Zipf(0.9),
                superpage_fraction: 0.60,
                mem_op_gap: 6,
                write_fraction: 0.35,
                remaps_per_million: 40.0,
            },
            Preset::SwTesting => WorkloadSpec {
                name: "sw testing",
                shared_pages: 30000,
                private_pages: 600,
                shared_access_fraction: 0.70,
                hot_pages: 448,
                hot_fraction: 0.91,
                hot_zipf_exponent: 1.25,
                cold: Uniform,
                superpage_fraction: 0.65,
                mem_op_gap: 5,
                write_fraction: 0.30,
                remaps_per_million: 50.0,
            },
            Preset::GraphAnalytics => WorkloadSpec {
                name: "graph analytics",
                shared_pages: 37000,
                private_pages: 700,
                shared_access_fraction: 0.85,
                hot_pages: 576,
                hot_fraction: 0.89,
                hot_zipf_exponent: 1.15,
                cold: Zipf(0.75),
                superpage_fraction: 0.60,
                mem_op_gap: 4,
                write_fraction: 0.20,
                remaps_per_million: 25.0,
            },
            Preset::Nutch => WorkloadSpec {
                name: "nutch",
                shared_pages: 36000,
                private_pages: 600,
                shared_access_fraction: 0.60,
                hot_pages: 512,
                hot_fraction: 0.90,
                hot_zipf_exponent: 1.25,
                cold: Zipf(1.0),
                superpage_fraction: 0.70,
                mem_op_gap: 7,
                write_fraction: 0.25,
                remaps_per_million: 35.0,
            },
            Preset::Olio => WorkloadSpec {
                name: "olio",
                shared_pages: 33000,
                private_pages: 600,
                shared_access_fraction: 0.60,
                hot_pages: 448,
                hot_fraction: 0.91,
                hot_zipf_exponent: 1.30,
                cold: Zipf(0.95),
                superpage_fraction: 0.70,
                mem_op_gap: 6,
                write_fraction: 0.30,
                remaps_per_million: 40.0,
            },
            Preset::Redis => WorkloadSpec {
                name: "redis",
                shared_pages: 48000,
                private_pages: 600,
                shared_access_fraction: 0.65,
                hot_pages: 512,
                hot_fraction: 0.90,
                hot_zipf_exponent: 1.20,
                cold: Zipf(0.9),
                superpage_fraction: 0.75,
                mem_op_gap: 5,
                write_fraction: 0.40,
                remaps_per_million: 45.0,
            },
            Preset::MongoDb => WorkloadSpec {
                name: "mongodb",
                shared_pages: 43000,
                private_pages: 600,
                shared_access_fraction: 0.60,
                hot_pages: 512,
                hot_fraction: 0.89,
                hot_zipf_exponent: 1.20,
                cold: Zipf(0.85),
                superpage_fraction: 0.70,
                mem_op_gap: 5,
                write_fraction: 0.35,
                remaps_per_million: 40.0,
            },
            Preset::Gups => WorkloadSpec {
                name: "gups",
                shared_pages: 48000,
                private_pages: 400,
                shared_access_fraction: 0.95,
                hot_pages: 768,
                hot_fraction: 0.85,
                hot_zipf_exponent: 1.05,
                cold: Uniform,
                superpage_fraction: 0.50,
                mem_op_gap: 3,
                write_fraction: 0.50,
                remaps_per_million: 10.0,
            },
        }
    }

    /// The paper's label for this workload.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Looks a preset up by its paper label (the inverse of
    /// [`name`](Self::name)) — how the `nocstar-trace` and bench CLIs
    /// resolve `--preset` flags.
    ///
    /// ```
    /// use nocstar_workloads::preset::Preset;
    /// assert_eq!(Preset::from_name("redis"), Some(Preset::Redis));
    /// assert_eq!(Preset::from_name("data caching"), Some(Preset::DataCaching));
    /// assert_eq!(Preset::from_name("fortnite"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn there_are_eleven_presets_with_unique_names() {
        assert_eq!(Preset::ALL.len(), 11);
        let names: BTreeSet<&str> = Preset::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn every_preset_spec_is_valid() {
        for p in Preset::ALL {
            p.spec().validate();
        }
    }

    #[test]
    fn superpage_coverage_is_in_the_papers_band() {
        // "Linux was able to allocate 50-80% of each workload's memory
        // footprint with superpages."
        for p in Preset::ALL {
            let f = p.spec().superpage_fraction;
            assert!((0.5..=0.8).contains(&f), "{p}: {f}");
        }
    }

    #[test]
    fn poor_locality_workloads_have_the_biggest_cold_footprints() {
        // canneal, gups, xsbench are the paper's poor-locality examples.
        let poor: u64 = [Preset::Canneal, Preset::Gups, Preset::Xsbench]
            .iter()
            .map(|p| p.spec().shared_pages)
            .min()
            .unwrap();
        let services: u64 = [Preset::Nutch, Preset::Olio, Preset::SwTesting]
            .iter()
            .map(|p| p.spec().shared_pages)
            .max()
            .unwrap();
        assert!(poor > services);
    }

    #[test]
    fn hot_sets_fit_an_l2_but_not_an_l1() {
        for p in Preset::ALL {
            let hot = p.spec().hot_pages;
            assert!(hot > 64, "{p}: hot set should overflow the L1 TLB");
            assert!(hot < 1024, "{p}: hot set should fit a private L2 TLB");
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Preset::DataCaching.to_string(), "data caching");
        assert_eq!(Preset::Gups.to_string(), "gups");
    }

    #[test]
    fn from_name_inverts_name_for_every_preset() {
        for p in Preset::ALL {
            assert_eq!(Preset::from_name(p.name()), Some(p));
        }
        assert_eq!(Preset::from_name("no such workload"), None);
    }
}
