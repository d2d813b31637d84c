//! Multiprogrammed workload mixes (paper Fig 18).
//!
//! The paper builds every 4-combination of its 11 workloads — C(11,4) =
//! 330 mixes — and runs each on a 32-core system with 8 threads per
//! application, each application in its own address space.

use crate::preset::Preset;
use std::fmt;

/// One multiprogrammed mix: four distinct applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mix {
    /// The four applications, in preset order.
    pub apps: [Preset; 4],
}

impl Mix {
    /// Threads each application runs (8, so 4 apps fill 32 cores).
    pub const THREADS_PER_APP: usize = 8;
}

impl fmt::Display for Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}+{}+{}+{}",
            self.apps[0], self.apps[1], self.apps[2], self.apps[3]
        )
    }
}

/// All C(11,4) = 330 mixes, in lexicographic preset order.
///
/// # Examples
///
/// ```
/// use nocstar_workloads::multiprog::all_mixes;
/// assert_eq!(all_mixes().len(), 330);
/// ```
pub fn all_mixes() -> Vec<Mix> {
    let presets = Preset::ALL;
    let n = presets.len();
    let mut mixes = Vec::with_capacity(330);
    for a in 0..n {
        for b in a + 1..n {
            for c in b + 1..n {
                for d in c + 1..n {
                    mixes.push(Mix {
                        apps: [presets[a], presets[b], presets[c], presets[d]],
                    });
                }
            }
        }
    }
    mixes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn there_are_exactly_330_mixes() {
        assert_eq!(all_mixes().len(), 330);
    }

    #[test]
    fn mixes_are_distinct_and_apps_within_a_mix_are_distinct() {
        let mixes = all_mixes();
        let unique: BTreeSet<[Preset; 4]> = mixes.iter().map(|m| m.apps).collect();
        assert_eq!(unique.len(), 330);
        for mix in &mixes {
            let apps: BTreeSet<_> = mix.apps.iter().collect();
            assert_eq!(apps.len(), 4, "{mix}");
        }
    }

    #[test]
    fn four_apps_of_eight_threads_fill_a_32_core_chip() {
        assert_eq!(4 * Mix::THREADS_PER_APP, 32);
    }

    #[test]
    fn display_joins_names() {
        let mix = all_mixes()[0];
        assert_eq!(mix.to_string(), "graph500+canneal+xsbench+data caching");
    }
}
