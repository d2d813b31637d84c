//! Never-panic properties of every text grammar the simulator accepts
//! from outside: `FaultPlan::parse` (`--faults`), `RecoveryPolicy::parse`
//! (`--recovery`), `SampleSpec::from_str` (`--sample`) and `Json::parse`.
//! Each must answer any input with `Ok` or `Err`. Two kinds of input are
//! fed to all four:
//!
//! * arbitrary byte strings, read as UTF-8 with replacement characters;
//! * strings spliced from each grammar's own clauses, filled in with
//!   boundary numbers, and stray tokens, which reach the number, window,
//!   threshold and nesting paths that random bytes almost never do.
//!
//! An accepted fault plan is also validated against a small and an empty
//! system, and an accepted sample spec asked for its offset and window
//! count, since every accepted spec goes through those. Clippy's
//! `unwrap_used` cannot see an index or arithmetic panic; these
//! properties can. `prop_grammars_never_panic_nightly` is the 2,048-case
//! run (`scripts/ci.sh --nightly`).

use nocstar::prelude::*;
use nocstar::workloads::sample::SampleSpec;
use nocstar_json::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

type Tokens = &'static [&'static str];

/// Numbers at every boundary the grammars convert through: `u32` for
/// retry counts and escalation thresholds, `u64` for cycles and seeds.
const NUMBERS: Tokens = &[
    "0",
    "1",
    "3",
    "64",
    "4294967295",
    "4294967296",
    "18446744073709551615",
];

/// Numbers no grammar accepts, drawn one time in six.
const MALFORMED: Tokens = &["18446744073709551616", "-1", "1e3", "0.5", " 7 "];

/// A grammar's clauses, `#` standing for a number, and the stray tokens
/// spliced between them.
type Grammar = (Tokens, Tokens);

const FAULT: Grammar = (
    &[
        "seed=#;",
        "retry=#;",
        "retry=inf;",
        "deny@#-#;",
        "storm@#-#;",
        "walk@#-#=x#;",
        "link:#@#-#=off;",
        "link:*@#-#=+#;",
        "slice:#@#-#;",
        "cluster:#/#@#-#;",
    ],
    &[";", "@", "-", "=", ":", "/", "*", "x", "+", "off"],
);
const RECOVERY: Grammar = (
    &["reroute;", "rehome;", "failover;", "all;", "escalate=#;"],
    &[";", "=", " ", "escalate"],
);
const SAMPLE: Grammar = (&["#:#:#", "#:#:#@#"], &[":", "@", " "]);
const JSON: Grammar = (
    &["#", "[#,#]", "{\"k\":#}", "\"\\u00e9#\"", "true", "null"],
    &[
        "[", "]", "{", "}", ",", ":", "\"", "\\", "\\ud800", "-", ".", "e",
    ],
);

/// Up to four pieces, each a clause of the grammar with its numbers
/// filled in or, one time in eight, a stray token.
struct Spliced(Grammar);

fn pick(rng: &mut TestRng, from: Tokens) -> &'static str {
    from[rng.below(from.len())]
}

impl Strategy for Spliced {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let (clauses, strays) = self.0;
        let mut out = String::new();
        for _ in 0..rng.below(5) {
            if rng.below(8) == 0 {
                out.push_str(pick(rng, strays));
                continue;
            }
            for part in pick(rng, clauses).split_inclusive('#') {
                match part.strip_suffix('#') {
                    Some(text) => {
                        let numbers = if rng.below(6) == 0 {
                            MALFORMED
                        } else {
                            NUMBERS
                        };
                        out.extend([text, pick(rng, numbers)]);
                    }
                    None => out.push_str(part),
                }
            }
        }
        out
    }
}

fn arbitrary_text() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..96)
}

/// Feeds each text to every grammar; a panic fails the calling property.
fn parse_everything(texts: [&str; 5]) {
    for text in texts {
        if let Ok(plan) = FaultPlan::parse(text) {
            let _ = plan.validate(64, 16);
            let _ = plan.validate(0, 0);
        }
        let _ = RecoveryPolicy::parse(text);
        if let Ok(spec) = text.parse::<SampleSpec>() {
            let _ = (spec.offset(), spec.windows(u64::MAX), spec.windows(0));
        }
        let _ = Json::parse(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary and grammar-spliced text ends in `Ok` or `Err`.
    #[test]
    fn prop_grammars_never_panic(
        bytes in arbitrary_text(),
        fault in Spliced(FAULT),
        recovery in Spliced(RECOVERY),
        sample in Spliced(SAMPLE),
        json in Spliced(JSON),
    ) {
        parse_everything([&String::from_utf8_lossy(&bytes), &fault, &recovery, &sample, &json]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    #[ignore = "nightly: 2,048 cases (ci.sh --nightly)"]
    fn prop_grammars_never_panic_nightly(
        bytes in arbitrary_text(),
        fault in Spliced(FAULT),
        recovery in Spliced(RECOVERY),
        sample in Spliced(SAMPLE),
        json in Spliced(JSON),
    ) {
        parse_everything([&String::from_utf8_lossy(&bytes), &fault, &recovery, &sample, &json]);
    }
}

/// The spliced strings are not vacuous: over the tier-1 case count, each
/// grammar accepts some of its own spliced inputs and rejects others, so
/// both the `Ok` and the `Err` paths are exercised.
#[test]
fn spliced_inputs_reach_both_outcomes() {
    type Accepts = fn(&str) -> bool;
    let grammars: [(Grammar, Accepts); 4] = [
        (FAULT, |s| FaultPlan::parse(s).is_ok()),
        (RECOVERY, |s| RecoveryPolicy::parse(s).is_ok()),
        (SAMPLE, |s| s.parse::<SampleSpec>().is_ok()),
        (JSON, |s| Json::parse(s).is_ok()),
    ];
    let mut rng = TestRng::deterministic("spliced_inputs_reach_both_outcomes");
    for (grammar, accepts) in grammars {
        let accepted = (0..256)
            .filter(|_| accepts(&Spliced(grammar).sample(&mut rng)))
            .count();
        assert!(
            accepted > 0 && accepted < 256,
            "{:?}: {accepted} of 256 spliced inputs accepted",
            grammar.0
        );
    }
}
