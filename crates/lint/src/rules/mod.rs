//! The rule registry.
//!
//! Each rule is an independent visitor over a [`SourceFile`]'s token
//! stream with an id, a human description, and a fix hint. The driver
//! consults the [`Policy`](crate::policy::Policy) for the file's class to
//! decide whether the rule runs and at what severity; rules themselves
//! are policy-agnostic and only *find* patterns. Rules that must see
//! through local renames share one token helper, `aliases`.

mod entropy_rng;
mod event_time;
mod float_accumulation;
mod sim_unwrap;
mod unordered;
mod wall_clock;

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

pub use entropy_rng::EntropyRng;
pub use event_time::EventTimeRegression;
pub use float_accumulation::FloatAccumulation;
pub use sim_unwrap::SimUnwrap;
pub use unordered::UnorderedIteration;
pub use wall_clock::WallClock;

/// A raw match a rule emitted, before policy/suppression filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// What was matched, specifically.
    pub message: String,
}

/// A determinism/invariant rule.
pub trait Rule {
    /// Stable kebab-case id, as used in the policy and in suppressions.
    fn id(&self) -> &'static str;
    /// One-line description of what the rule protects.
    fn description(&self) -> &'static str;
    /// How to fix a finding.
    fn fix_hint(&self) -> &'static str;
    /// Whether `#[cfg(test)]` / `#[test]` regions are exempt. Most rules
    /// exempt them (tests may panic and use hash maps freely); entropy
    /// rules do not (a nondeterministic test is still a flaky test).
    fn exempts_test_code(&self) -> bool {
        true
    }
    /// Scans one file, pushing matches into `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>);
}

/// All shipped rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UnorderedIteration),
        Box::new(WallClock),
        Box::new(EntropyRng),
        Box::new(SimUnwrap),
        Box::new(EventTimeRegression),
        Box::new(FloatAccumulation),
    ]
}

/// Ids of all shipped rules plus the always-on meta rule.
pub fn rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry().iter().map(|r| r.id()).collect();
    ids.push(INVALID_SUPPRESSION);
    ids
}

/// Id of the meta rule that rejects malformed suppression comments. It is
/// not part of the registry: it cannot be configured down or suppressed —
/// a suppression without a justification must always fail the build.
pub const INVALID_SUPPRESSION: &str = "invalid-suppression";

/// The names a file introduces for any of `roots`, as `(name,
/// declaration line, root)`. Two forms are followed, repeated to a
/// fixpoint so chains resolve:
///
/// * `use … TARGET as NAME` — only inside `use` statements; elsewhere
///   `x as f64 as u32` is a cast, not an alias;
/// * `type NAME = TARGET…` — TARGET is the `type_name` of the
///   right-hand side (`Map` in `Map<u64, u64>`).
///
/// A name counts when its TARGET is a root or an already-resolved name.
/// Resolution is per file: an alias exported from another file is
/// invisible.
pub(crate) fn aliases(toks: &[Tok], roots: &[&str]) -> Vec<(String, u32, String)> {
    // Every (name, target, line) edge the file declares.
    let mut edges = Vec::new();
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        let name = toks
            .get(i + 1)
            .filter(|n| n.kind == TokKind::Ident && n.text != "_");
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(';') {
            in_use = false;
        } else if t.is_ident("as") && in_use && i > 0 {
            if let Some(name) = name {
                edges.push((&name.text, toks[i - 1].text.as_str(), t.line));
            }
        } else if t.is_ident("type") {
            if let (Some(name), Some(target)) = (name, alias_target(toks, i + 2)) {
                edges.push((&name.text, target, t.line));
            }
        }
    }
    let mut out: Vec<(String, u32, String)> = Vec::new();
    loop {
        let found = out.len();
        for &(name, target, line) in &edges {
            if roots.contains(&name.as_str()) || out.iter().any(|(n, ..)| n == name) {
                continue;
            }
            let root = match roots.iter().find(|r| **r == target) {
                Some(r) => Some(r.to_string()),
                None => out
                    .iter()
                    .find(|(n, ..)| n == target)
                    .map(|(.., r)| r.clone()),
            };
            if let Some(root) = root {
                out.push((name.clone(), line, root));
            }
        }
        if out.len() == found {
            return out;
        }
    }
}

/// The `type_name` after a `type NAME<…> =` (`at` is just past NAME),
/// or `None` for a bodiless associated type.
fn alias_target(toks: &[Tok], mut at: usize) -> Option<&str> {
    let mut angle = 0i32;
    loop {
        match toks.get(at)?.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('=') if angle == 0 => return type_name(toks, at + 1),
            TokKind::Punct(';' | '{') => return None,
            _ => {}
        }
        at += 1;
    }
}

/// The name of the type spelled at `at`: the last segment of its leading
/// path, past any `&`, lifetime or `mut` (`HashMap` in
/// `&'a mut std::collections::HashMap<K, V>`). Arrays, slices and tuples
/// have no name.
pub(crate) fn type_name(toks: &[Tok], at: usize) -> Option<&str> {
    let mut last = None;
    for t in toks.get(at..)? {
        match t.kind {
            TokKind::Ident => last = Some(t.text.as_str()),
            TokKind::Punct(':') => {}
            TokKind::Punct('&') | TokKind::Lifetime if last.is_none() => {}
            _ => break,
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(src: &str, roots: &[&str]) -> Vec<(String, u32, String)> {
        aliases(&lex(src).toks, roots)
    }

    fn alias(name: &str, line: u32, root: &str) -> (String, u32, String) {
        (name.to_string(), line, root.to_string())
    }

    #[test]
    fn a_rename_chain_resolves_to_its_root() {
        let src = "use std::collections::HashMap as Map;\n\
                   type Cache = Map<u64, u64>;\n\
                   type Deep = Cache;";
        assert_eq!(
            names(src, &["HashMap"]),
            vec![
                alias("Map", 1, "HashMap"),
                alias("Cache", 2, "HashMap"),
                alias("Deep", 3, "HashMap"),
            ]
        );
    }

    #[test]
    fn grouped_renames_and_full_paths_resolve() {
        let src = "use std::collections::{hash_map::Entry, HashSet as Seen};\n\
                   type Homes = std::collections::HashMap<u64, usize>;";
        assert_eq!(
            names(src, &["HashMap", "HashSet"]),
            vec![alias("Seen", 1, "HashSet"), alias("Homes", 2, "HashMap")]
        );
    }

    #[test]
    fn ordered_maps_are_not_aliases_of_hash_maps() {
        let src = "use std::collections::BTreeMap as Map;\ntype Cache = Map<u64, u64>;";
        assert!(names(src, &["HashMap"]).is_empty());
    }

    #[test]
    fn casts_outside_use_statements_are_not_renames() {
        let src = "fn f(x: u8) -> u32 { let y = x as f64 as u32; y }";
        assert!(names(src, &["f32", "f64"]).is_empty());
    }

    #[test]
    fn float_type_aliases_resolve() {
        let src = "type Score = f64;\ntype Weight<'a> = &'a f32;\ntype Out;";
        assert_eq!(
            names(src, &["f32", "f64"]),
            vec![alias("Score", 1, "f64"), alias("Weight", 2, "f32")]
        );
    }

    #[test]
    fn cycles_and_underscore_imports_terminate_unresolved() {
        let src = "type A = B;\ntype B = A;\nuse std::collections::HashMap as _;";
        assert!(names(src, &["HashMap"]).is_empty());
    }

    #[test]
    fn type_names_skip_references_and_paths() {
        let toks = lex("&'a mut std::collections::HashMap<K, V>; [f64; 4]").toks;
        assert_eq!(type_name(&toks, 0), Some("HashMap"));
        let slice = toks.iter().position(|t| t.is_punct('[')).unwrap();
        assert_eq!(type_name(&toks, slice), None);
    }
}
