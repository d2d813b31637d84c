//! `unordered-iteration`: hash-ordered collections in deterministic code.

use super::{aliases, RawFinding, Rule};
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Names whose presence marks hash-ordered (iteration-order-unstable)
/// collections. `hash_map`/`hash_set` catch module-path imports such as
/// `std::collections::hash_map::Entry`; `RandomState` catches an explicit
/// nondeterministic hasher handed to an otherwise ordered wrapper.
const HASH_NAMES: &[&str] = &[
    "HashMap",
    "HashSet",
    "hash_map",
    "hash_set",
    "RandomState",
    "FxHashMap",
    "FxHashSet",
    "IndexMap",
    "IndexSet",
];

/// Flags every mention of a hash-ordered collection in a deterministic
/// crate class — spelled directly *or* reached through a local rename.
///
/// The rule enforces the stronger, mechanically checkable invariant the
/// simulator actually wants: *deterministic sim crates do not hold
/// hash-ordered collections at all* (outside test code). A lookup-only
/// `HashMap` is one refactor away from an order-dependent loop, and
/// `BTreeMap`/`BTreeSet` cost nothing at sim scale. Two passes:
///
/// 1. the token pass flags direct spellings (`HashMap`, `FxHashSet`, …);
/// 2. the alias pass asks `aliases` for the import renames
///    (`use … ::HashMap as Map`) and `type` aliases
///    (`type Cache = Map<K, V>`) that *resolve* to a hash-ordered name,
///    and flags every use of those names — struct fields, fn signatures,
///    and locals included. The introducing declaration line is skipped:
///    it already carries a finding for the name it renames.
///
/// Genuinely unreachable-by-iteration uses can carry a justified
/// `nocstar-lint: allow(unordered-iteration)` suppression.
pub struct UnorderedIteration;

impl Rule for UnorderedIteration {
    fn id(&self) -> &'static str {
        "unordered-iteration"
    }

    fn description(&self) -> &'static str {
        "hash-ordered collection (HashMap/HashSet, or an alias resolving to one) in a \
         deterministic sim crate: iteration order varies run to run and silently \
         breaks byte-identical reports"
    }

    fn fix_hint(&self) -> &'static str {
        "use BTreeMap/BTreeSet, or collect and sort explicitly before iterating"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        // Pass 1: direct spellings.
        for t in &file.toks {
            if t.kind == TokKind::Ident && HASH_NAMES.contains(&t.text.as_str()) {
                out.push(RawFinding {
                    line: t.line,
                    message: format!("`{}` is hash-ordered", t.text),
                });
            }
        }
        // Pass 2: names that resolve to a hash-ordered type.
        for (name, decl_line, root) in aliases(&file.toks, HASH_NAMES) {
            for t in &file.toks {
                if t.is_ident(&name) && t.line != decl_line {
                    out.push(RawFinding {
                        line: t.line,
                        message: format!("`{name}` resolves to hash-ordered `{root}`"),
                    });
                }
            }
        }
    }
}
