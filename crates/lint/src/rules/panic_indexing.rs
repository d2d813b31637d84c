//! `panic-indexing`: bracket indexing on sim hot paths.

use super::{RawFinding, Rule};
use crate::lexer::TokKind;
use crate::parser::is_keyword;
use crate::source::SourceFile;

/// Flags `expr[index]` slice/array/map indexing in sim crates.
///
/// `v[i]` panics on an out-of-range index, and a panic mid-simulation
/// loses the run and every statistic it gathered so far. The deliberate
/// spellings are `get`/`get_mut` with explicit handling, or an indexing
/// site audited and annotated with a justified
/// `allow(panic-indexing)` stating why the bound holds.
///
/// An index expression is a `[` directly preceded by a value — an
/// identifier (non-keyword) or a closing `)`/`]`. Everything else a `[`
/// can follow (attributes `#[…]`, array types `: [u8; 4]`, slice
/// patterns `let [a, b] = …`, `vec![…]`, array literals) is preceded by
/// punctuation or a keyword and never matches. The full-range borrow
/// `&v[..]` cannot panic and is skipped.
///
/// This rule ships at `warn` in the sim class: the existing tree carries
/// hundreds of audited fixed-geometry indexing sites (set/way arrays,
/// mesh coordinates), and the gate's job is to make *new* ones visible in
/// review, not to force a mass rewrite. The warn→error migration is
/// tracked in ROADMAP.
pub struct PanicIndexing;

impl Rule for PanicIndexing {
    fn id(&self) -> &'static str {
        "panic-indexing"
    }

    fn description(&self) -> &'static str {
        "slice/array indexing (`v[i]`) on a sim path: panics on an out-of-range \
         index and aborts the run at a nondeterministic point under parallel drivers"
    }

    fn fix_hint(&self) -> &'static str {
        "use .get()/.get_mut() and handle None, or justify the bound with \
         an allow(panic-indexing) suppression"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_punct('[') || i == 0 {
                continue;
            }
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !is_keyword(&prev.text),
                TokKind::Punct(')' | ']') => true,
                _ => false,
            };
            if !indexes {
                continue;
            }
            // `[..]` full-range borrow: cannot panic.
            if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(']'))
            {
                continue;
            }
            let what = if prev.kind == TokKind::Ident {
                format!("`{}[…]`", prev.text)
            } else {
                "`(…)[…]`".to_string()
            };
            out.push(RawFinding {
                line: t.line,
                message: format!("{what} indexes without a bounds check"),
            });
        }
    }
}
