//! `float-accumulation`: order-sensitive float reduction in sim code.

use super::{aliases, type_name, RawFinding, Rule};
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Iterator reduction methods whose result depends on operand order when
/// the element type is a float.
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// Flags float reductions whose result depends on evaluation order.
///
/// Float addition is not associative: `(a + b) + c != a + (b + c)` in
/// general, so a `.sum::<f64>()` over elements whose order ever changes
/// (a refactor from `Vec` to a re-sorted source, a parallel split) is a
/// silent report-diff. A *float marker* is an `f32`/`f64` identifier, a
/// name the file aliases to one (`type Score = f64`, found by
/// `aliases`), a float literal, or a float-suffixed number. The rule
/// flags:
///
/// * `.sum()` / `.product()` / `.fold(…)` calls whose float-ness is
///   visible — a float marker in a `::<…>` turbofish, in `fold`'s seed
///   argument, or anywhere earlier in the same statement (an enclosing
///   `let`'s declared type included);
/// * `+=` / `-=` inside a `for` loop body on a local whose latest `let`
///   or parameter in the enclosing fn declares a float type (`f32`,
///   `f64` or a float alias, behind any `&`/`mut`) — the hand-rolled
///   spelling of the same reduction.
///
/// Integer reductions are exact and never flagged. Fixed-order float
/// reduction that is genuinely wanted (a final display-only average)
/// carries a justified `allow(float-accumulation)`.
pub struct FloatAccumulation;

impl Rule for FloatAccumulation {
    fn id(&self) -> &'static str {
        "float-accumulation"
    }

    fn description(&self) -> &'static str {
        "order-sensitive float reduction (sum/product/fold or loop +=) in a \
         deterministic sim crate: float addition is non-associative, so reordering \
         elements changes the report"
    }

    fn fix_hint(&self) -> &'static str {
        "accumulate in integers (ns, counts) and convert once at the edge, or \
         sort the operands and document the fixed reduction order"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let scan = Scan {
            toks: &file.toks,
            float_names: aliases(&file.toks, &["f32", "f64"])
                .into_iter()
                .map(|(name, ..)| name)
                .collect(),
        };
        scan.reductions(out);
        scan.loop_accumulators(out);
    }
}

/// One file's tokens plus the local names that denote a float type.
struct Scan<'a> {
    toks: &'a [Tok],
    float_names: Vec<String>,
}

/// What an open `{` belongs to.
enum Block {
    /// A fn body; holds the enclosing fn's binding base, restored on close.
    Fn(usize),
    /// A `for` loop body.
    Loop,
    Other,
}

/// A `fn` or `for` head waiting for its body's `{`, with the bracket
/// nesting it was seen at.
enum Head {
    Fn(usize),
    Loop(usize),
}

impl<'a> Scan<'a> {
    /// `.sum()` / `.product()` / `.fold(…)` with a visible float marker.
    fn reductions(&self, out: &mut Vec<RawFinding>) {
        let toks = self.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !REDUCERS.contains(&t.text.as_str()) {
                continue;
            }
            if i == 0 || !toks[i - 1].is_punct('.') {
                continue;
            }
            // `.sum::<f64>()` turbofish, or a plain `(` call.
            let open = if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
            {
                let close = angle_end(toks, i + 4);
                if self.has_float(i + 4, close) {
                    out.push(found(t, "turbofish names a float type"));
                    continue;
                }
                close + 1
            } else {
                i + 1
            };
            if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if t.text == "fold" && self.has_float(open + 1, seed_arg_end(toks, open + 1)) {
                out.push(found(t, "fold seed is a float"));
            } else if self.has_float(stmt_start(toks, i), i) {
                out.push(found(t, "the reduced expression involves floats"));
            }
        }
    }

    /// `x += …` / `x -= …` inside a `for` body, where `x` is bound to a
    /// float in the enclosing fn. One pass: a block stack tells fn and
    /// loop bodies apart, and each fn's bindings are dropped on its close.
    fn loop_accumulators(&self, out: &mut Vec<RawFinding>) {
        let toks = self.toks;
        // `(name, float)` per binding seen in the open fns, latest last.
        let mut bindings: Vec<(&str, bool)> = Vec::new();
        let mut fn_base = 0;
        // The parameters of a fn whose head is still being read.
        let mut params = Vec::new();
        let mut blocks = Vec::new();
        let mut head = None;
        let mut loops = 0usize;
        let mut nest = 0usize;
        let mut impl_head = false;
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokKind::Punct('(' | '[') => nest += 1,
                TokKind::Punct(')' | ']') => nest = nest.saturating_sub(1),
                TokKind::Punct(';') => {
                    impl_head = false;
                    if matches!(head, Some(Head::Fn(n) | Head::Loop(n)) if n == nest) {
                        head = None; // a bodiless fn declaration, not a body
                    }
                }
                TokKind::Punct('{') => {
                    impl_head = false;
                    blocks.push(match head.take() {
                        Some(Head::Fn(n)) if n == nest => {
                            let outer = fn_base;
                            fn_base = bindings.len();
                            bindings.append(&mut params);
                            Block::Fn(outer)
                        }
                        Some(Head::Loop(n)) if n == nest => {
                            loops += 1;
                            Block::Loop
                        }
                        pending => {
                            head = pending;
                            Block::Other
                        }
                    });
                }
                TokKind::Punct('}') => match blocks.pop() {
                    Some(Block::Fn(outer)) => {
                        bindings.truncate(fn_base);
                        fn_base = outer;
                    }
                    Some(Block::Loop) => loops -= 1,
                    _ => {}
                },
                TokKind::Ident => match t.text.as_str() {
                    "impl" => impl_head = true,
                    "fn" if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) => {
                        params.clear();
                        head = Some(Head::Fn(nest));
                    }
                    "for" if !impl_head && !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) => {
                        head = Some(Head::Loop(nest));
                    }
                    "let" => bindings.extend(self.let_binding(i)),
                    name if matches!(head, Some(Head::Fn(n)) if nest == n + 1)
                        && is_typed(toks, i) =>
                    {
                        params.push((name, self.float_type(i + 2)));
                    }
                    name if loops > 0 && is_compound_assign(toks, i) => {
                        let float = bindings[fn_base..]
                            .iter()
                            .rev()
                            .find(|(n, _)| *n == name)
                            .is_some_and(|&(_, float)| float);
                        if float {
                            out.push(RawFinding {
                                line: t.line,
                                message: format!(
                                    "`{name}` accumulates floats across loop iterations"
                                ),
                            });
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// The binding a `let` at `at` introduces, and whether it declares a
    /// float type. An untyped `let` is not float-typed, and destructuring
    /// patterns bind nothing here.
    fn let_binding(&self, at: usize) -> Option<(&'a str, bool)> {
        let toks = self.toks;
        let k = at + 1 + usize::from(toks.get(at + 1)?.is_ident("mut"));
        let name = toks.get(k).filter(|t| t.kind == TokKind::Ident)?;
        Some((
            name.text.as_str(),
            is_typed(toks, k) && self.float_type(k + 2),
        ))
    }

    /// True when the type spelled at `at` names a float.
    fn float_type(&self, at: usize) -> bool {
        type_name(self.toks, at).is_some_and(|name| self.is_float_name(name))
    }

    /// `f32`, `f64`, or a local alias of one.
    fn is_float_name(&self, name: &str) -> bool {
        name == "f32" || name == "f64" || self.float_names.iter().any(|n| n == name)
    }

    /// True when `[start, end)` contains a float marker.
    fn has_float(&self, start: usize, end: usize) -> bool {
        let toks = self.toks;
        (start..end.min(toks.len())).any(|i| {
            let t = &toks[i];
            match t.kind {
                TokKind::Ident => self.is_float_name(&t.text),
                TokKind::Num => {
                    t.text.ends_with("f32")
                        || t.text.ends_with("f64")
                        || (toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Num))
                }
                _ => false,
            }
        })
    }
}

fn found(t: &Tok, why: &str) -> RawFinding {
    RawFinding {
        line: t.line,
        message: format!("`.{}()` reduces floats in iteration order ({why})", t.text),
    }
}

/// True when the token at `i` is followed by a type ascription (`:`, not
/// a `::` path).
fn is_typed(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
}

/// True when the token at `i` is followed by `+=` or `-=` and is not a
/// field (`self.total += …` names no local).
fn is_compound_assign(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1)
        .is_some_and(|n| n.is_punct('+') || n.is_punct('-'))
        && toks.get(i + 2).is_some_and(|n| n.is_punct('='))
        && !(i > 0 && toks[i - 1].is_punct('.'))
}

/// Start of the statement containing `at`: just past the nearest `;`,
/// `{` or `}` before it, looking back at most 256 tokens.
fn stmt_start(toks: &[Tok], at: usize) -> usize {
    let floor = at.saturating_sub(256);
    (floor..at)
        .rev()
        .find(|&j| matches!(toks[j].kind, TokKind::Punct(';' | '{' | '}')))
        .map_or(floor, |j| j + 1)
}

/// Index just past a `<…>` opened at `start - 1` (i.e. `start` is the
/// first token inside).
fn angle_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 1i32;
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index of the `,` closing `fold`'s first argument (or the closing `)`),
/// with `start` just inside the call parens.
fn seed_arg_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')') if depth == 0 => return i,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lines(src: &str) -> Vec<u32> {
        let file = SourceFile::analyze(PathBuf::from("a.rs"), "sim", src);
        let mut out = Vec::new();
        FloatAccumulation.check(&file, &mut out);
        out.iter().map(|f| f.line).collect()
    }

    #[test]
    fn loop_accumulators_follow_typed_lets_params_and_aliases() {
        // An untyped `let` is not float-typed (a documented gap), so the
        // `untyped` accumulator stays silent.
        let src = "type Score = f64;\n\
                   fn f(xs: &[u64], mut w: Score, n: u64) {\n\
                   let mut acc: f32 = 0.0;\n\
                   let mut untyped = 0.0;\n\
                   let mut hits: u64 = 0;\n\
                   for x in xs {\n\
                   acc += 1.5;\n\
                   w -= 0.5;\n\
                   hits += 1;\n\
                   untyped += 2.5;\n\
                   n += *x;\n\
                   }\n\
                   }";
        assert_eq!(lines(src), vec![7, 8]);
    }

    #[test]
    fn the_latest_binding_wins_and_fields_are_not_locals() {
        let src = "fn f(xs: &[u64]) {\n\
                   let mut t: f64 = 0.0;\n\
                   let mut t: u64 = 0;\n\
                   for x in xs { t += *x; self.t += 1.0; }\n\
                   }";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn impl_for_and_hrtb_are_not_loops() {
        let src = "impl AddAssign for S where F: for<'a> Fn(&'a u8) {\n\
                   fn add_assign(&mut self, o: S) { let mut acc: f64 = 0.0; acc += 1.0; }\n\
                   }";
        assert!(lines(src).is_empty());
        let looped = "fn g(xs: &[f64]) { let mut acc: f64 = 0.0; for x in xs {\nacc += *x; } }";
        assert_eq!(lines(looped), vec![2]);
    }

    #[test]
    fn bindings_do_not_leak_between_fns() {
        let src = "fn a() { let acc: f64 = 0.0; }\n\
                   fn b(xs: &[u64]) { let mut n = 0; for x in xs { acc += 1; n += 1; } }";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn float_aliased_lets_mark_their_reductions() {
        let src =
            "type Score = f64;\nfn f(p: &[Score]) -> Score {\nlet t: Score = p.iter().sum();\nt }";
        assert_eq!(lines(src), vec![3]);
    }
}
