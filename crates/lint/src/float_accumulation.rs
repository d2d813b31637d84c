//! `float-accumulation`: order-sensitive float reduction in sim code.
//!
//! Float addition is not associative, so a `.sum::<f64>()` over elements
//! whose order ever changes (a re-sorted source, a parallel split) is a
//! silent report diff, and clippy has no lint for it. A *float marker* is
//! `f32`, `f64`, a name the file aliases to one (see `float_names`) or a
//! float literal. The rule flags:
//!
//! * `.sum()` / `.product()` / `.fold(…)` with a float marker in a
//!   `::<…>` turbofish, in `fold`'s seed, or earlier in the statement;
//! * `+=` / `-=` in a `for` body on a local whose latest `let` or
//!   parameter in the enclosing fn is float: typed `f32`, `f64` or a
//!   float alias (behind any `&`/`mut`), or untyped with a float-literal
//!   initializer (`let mut sum = 0.0;`).
//!
//! Integer reductions are exact and never flagged.

use crate::lexer::{until, Tok, TokKind};

/// Iterator reductions whose result depends on operand order over floats.
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// How to fix a finding.
pub const HINT: &str = "accumulate in integers (ns, counts) and convert once at the edge, \
                        or sort the operands and document the fixed reduction order";

/// Scans one file's tokens; returns `(line, message)` per finding.
pub fn check(toks: &[Tok]) -> Vec<(u32, String)> {
    let floats = float_names(toks);
    let mut out = reductions(toks, &floats);
    out.extend(loop_accumulators(toks, &floats));
    out
}

/// `.sum()` / `.product()` / `.fold(…)` calls with a visible float marker.
fn reductions(toks: &[Tok], floats: &[String]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate().skip(1) {
        if t.kind != TokKind::Ident || !REDUCERS.contains(&t.text.as_str()) {
            continue;
        }
        // The call's `(`, past a `::<…>` turbofish.
        let turbofish = puncts(toks, i + 1, "::<");
        let open = if turbofish {
            until(toks, i + 4, "(")
        } else {
            i + 1
        };
        if !toks[i - 1].is_punct('.') || !puncts(toks, open, "(") {
            continue;
        }
        let why = if has_float(toks, floats, i + 1, open) {
            "turbofish names a float type"
        } else if t.text == "fold" && has_float(toks, floats, open, until(toks, open + 1, ",)")) {
            "fold seed is a float"
        } else if has_float(toks, floats, stmt_start(toks, i), i) {
            "the reduced expression involves floats"
        } else {
            continue;
        };
        let message = format!("`.{}()` reduces floats in iteration order ({why})", t.text);
        out.push((t.line, message));
    }
    out
}

/// What an open `{` belongs to.
enum Block {
    /// A fn body, holding the enclosing fn's binding base.
    Fn(usize),
    Loop,
    Other,
}

/// `x += …` / `x -= …` inside a `for` body, where `x` is bound to a float
/// in the enclosing fn. One pass: a block stack tells fn bodies from loop
/// bodies, and each fn's bindings are dropped when it closes.
fn loop_accumulators(toks: &[Tok], floats: &[String]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    // `(name, float)` per binding in the open fns, latest last.
    let mut bindings: Vec<(&str, bool)> = Vec::new();
    let mut fn_base = 0;
    // The parameters of a fn whose head is still being read.
    let mut params = Vec::new();
    let mut blocks = Vec::new();
    // A `fn` (true) or `for` (false) head awaiting its body's `{`, with
    // the bracket nesting it was seen at.
    let mut head: Option<(bool, usize)> = None;
    let (mut loops, mut nest, mut impl_head) = (0usize, 0usize, false);
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('(' | '[') => nest += 1,
            TokKind::Punct(')' | ']') => nest = nest.saturating_sub(1),
            TokKind::Punct(';') => {
                impl_head = false;
                // A bodiless fn declaration.
                head = head.filter(|&(_, n)| n != nest);
            }
            TokKind::Punct('{') => {
                impl_head = false;
                blocks.push(match head.take() {
                    Some((true, n)) if n == nest => {
                        let outer = std::mem::replace(&mut fn_base, bindings.len());
                        bindings.append(&mut params);
                        Block::Fn(outer)
                    }
                    Some((false, n)) if n == nest => {
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
                    head = Some((true, nest));
                }
                "for" if !impl_head && !puncts(toks, i + 1, "<") => head = Some((false, nest)),
                "let" => bindings.extend(let_binding(toks, floats, i)),
                name if head == Some((true, nest.wrapping_sub(1))) && is_typed(toks, i) => {
                    params.push((name, float_type(toks, floats, i + 2)));
                }
                name if loops > 0 && is_compound_assign(toks, i) => {
                    let latest = bindings[fn_base..].iter().rev().find(|(n, _)| *n == name);
                    if latest.is_some_and(|&(_, float)| float) {
                        let message = format!("`{name}` accumulates floats across loop iterations");
                        out.push((t.line, message));
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    out
}

/// The binding a `let` at `at` introduces, and whether it is float: typed
/// as one, or untyped with a float-literal initializer. Destructuring
/// patterns bind nothing here.
fn let_binding<'a>(toks: &'a [Tok], floats: &[String], at: usize) -> Option<(&'a str, bool)> {
    let k = at + 1 + usize::from(toks.get(at + 1)?.is_ident("mut"));
    let name = toks.get(k).filter(|t| t.kind == TokKind::Ident)?;
    let float = if is_typed(toks, k) {
        float_type(toks, floats, k + 2)
    } else {
        let lit = k + 2 + usize::from(puncts(toks, k + 2, "-"));
        puncts(toks, k + 1, "=")
            && float_literal_len(toks, lit).is_some_and(|n| puncts(toks, lit + n, ";"))
    };
    Some((name.text.as_str(), float))
}

/// True when the type spelled at `at` is a float.
fn float_type(toks: &[Tok], floats: &[String], at: usize) -> bool {
    type_name(toks, at).is_some_and(|name| floats.iter().any(|f| f == name))
}

/// True when `toks[start..end]` holds a float marker.
fn has_float(toks: &[Tok], floats: &[String], start: usize, end: usize) -> bool {
    (start..end.min(toks.len())).any(|i| {
        let t = &toks[i];
        (t.kind == TokKind::Ident && floats.contains(&t.text))
            || float_literal_len(toks, i).is_some()
    })
}

/// `f32`, `f64` and the names a file introduces for them through
/// `use … as NAME` (inside `use` statements only: elsewhere
/// `x as f64 as u32` is a cast) or `type NAME = …`, followed to a
/// fixpoint so that chains resolve. Resolution is per file: an alias
/// exported from another file is invisible.
fn float_names(toks: &[Tok]) -> Vec<String> {
    // Every (name, target) edge the file declares.
    let mut edges = Vec::new();
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        let name = toks
            .get(i + 1)
            .filter(|n| n.kind == TokKind::Ident && n.text != "_");
        if t.is_ident("use") || t.is_punct(';') {
            in_use = t.is_ident("use");
        } else if t.is_ident("as") && in_use && i > 0 {
            edges.extend(name.map(|n| (&n.text, toks[i - 1].text.as_str())));
        } else if t.is_ident("type") {
            edges.extend(
                name.zip(alias_target(toks, i + 2))
                    .map(|(n, to)| (&n.text, to)),
            );
        }
    }
    let mut names: Vec<String> = vec!["f32".into(), "f64".into()];
    loop {
        let found = names.len();
        for &(name, target) in &edges {
            if !names.contains(name) && names.iter().any(|n| n == target) {
                names.push(name.clone());
            }
        }
        if names.len() == found {
            return names;
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
/// path, past any `&`, lifetime or `mut` (`f64` in `&'a mut
/// std::primitive::f64`). Arrays, slices and tuples have no name.
fn type_name(toks: &[Tok], at: usize) -> Option<&str> {
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

/// The token length of a float literal at `i` (`2f32` is one token,
/// `1.5` three), or `None`.
fn float_literal_len(toks: &[Tok], i: usize) -> Option<usize> {
    let t = toks.get(i).filter(|t| t.kind == TokKind::Num)?;
    if t.text.ends_with("f32") || t.text.ends_with("f64") {
        return Some(1);
    }
    let fraction = toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Num);
    (puncts(toks, i + 1, ".") && fraction).then_some(3)
}

/// True when the tokens from `at` are the punctuation characters of `seq`.
fn puncts(toks: &[Tok], at: usize, seq: &str) -> bool {
    seq.chars()
        .enumerate()
        .all(|(k, c)| toks.get(at + k).is_some_and(|t| t.is_punct(c)))
}

/// True when the token at `i` is followed by a type ascription (`:`, not
/// a `::` path).
fn is_typed(toks: &[Tok], i: usize) -> bool {
    puncts(toks, i + 1, ":") && !puncts(toks, i + 2, ":")
}

/// True when the token at `i` is followed by `+=` or `-=` and is not a
/// field (`self.total += …` names no local).
fn is_compound_assign(toks: &[Tok], i: usize) -> bool {
    (puncts(toks, i + 1, "+=") || puncts(toks, i + 1, "-=")) && !(i > 0 && puncts(toks, i - 1, "."))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lines(src: &str) -> Vec<u32> {
        check(&lex(src).0).iter().map(|f| f.0).collect()
    }

    fn aliases(src: &str) -> Vec<String> {
        float_names(&lex(src).0).split_off(2)
    }

    #[test]
    fn loop_accumulators_follow_lets_params_and_aliases() {
        let src = "type Score = f64;\n\
                   fn f(xs: &[u64], mut w: Score, n: u64) {\n\
                   let mut acc: f32 = 0.0;\n\
                   let mut untyped = 0.0;\n\
                   let mut hits: u64 = 0;\n\
                   let mut count = 0;\n\
                   let mut ratio = xs.len() as f64 / 2.0;\n\
                   for x in xs {\n\
                   acc += 1.5;\n\
                   w -= 0.5;\n\
                   hits += 1;\n\
                   untyped += 2.5;\n\
                   count += 1;\n\
                   n += *x;\n\
                   ratio -= 1.0;\n\
                   }\n\
                   }";
        // An untyped `let` counts only with a bare float-literal
        // initializer, so `ratio` stays silent.
        assert_eq!(lines(src), vec![9, 10, 12]);
    }

    #[test]
    fn untyped_float_literal_lets_count_in_every_spelling() {
        for init in ["0.0", "-1.5", "0f64", "2.5f32"] {
            let src =
                format!("fn f(xs: &[f64]) {{ let mut s = {init}; for x in xs {{ s += *x; }} }}");
            assert_eq!(lines(&src), vec![1], "{init}");
        }
        let int = "fn f(xs: &[u64]) { let mut s = 0u64; for x in xs { s += *x; } }";
        assert!(lines(int).is_empty());
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

    #[test]
    fn a_rename_chain_resolves_to_a_float() {
        let src = "use std::primitive::f64 as Real;\ntype Score = Real;\ntype Deep = Score;";
        assert_eq!(aliases(src), vec!["Real", "Score", "Deep"]);
    }

    #[test]
    fn grouped_renames_resolve_and_tuples_have_no_name() {
        let src = "use std::primitive::{f32 as Single, u8};\ntype Pair = (f64, f64);";
        assert_eq!(aliases(src), vec!["Single"]);
    }

    #[test]
    fn integer_aliases_casts_cycles_and_underscores_are_not_floats() {
        let src = "type Count = u64;\n\
                   fn f(x: u8) -> u32 { let y = x as f64 as u32; y }\n\
                   type A = B;\ntype B = A;\nuse std::primitive::f64 as _;";
        assert!(aliases(src).is_empty());
    }

    #[test]
    fn float_type_aliases_resolve_behind_references() {
        let src = "type Score = f64;\ntype Weight<'a> = &'a f32;\ntype Out;";
        assert_eq!(aliases(src), vec!["Score", "Weight"]);
    }

    #[test]
    fn type_names_skip_references_and_paths() {
        let toks = lex("&'a mut std::primitive::f64; [f64; 4]").0;
        assert_eq!(type_name(&toks, 0), Some("f64"));
        let slice = toks.iter().position(|t| t.is_punct('[')).unwrap();
        assert_eq!(type_name(&toks, slice), None);
    }
}
