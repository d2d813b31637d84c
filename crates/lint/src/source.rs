//! What the rule needs to know about a file besides its tokens: which
//! lines are test code, and which comments are suppressions.

use crate::lexer::{until, Comment, Tok};
use crate::RULE;

/// Marker every suppression comment starts with.
const SUPPRESSION_PREFIX: &str = "nocstar-lint:";

/// A suppression comment: `Ok((line, covered))` for a well-formed
/// `// nocstar-lint: allow(float-accumulation): <why>`, which covers its
/// own line and `covered` (the next code line when the comment stands
/// alone), or `Err((line, what is wrong))`.
pub type Suppression = Result<(u32, u32), (u32, String)>;

/// Every suppression comment among `comments`, in order.
pub fn suppressions(comments: &[Comment], toks: &[Tok]) -> Vec<Suppression> {
    let next_code = |line| toks.iter().map(|t| t.line).find(|&l| l > line);
    let covered = |c: &Comment| next_code(c.line).filter(|_| !c.trailing).unwrap_or(c.line);
    comments
        .iter()
        .filter_map(|c| Some((c, c.text.strip_prefix(SUPPRESSION_PREFIX)?)))
        .map(|(c, rest)| match parse_allow(rest.trim()) {
            Ok(()) => Ok((c.line, covered(c))),
            Err(why) => Err((c.line, why)),
        })
        .collect()
}

/// Checks `allow(float-accumulation): <justification>`.
fn parse_allow(text: &str) -> Result<(), String> {
    let rules = text
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .ok_or_else(|| format!("expected `allow({RULE}): <justification>`, found `{text}`"))?;
    let (rules, tail) = rules
        .split_once(')')
        .ok_or_else(|| "unclosed `(` in suppression".to_string())?;
    let mut rules = rules
        .split(',')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .peekable();
    if rules.peek().is_none() {
        return Err("suppression lists no rules".to_string());
    }
    if let Some(other) = rules.find(|r| *r != RULE) {
        return Err(format!(
            "suppression names unknown rule `{other}`; only `{RULE}` is checked here"
        ));
    }
    if tail
        .trim_start()
        .strip_prefix(':')
        .is_none_or(|why| why.trim().is_empty())
    {
        return Err(format!(
            "suppression has no justification: write `// {SUPPRESSION_PREFIX} allow({RULE}): \
             <why this is sound>`"
        ));
    }
    Ok(())
}

/// Inclusive line ranges of test-only code: each item annotated
/// `#[cfg(test)]` (any cfg naming `test`) or `#[test]`, to the close of
/// its first `{ … }` block or its `;`. An inner `#![cfg(test)]`, a test
/// module kept in its own file, covers the rest of the file.
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let Some(attr_len) = test_attr_len(&toks[i..]) else {
            i += 1;
            continue;
        };
        let start = toks[i].line;
        if toks[i + 1].is_punct('!') {
            regions.push((start, toks.last().map_or(start, |t| t.line)));
            break;
        }
        let mut j = i + attr_len;
        while j < toks.len() && toks[j].is_punct('#') {
            j = until(toks, j + 2, "]") + 1;
        }
        // The item ends at its first `;` or the close of its first block.
        j = until(toks, j, "{;");
        if toks.get(j).is_some_and(|t| t.is_punct('{')) {
            j = until(toks, j + 1, "}");
        }
        regions.push((start, toks.get(j).or(toks.last()).map_or(start, |t| t.line)));
        i = j + 1;
    }
    regions
}

/// The token length of a `#[test]`, `#[cfg(… test …)]` or
/// `#![cfg(test)]` attribute at the start of `toks`.
fn test_attr_len(toks: &[Tok]) -> Option<usize> {
    let bang = usize::from(toks.get(1)?.is_punct('!'));
    if !(toks[0].is_punct('#') && toks.get(1 + bang)?.is_punct('[')) {
        return None;
    }
    let close = until(toks, 2 + bang, "]");
    let body = toks.get(2 + bang..close)?;
    let is_test = match body.first() {
        Some(t) if t.is_ident("test") => body.len() == 1,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    is_test.then_some(close + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(src: &str) -> Vec<(u32, u32)> {
        test_regions(&lex(src).0)
    }

    fn parsed(src: &str) -> Vec<Suppression> {
        let (toks, comments) = lex(src);
        suppressions(&comments, &toks)
    }

    #[test]
    fn cfg_test_mod_region_spans_the_block() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn a() {}\n}\nfn after() {}";
        assert_eq!(regions(src), vec![(2, 5)]);
    }

    #[test]
    fn test_fn_and_cfg_any_regions() {
        let src =
            "#[test]\nfn t() { body(); }\n#[cfg(any(test, fuzzing))]\nuse foo::bar;\nfn live() {}";
        assert_eq!(regions(src), vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn inner_cfg_test_covers_the_rest_of_the_file() {
        let src = "//! Tests.\n#![cfg(test)]\n\nuse super::*;\nfn helper() { x.sum(); }\n";
        assert_eq!(regions(src), vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        // Over-approximation by design: any cfg mentioning `test` counts,
        // but cfgs without it never do.
        assert!(regions("#[cfg(feature = \"x\")]\nfn live() {}").is_empty());
    }

    #[test]
    fn trailing_suppression_covers_its_line() {
        let src = "let x = s.sum(); // nocstar-lint: allow(float-accumulation): fixed order\n";
        assert_eq!(parsed(src), vec![Ok((1, 1))]);
    }

    #[test]
    fn standalone_suppression_covers_next_code_line() {
        let src = "// nocstar-lint: allow(float-accumulation): fixture only\n\nlet x = s.sum();";
        assert_eq!(parsed(src), vec![Ok((1, 3))]);
    }

    #[test]
    fn malformed_suppressions_are_collected() {
        for bad in [
            "// nocstar-lint: allow(float-accumulation)",
            "// nocstar-lint: allow(float-accumulation):",
            "// nocstar-lint: allow(float-accumulation):   ",
            "// nocstar-lint: allow()  : because",
            "// nocstar-lint: deny(float-accumulation): what",
            "// nocstar-lint: allow(sim-unwrap): a retired rule",
        ] {
            let found = parsed(&format!("{bad}\nlet x = 1;"));
            assert!(matches!(found[..], [Err((1, _))]), "{bad}: {found:?}");
        }
    }
}
