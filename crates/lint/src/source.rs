//! Per-file analysis context shared by every rule: the token stream,
//! `#[cfg(test)]` / `#[test]` region map, and suppression comments.

use crate::lexer::{self, Comment, Lexed, Tok};
use std::path::PathBuf;

/// A `// nocstar-lint: allow(rule, …): justification` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule ids listed inside `allow(…)`.
    pub rules: Vec<String>,
    /// Mandatory justification text after the closing `):`.
    pub justification: String,
    /// Line the comment starts on.
    pub line: u32,
    /// Lines the suppression covers: its own line, and (for standalone
    /// comments) the next code line.
    pub covers: (u32, u32),
}

/// One analyzed source file, ready for rules to scan.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used in reports).
    pub path: PathBuf,
    /// Lint class the file belongs to (from the policy).
    pub class: String,
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Comments (for rules that inspect them).
    pub comments: Vec<Comment>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items or `#[test]`
    /// functions.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
    /// Suppression comments that failed to parse (missing justification
    /// or malformed rule list); reported by the meta rule.
    pub bad_suppressions: Vec<(u32, String)>,
}

/// Marker every suppression comment must start with.
pub const SUPPRESSION_PREFIX: &str = "nocstar-lint:";

impl SourceFile {
    /// Lexes and analyzes `src`.
    pub fn analyze(path: PathBuf, class: &str, src: &str) -> SourceFile {
        let Lexed { toks, comments } = lexer::lex(src);
        let test_regions = find_test_regions(&toks);
        let (suppressions, bad_suppressions) = find_suppressions(&comments, &toks);
        SourceFile {
            path,
            class: class.to_string(),
            toks,
            comments,
            test_regions,
            suppressions,
            bad_suppressions,
        }
    }

    /// True when `line` falls inside a `#[cfg(test)]` / `#[test]` region.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// True when a well-formed suppression for `rule` covers `line`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppression_index(rule, line).is_some()
    }

    /// Index (into `suppressions`) of the suppression covering `rule` at
    /// `line`, if any. The driver uses the index to track which
    /// suppressions actually silenced something, so stale allows can be
    /// reported and deleted.
    pub fn suppression_index(&self, rule: &str, line: u32) -> Option<usize> {
        self.suppressions.iter().position(|s| {
            (s.covers.0 == line || s.covers.1 == line) && s.rules.iter().any(|r| r == rule)
        })
    }
}

/// Finds line ranges belonging to test-only code: any item annotated
/// `#[cfg(test)]` or `#[test]`. The item's extent is the balanced
/// `{ … }` block (or the terminating `;` for block-less items) that
/// follows the attribute. An inner `#![cfg(test)]` — a test module kept
/// in its own file — covers everything from the attribute to the end of
/// the file.
fn find_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(attr_len) = test_attr_len(&toks[i..]) {
            let start_line = toks[i].line;
            if toks[i + 1].is_punct('!') {
                let end_line = toks.last().map_or(start_line, |t| t.line);
                regions.push((start_line, end_line));
                break;
            }
            let mut j = i + attr_len;
            // Skip further attributes between #[cfg(test)] and the item.
            while j < toks.len() && toks[j].is_punct('#') {
                j += skip_attr(&toks[j..]);
            }
            // Scan to the end of the item: the close of the first brace
            // block, or a ';' before any brace opens (brackets/parens
            // tracked so `[u8; 4]` semicolons don't end the item).
            let mut depth = 0usize;
            let mut nest = 0usize;
            let mut end_line = start_line;
            while j < toks.len() {
                let t = &toks[j];
                end_line = t.line;
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                } else if t.is_punct('[') || t.is_punct('(') {
                    nest += 1;
                } else if t.is_punct(']') || t.is_punct(')') {
                    nest = nest.saturating_sub(1);
                } else if t.is_punct(';') && depth == 0 && nest == 0 {
                    break;
                }
                j += 1;
            }
            regions.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// If `toks` starts with `#[cfg(test)]` or `#[test]` (possibly with extra
/// arguments such as `#[cfg(any(test, fuzzing))]`), or the inner form
/// `#![cfg(test)]`, returns the attribute token length.
fn test_attr_len(toks: &[Tok]) -> Option<usize> {
    let bang = usize::from(toks.get(1)?.is_punct('!'));
    if !(toks.first()?.is_punct('#') && toks.get(1 + bang)?.is_punct('[')) {
        return None;
    }
    let len = skip_attr(toks);
    let body = &toks[2 + bang..len.saturating_sub(1)];
    let is_test = match body.first() {
        Some(t) if t.is_ident("test") => body.len() == 1,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    is_test.then_some(len)
}

/// Token length of an attribute starting at `#` `[` … `]`.
fn skip_attr(toks: &[Tok]) -> usize {
    let mut depth = 0usize;
    for (n, t) in toks.iter().enumerate() {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return n + 1;
            }
        }
    }
    toks.len()
}

/// Parses suppression comments. Returns (well-formed, malformed).
fn find_suppressions(comments: &[Comment], toks: &[Tok]) -> (Vec<Suppression>, Vec<(u32, String)>) {
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix(SUPPRESSION_PREFIX) else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok((rules, justification)) => {
                let covered = if c.trailing {
                    c.line
                } else {
                    next_code_line(toks, c.line)
                };
                good.push(Suppression {
                    rules,
                    justification,
                    line: c.line,
                    covers: (c.line, covered),
                });
            }
            Err(why) => bad.push((c.line, why)),
        }
    }
    (good, bad)
}

/// Parses `allow(rule-a, rule-b): justification`.
fn parse_allow(text: &str) -> Result<(Vec<String>, String), String> {
    let rest = text
        .strip_prefix("allow")
        .ok_or_else(|| format!("expected `allow(<rule>): <justification>`, found `{text}`"))?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `(` in suppression".to_string())?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("suppression lists no rules".to_string());
    }
    let tail = rest[close + 1..].trim_start();
    let justification = tail.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(format!(
            "suppression of `{}` has no justification — write \
             `// nocstar-lint: allow({}): <why this is sound>`",
            rules.join(", "),
            rules.join(", "),
        ));
    }
    Ok((rules, justification.to_string()))
}

/// The first line after `line` that carries a code token.
fn next_code_line(toks: &[Tok], line: u32) -> u32 {
    toks.iter()
        .map(|t| t.line)
        .find(|&l| l > line)
        .unwrap_or(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> SourceFile {
        SourceFile::analyze(PathBuf::from("test.rs"), "sim", src)
    }

    #[test]
    fn cfg_test_mod_region_spans_the_block() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn a() {}\n}\nfn after() {}";
        let f = analyze(src);
        assert_eq!(f.test_regions, vec![(2, 5)]);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_fn_and_cfg_any_regions() {
        let src =
            "#[test]\nfn t() { body(); }\n#[cfg(any(test, fuzzing))]\nuse foo::bar;\nfn live() {}";
        let f = analyze(src);
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(5));
    }

    #[test]
    fn inner_cfg_test_covers_the_rest_of_the_file() {
        let src = "//! Tests.\n#![cfg(test)]\n\nuse super::*;\nfn helper() { x.unwrap(); }\n";
        let f = analyze(src);
        assert_eq!(f.test_regions, vec![(2, 5)]);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        // Over-approximation by design: any cfg mentioning `test` counts,
        // but cfgs without it never do.
        let f = analyze("#[cfg(feature = \"x\")]\nfn live() {}");
        assert!(f.test_regions.is_empty());
    }

    #[test]
    fn trailing_suppression_covers_its_line() {
        let src = "let x = m.unwrap(); // nocstar-lint: allow(sim-unwrap): length checked above\n";
        let f = analyze(src);
        assert_eq!(f.suppressions.len(), 1);
        assert!(f.suppressed("sim-unwrap", 1));
        assert!(!f.suppressed("wall-clock", 1));
    }

    #[test]
    fn standalone_suppression_covers_next_code_line() {
        let src =
            "// nocstar-lint: allow(sim-unwrap, wall-clock): fixture only\n\nlet x = m.unwrap();";
        let f = analyze(src);
        assert!(f.suppressed("sim-unwrap", 3));
        assert!(f.suppressed("wall-clock", 3));
        assert!(!f.suppressed("sim-unwrap", 2));
    }

    #[test]
    fn missing_justification_is_malformed() {
        for bad in [
            "// nocstar-lint: allow(sim-unwrap)",
            "// nocstar-lint: allow(sim-unwrap):",
            "// nocstar-lint: allow(sim-unwrap):   ",
            "// nocstar-lint: allow()  : because",
            "// nocstar-lint: deny(sim-unwrap): what",
        ] {
            let f = analyze(&format!("{bad}\nlet x = 1;"));
            assert_eq!(f.suppressions.len(), 0, "{bad}");
            assert_eq!(f.bad_suppressions.len(), 1, "{bad}");
        }
    }
}
