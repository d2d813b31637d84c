//! A minimal Rust token lexer.
//!
//! The environment vendors no `syn`, so the lint works on tokens. The
//! lexer makes that sound: nothing inside a string, char literal or
//! comment becomes a token, and comments keep their lines so that
//! suppressions can be found. Multi-character operators (`::`, `+=`)
//! come out as single-character [`TokKind::Punct`] tokens, and the rule
//! matches the sequences. Unterminated constructs run to the end of the
//! input: the lint degrades on a file mid-edit, it never panics.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword; `r#type` lexes as `type`.
    Ident,
    /// A lifetime (`'a`), told apart from a char literal.
    Lifetime,
    /// A numeric literal with its suffix (`0u64`, `2f32`). The `.` of
    /// `1.5` is a punctuation token between two numbers.
    Num,
    /// A string, byte-string or char literal; its contents are dropped.
    Lit,
    /// One punctuation character.
    Punct(char),
}

/// One token and the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token kind; punctuation carries its character.
    pub kind: TokKind,
    /// The text of an identifier, lifetime or number; empty otherwise.
    pub text: String,
    /// 1-based line.
    pub line: u32,
}

impl Tok {
    /// True when the token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment without its `//`, `///`, `//!` or `/* */` framing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The trimmed comment text.
    pub text: String,
    /// True when code precedes the comment on its line: a trailing
    /// comment annotates its own line, a standalone one the next.
    pub trailing: bool,
}

/// Lexes `src` into code tokens and comments, each in source order.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        line_had_code: false,
        toks: Vec::new(),
        comments: Vec::new(),
    };
    while let Some(c) = lx.peek(0) {
        let line = lx.line;
        match c {
            c if c.is_whitespace() => {
                lx.bump();
            }
            '/' if matches!(lx.peek(1), Some('/' | '*')) => lx.comment(),
            '"' => lx.quoted(),
            'r' | 'b' | 'c' if lx.raw() => {}
            '\'' => lx.char_or_lifetime(),
            c if is_ident_start(c) => {
                let text = lx.take_while(is_ident_continue);
                lx.push(TokKind::Ident, text, line);
            }
            c if c.is_ascii_digit() => {
                let text = lx.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
                lx.push(TokKind::Num, text, line);
            }
            _ => {
                lx.bump();
                lx.push(TokKind::Punct(c), String::new(), line);
            }
        }
    }
    (lx.toks, lx.comments)
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Whether a code token has been emitted on the current line.
    line_had_code: bool,
    toks: Vec<Tok>,
    comments: Vec<Comment>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.line_had_code = false;
        }
        Some(c)
    }

    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0).filter(|&c| keep(c)) {
            text.push(c);
            self.bump();
        }
        text
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.line_had_code = true;
        self.toks.push(Tok { kind, text, line });
    }

    /// A `//` comment, or a `/* */` one with nested pairs balanced.
    fn comment(&mut self) {
        let (line, trailing) = (self.line, self.line_had_code);
        let block = self.peek(1) == Some('*');
        self.pos += 2;
        let mut depth = 1;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let pair = (c, self.peek(1));
            if !block && c == '\n' {
                break;
            } else if block && (pair == ('/', Some('*')) || pair == ('*', Some('/'))) {
                depth += if c == '/' { 1 } else { -1 };
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let text = text.trim_start_matches(['/', '!', '*']).trim().to_string();
        self.comments.push(Comment {
            line,
            text,
            trailing,
        });
    }

    /// An escaped string or char literal, up to its matching unescaped
    /// quote. A `b` or `c` prefix lexes as an identifier before it.
    fn quoted(&mut self) {
        let line = self.line;
        let quote = self.bump();
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if Some(c) == quote {
                break;
            }
        }
        self.push(TokKind::Lit, String::new(), line);
    }

    /// `r#ident`, and the raw strings `r"…"`, `r#"…"#`, `br"…"` and
    /// `cr"…"`, whose backslashes escape nothing. False, consuming
    /// nothing, when the prefix starts a plain identifier.
    fn raw(&mut self) -> bool {
        let line = self.line;
        if (self.peek(0), self.peek(1)) == (Some('r'), Some('#'))
            && self.peek(2).is_some_and(is_ident_start)
        {
            self.pos += 2;
            let text = self.take_while(is_ident_continue);
            self.push(TokKind::Ident, text, line);
            return true;
        }
        let prefix = if self.peek(0) == Some('r') { 1 } else { 2 };
        let hashes = (prefix..)
            .take_while(|&k| self.peek(k) == Some('#'))
            .count();
        if (prefix == 2 && self.peek(1) != Some('r')) || self.peek(prefix + hashes) != Some('"') {
            return false;
        }
        self.pos += prefix + hashes + 1;
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|k| self.peek(k) == Some('#')) {
                self.pos += hashes;
                break;
            }
        }
        self.push(TokKind::Lit, String::new(), line);
        true
    }

    /// `'a'` and `'\n'` are char literals; `'a` is a lifetime.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let end = (1..)
            .take_while(|&k| self.peek(k).is_some_and(is_ident_continue))
            .count();
        if self.peek(1).is_some_and(is_ident_start) && self.peek(end + 1) != Some('\'') {
            self.pos += 1;
            let text = self.take_while(is_ident_continue);
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.quoted();
        }
    }
}

/// Index of the first token from `start` that is one of the punctuation
/// characters `stops` outside any `()`, `[]` or `{}` opened after
/// `start`, or the end.
pub fn until(toks: &[Tok], start: usize, stops: &str) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(start) {
        let TokKind::Punct(c) = t.kind else { continue };
        if depth == 0 && stops.contains(c) {
            return i;
        }
        depth += match c {
            '(' | '[' | '{' => 1,
            ')' | ']' | '}' => -1,
            _ => 0,
        };
    }
    toks.len()
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let s = "f64 in a string";
            let r = r#"f64 in a raw string"#;
            // f64 in a comment
            /* f64 in /* a nested */ block */
            let c = 'f';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"f64".to_string()), "{ids:?}");
        let comments = lex(src).1;
        assert_eq!(comments.len(), 2);
        assert!(comments[0].text.contains("f64 in a comment"));
        assert_eq!(comments[1].text, "f64 in  a nested  block");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let toks = lex(src).0;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let lits = toks.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 2); // 'x' and '\n'
    }

    #[test]
    fn lines_are_tracked() {
        let src = "a\nb\n  c";
        let lines: Vec<u32> = lex(src).0.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn trailing_vs_standalone_comments() {
        let src = "let x = 1; // trailing\n// standalone\nlet y = 2;";
        let comments = lex(src).1;
        assert!(comments[0].trailing);
        assert!(!comments[1].trailing);
        let docs = lex("/// outer doc\n//! inner doc\n/** block doc */").1;
        let texts: Vec<&str> = docs.iter().map(|c| c.text.as_str()).collect();
        assert_eq!(texts, vec!["outer doc", "inner doc", "block doc"]);
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn prefixed_and_raw_literals_hide_their_contents() {
        let src = r##"let b = b"f64"; let r = br#"f32 \"#; let c = c"f64"; let q = b'f';"##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "f64" || i == "f32"), "{ids:?}");
        let plain = idents("let brown = crate::bar;");
        assert_eq!(plain, vec!["let", "brown", "crate", "bar"]);
    }

    #[test]
    fn until_skips_nested_brackets() {
        let toks = lex("f(a, (b, c), [d; 2]) ; x").0;
        assert_eq!(until(&toks, 2, ",;"), 3);
        assert_eq!(until(&toks, 0, ";"), 16);
        assert_eq!(until(&toks, 17, ";"), toks.len());
    }

    #[test]
    fn float_literals_are_number_dot_number() {
        let kinds: Vec<TokKind> = lex("1.5f64").0.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, vec![TokKind::Num, TokKind::Punct('.'), TokKind::Num]);
    }
}
