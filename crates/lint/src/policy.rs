//! The lint policy: which crate directories belong to which class, and
//! which rules run (at which severity) for each class.
//!
//! The policy lives in `nocstar-lint.toml` at the workspace root. The
//! build environment vendors no TOML crate, so this module parses the
//! small TOML subset the policy actually uses: `[section]` headers and
//! `"key" = "value"` pairs (keys may be bare or quoted), with `#`
//! comments. Anything outside that subset is a hard error — a policy
//! typo must fail CI, not silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled for the class.
    Allow,
    /// Reported, but does not fail the build.
    Warn,
    /// Reported and fails the build.
    Error,
}

impl Severity {
    /// Parses a lowercase severity name (`allow`/`warn`/`error`).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }

    /// Lowercase name, as written in the policy and reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed policy file.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Workspace-relative source directory → class name
    /// (e.g. `"crates/core"` → `"sim"`).
    pub crates: BTreeMap<String, String>,
    /// Class name → (rule id → severity).
    pub rules: BTreeMap<String, BTreeMap<String, Severity>>,
    /// Workspace-relative file path → rule id exempted for that file
    /// (the file *owns* the invariant the rule protects).
    pub exempt: BTreeMap<String, Vec<String>>,
}

/// A policy parse or validation error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line in the policy file (0 for file-level errors).
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy error (line {}): {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyError {}

impl Policy {
    /// Reads and parses the policy at `path`.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] when the file is unreadable or malformed.
    pub fn load(path: &Path) -> Result<Policy, PolicyError> {
        let text = std::fs::read_to_string(path).map_err(|e| PolicyError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Policy::parse(&text)
    }

    /// Parses policy text.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] on the first malformed or unknown construct.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        let mut policy = Policy::default();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let err = |message: String| PolicyError {
                line: lineno,
                message,
            };
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err("unclosed section header".into()))?
                    .trim();
                section = Some(name.to_string());
                continue;
            }
            let (key, value) = parse_pair(line).map_err(&err)?;
            match section.as_deref() {
                Some("crates") => {
                    policy.crates.insert(key, value);
                }
                Some(s) if s.starts_with("rules.") => {
                    let class = s["rules.".len()..].to_string();
                    let sev = Severity::parse(&value)
                        .ok_or_else(|| err(format!("unknown severity `{value}`")))?;
                    policy.rules.entry(class).or_default().insert(key, sev);
                }
                Some("exempt") => {
                    policy.exempt.entry(key).or_default().push(value);
                }
                Some(other) => return Err(err(format!("unknown section `[{other}]`"))),
                None => return Err(err("entry before any [section]".into())),
            }
        }
        policy.validate()?;
        Ok(policy)
    }

    fn validate(&self) -> Result<(), PolicyError> {
        let err = |message: String| PolicyError { line: 0, message };
        if self.crates.is_empty() {
            return Err(err("policy maps no crate directories".into()));
        }
        for (dir, class) in &self.crates {
            if !self.rules.contains_key(class) {
                return Err(err(format!(
                    "`{dir}` is class `{class}` but there is no [rules.{class}] section"
                )));
            }
        }
        let known = crate::rules::rule_ids();
        for (class, rules) in &self.rules {
            for rule in rules.keys() {
                if !known.contains(&rule.as_str()) {
                    return Err(err(format!(
                        "[rules.{class}] configures unknown rule `{rule}` \
                         (known: {})",
                        known.join(", ")
                    )));
                }
            }
        }
        for rules in self.exempt.values() {
            for rule in rules {
                if !known.contains(&rule.as_str()) {
                    return Err(err(format!("[exempt] names unknown rule `{rule}`")));
                }
            }
        }
        Ok(())
    }

    /// Severity of `rule` for files of `class` (Allow when unconfigured).
    pub fn severity(&self, class: &str, rule: &str) -> Severity {
        self.rules
            .get(class)
            .and_then(|m| m.get(rule))
            .copied()
            .unwrap_or(Severity::Allow)
    }

    /// True when `path` (workspace-relative) is exempt from `rule`.
    pub fn exempted(&self, path: &str, rule: &str) -> bool {
        self.exempt
            .get(path)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `key = "value"` where key is bare or quoted.
fn parse_pair(line: &str) -> Result<(String, String), String> {
    let (key, value) = line
        .split_once('=')
        .ok_or_else(|| format!("expected `key = \"value\"`, found `{line}`"))?;
    let key = unquote(key.trim())?;
    let value = unquote(value.trim())?;
    Ok((key, value))
}

fn unquote(s: &str) -> Result<String, String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        if inner.contains('"') {
            return Err(format!("stray quote inside `{s}`"));
        }
        Ok(inner.to_string())
    } else if s.is_empty() || s.contains(char::is_whitespace) {
        Err(format!("bare key/value `{s}` may not contain whitespace"))
    } else {
        Ok(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        # comment
        [crates]
        "crates/core" = "sim"
        "crates/bench" = "tools"

        [rules.sim]
        sim-unwrap = "error"    # trailing comment
        wall-clock = "warn"

        [rules.tools]
        entropy-rng = "error"

        [exempt]
        "crates/core/src/event.rs" = "event-time-regression"
    "#;

    #[test]
    fn parses_the_full_shape() {
        let p = Policy::parse(GOOD).unwrap();
        assert_eq!(p.crates["crates/core"], "sim");
        assert_eq!(p.severity("sim", "sim-unwrap"), Severity::Error);
        assert_eq!(p.severity("sim", "wall-clock"), Severity::Warn);
        assert_eq!(p.severity("sim", "entropy-rng"), Severity::Allow);
        assert_eq!(p.severity("nonexistent", "sim-unwrap"), Severity::Allow);
        assert!(p.exempted("crates/core/src/event.rs", "event-time-regression"));
        assert!(!p.exempted("crates/core/src/sim.rs", "event-time-regression"));
    }

    #[test]
    fn rejects_malformed_and_unknown_constructs() {
        for (bad, why) in [
            ("key = \"v\"", "entry before section"),
            ("[crates]\nbroken line", "no equals"),
            ("[what]\nk = \"v\"", "unknown section"),
            (
                "[crates]\n\"crates/x\" = \"sim\"\n[rules.sim]\nnot-a-rule = \"error\"",
                "unknown rule",
            ),
            (
                "[crates]\n\"crates/x\" = \"sim\"\n[rules.sim]\nsim-unwrap = \"fatal\"",
                "unknown severity",
            ),
            (
                "[crates]\n\"crates/x\" = \"ghost\"",
                "missing class section",
            ),
        ] {
            assert!(Policy::parse(bad).is_err(), "accepted: {why}");
        }
    }
}
