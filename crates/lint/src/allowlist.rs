//! The `lint.toml` allowlist: audited violations, each carrying the
//! rationale that justifies it.
//!
//! The file is an array of `[[allow]]` tables. Every entry must name the
//! rule, the exact workspace-relative file, a `pattern` substring that
//! must appear on the flagged source line, and a non-empty `reason` the
//! lint prints with the site; an optional bare-integer `line` pins the
//! entry to one source line. An entry that matches no current diagnostic
//! is **stale** and fails the run: allowlists must shrink with the code
//! they excuse, never outlive it. An entry that matches *more than one*
//! diagnostic is **ambiguous** and also fails the run: every audit
//! rationale must be anchored to exactly the site it audited, or a new
//! violation sharing the pattern would be silently excused by an old
//! reason (add `line = N` or a longer pattern to disambiguate).
//!
//! The parser is a deliberately small TOML subset (the workspace vendors
//! no `toml` crate): `[[allow]]` headers, `key = "value"` pairs with
//! basic-string escapes, `key = 'value'` literal strings, comments, and
//! blank lines. Anything else is a hard error — an allowlist that cannot
//! be parsed must not silently allow nothing (or everything).

use crate::diag::{Diagnostic, RuleId};

/// One audited, justified violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule being excused.
    pub rule: RuleId,
    /// Workspace-relative file, forward slashes, exact match.
    pub file: String,
    /// Substring that must occur on the flagged source line.
    pub pattern: String,
    /// Optional 1-based source line pin, for disambiguating entries
    /// whose pattern matches several diagnostics in one file.
    pub line: Option<usize>,
    /// Why the site is sound. Printed with the diagnostic.
    pub reason: String,
    /// 1-based line in `lint.toml` where the entry starts (for errors).
    pub defined_at: usize,
}

impl AllowEntry {
    /// Whether this entry covers the diagnostic.
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule
            && self.file == d.file
            && self.line.is_none_or(|l| l == d.line)
            && d.snippet.contains(&self.pattern)
    }
}

/// What applying an allowlist found wrong with the allowlist itself.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Entries that matched no diagnostic (the code they excused is
    /// gone — delete them).
    pub stale: Vec<AllowEntry>,
    /// Entries that matched more than one diagnostic, with the match
    /// count (anchor them with `line = N` or a longer pattern).
    pub ambiguous: Vec<(AllowEntry, usize)>,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses `lint.toml` text. Returns the first error with its line
    /// number.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<(usize, PartialEntry)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some((at, partial)) = current.take() {
                    entries.push(partial.finish(at)?);
                }
                current = Some((lineno, PartialEntry::default()));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "lint.toml:{lineno}: unknown table `{line}` (only [[allow]] is supported)"
                ));
            }
            // `line = N` is the one bare-integer key.
            if let Some(rest) = line.strip_prefix("line") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    let value = value.split('#').next().unwrap_or("").trim();
                    let Some((_, partial)) = current.as_mut() else {
                        return Err(format!(
                            "lint.toml:{lineno}: `line` outside an [[allow]] entry"
                        ));
                    };
                    partial.line = Some(value.parse::<usize>().map_err(|_| {
                        format!("lint.toml:{lineno}: `line` must be a bare integer, got `{value}`")
                    })?);
                    continue;
                }
            }
            let Some((key, value)) = parse_key_value(line) else {
                return Err(format!(
                    "lint.toml:{lineno}: expected `key = \"value\"`, got `{line}`"
                ));
            };
            let Some((_, partial)) = current.as_mut() else {
                return Err(format!(
                    "lint.toml:{lineno}: `{key}` outside an [[allow]] entry"
                ));
            };
            match key {
                "rule" => {
                    partial.rule =
                        Some(RuleId::parse(&value).ok_or_else(|| {
                            format!("lint.toml:{lineno}: unknown rule id `{value}`")
                        })?)
                }
                "file" => partial.file = Some(value),
                "pattern" => partial.pattern = Some(value),
                "reason" => partial.reason = Some(value),
                other => {
                    return Err(format!("lint.toml:{lineno}: unknown key `{other}`"));
                }
            }
        }
        if let Some((at, partial)) = current.take() {
            entries.push(partial.finish(at)?);
        }
        Ok(Allowlist { entries })
    }

    /// Marks allowed diagnostics in place. Each entry must anchor to
    /// exactly one diagnostic: zero matches makes it stale, two or more
    /// make it ambiguous (and excuse nothing); both fail the run.
    pub fn apply(&self, diagnostics: &mut [Diagnostic]) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        for e in &self.entries {
            let matched: Vec<usize> = diagnostics
                .iter()
                .enumerate()
                .filter(|(_, d)| e.matches(d))
                .map(|(i, _)| i)
                .collect();
            match matched.as_slice() {
                [] => outcome.stale.push(e.clone()),
                [one] => {
                    let d = &mut diagnostics[*one];
                    if d.allowed.is_none() {
                        d.allowed = Some(e.reason.clone());
                    }
                }
                many => outcome.ambiguous.push((e.clone(), many.len())),
            }
        }
        outcome
    }
}

#[derive(Debug, Default)]
struct PartialEntry {
    rule: Option<RuleId>,
    file: Option<String>,
    pattern: Option<String>,
    line: Option<usize>,
    reason: Option<String>,
}

impl PartialEntry {
    fn finish(self, at: usize) -> Result<AllowEntry, String> {
        let missing = |k: &str| format!("lint.toml:{at}: [[allow]] entry is missing `{k}`");
        let reason = self.reason.ok_or_else(|| missing("reason"))?;
        if reason.trim().is_empty() {
            return Err(format!(
                "lint.toml:{at}: [[allow]] entry has an empty `reason` — every excused \
                 violation must document why it is sound"
            ));
        }
        Ok(AllowEntry {
            rule: self.rule.ok_or_else(|| missing("rule"))?,
            file: self.file.ok_or_else(|| missing("file"))?,
            pattern: self.pattern.ok_or_else(|| missing("pattern"))?,
            line: self.line,
            reason,
            defined_at: at,
        })
    }
}

/// Parses `key = "value"` / `key = 'value'`, returning the unescaped
/// value. Trailing comments after the closing quote are ignored.
fn parse_key_value(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    let rest = rest.trim();
    let mut chars = rest.chars();
    let quote = chars.next()?;
    match quote {
        '"' => {
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '\\' => match chars.next()? {
                        'n' => value.push('\n'),
                        't' => value.push('\t'),
                        c => value.push(c),
                    },
                    '"' => break,
                    c => value.push(c),
                }
            }
            Some((key, value))
        }
        '\'' => {
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '\'' => break,
                    c => value.push(c),
                }
            }
            Some((key, value))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: RuleId, file: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line: 1,
            column: 0,
            snippet: snippet.to_string(),
            message: String::new(),
            suggestion: String::new(),
            allowed: None,
        }
    }

    #[test]
    fn parses_entries_and_matches_diagnostics() {
        let toml = r#"
# audited sites
[[allow]]
rule = "R6-allocfree"
file = "crates/pmf/src/scratch.rs"
pattern = 'out.reserve(n)'
reason = "amortized: the buffer retains its capacity across calls"
"#;
        let list = Allowlist::parse(toml).unwrap();
        assert_eq!(list.entries.len(), 1);
        let mut ds = vec![diag(
            RuleId::AllocFree,
            "crates/pmf/src/scratch.rs",
            "out.reserve(n);",
        )];
        let outcome = list.apply(&mut ds);
        assert!(outcome.stale.is_empty());
        assert!(outcome.ambiguous.is_empty());
        assert!(ds[0].allowed.is_some());
    }

    #[test]
    fn unmatched_entries_are_reported_stale() {
        let toml = "[[allow]]\nrule = \"R6-allocfree\"\nfile = \"crates/x.rs\"\n\
                    pattern = \"gone()\"\nreason = \"was audited\"\n";
        let list = Allowlist::parse(toml).unwrap();
        let mut ds: Vec<Diagnostic> = Vec::new();
        let outcome = list.apply(&mut ds);
        assert_eq!(outcome.stale.len(), 1);
        assert_eq!(outcome.stale[0].pattern, "gone()");
    }

    #[test]
    fn wrong_rule_or_file_does_not_match() {
        let toml = "[[allow]]\nrule = \"R5-taint\"\nfile = \"crates/a.rs\"\n\
                    pattern = \"Instant::now()\"\nreason = \"reporting only\"\n";
        let list = Allowlist::parse(toml).unwrap();
        let mut ds = vec![
            diag(RuleId::AllocFree, "crates/a.rs", "Instant::now()"),
            diag(RuleId::TaintDiscipline, "crates/b.rs", "Instant::now()"),
        ];
        let outcome = list.apply(&mut ds);
        assert_eq!(outcome.stale.len(), 1);
        assert!(ds.iter().all(|d| d.allowed.is_none()));
    }

    #[test]
    fn an_entry_matching_two_diagnostics_is_ambiguous_and_excuses_neither() {
        let toml = "[[allow]]\nrule = \"R6-allocfree\"\nfile = \"crates/a.rs\"\n\
                    pattern = \".push(\"\nreason = \"audited once\"\n";
        let list = Allowlist::parse(toml).unwrap();
        let mut ds = vec![
            diag(RuleId::AllocFree, "crates/a.rs", "x.push(1)"),
            diag(RuleId::AllocFree, "crates/a.rs", "y.push(2)"),
        ];
        let outcome = list.apply(&mut ds);
        assert_eq!(outcome.ambiguous.len(), 1);
        assert_eq!(outcome.ambiguous[0].1, 2);
        assert!(outcome.stale.is_empty());
        assert!(ds.iter().all(|d| d.allowed.is_none()));
    }

    #[test]
    fn a_line_pin_disambiguates_a_shared_pattern() {
        let toml = "[[allow]]\nrule = \"R6-allocfree\"\nfile = \"crates/a.rs\"\n\
                    pattern = \".push(\"\nline = 9\nreason = \"the line-9 site is audited\"\n";
        let list = Allowlist::parse(toml).unwrap();
        assert_eq!(list.entries[0].line, Some(9));
        let mut ds = vec![
            diag(RuleId::AllocFree, "crates/a.rs", "x.push(1)"),
            diag(RuleId::AllocFree, "crates/a.rs", "y.push(2)"),
        ];
        ds[0].line = 4;
        ds[1].line = 9;
        let outcome = list.apply(&mut ds);
        assert!(outcome.ambiguous.is_empty(), "{:?}", outcome.ambiguous);
        assert!(outcome.stale.is_empty());
        assert!(ds[0].allowed.is_none());
        assert!(ds[1].allowed.is_some());
    }

    #[test]
    fn non_integer_line_values_are_rejected() {
        let toml = "[[allow]]\nrule = \"R6-allocfree\"\nfile = \"f\"\npattern = \"p\"\n\
                    line = \"9\"\nreason = \"r\"\n";
        assert!(Allowlist::parse(toml).unwrap_err().contains("bare integer"));
    }

    #[test]
    fn missing_or_empty_reason_is_rejected() {
        let no_reason = "[[allow]]\nrule = \"R6-allocfree\"\nfile = \"f\"\npattern = \"p\"\n";
        assert!(Allowlist::parse(no_reason).unwrap_err().contains("reason"));
        let empty =
            "[[allow]]\nrule = \"R6-allocfree\"\nfile = \"f\"\npattern = \"p\"\nreason = \"  \"\n";
        assert!(Allowlist::parse(empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn unknown_rules_keys_and_tables_are_rejected() {
        assert!(Allowlist::parse("[[allow]]\nrule = \"R9-x\"\n").is_err());
        assert!(Allowlist::parse("[[allow]]\nrle = \"R6-allocfree\"\n").is_err());
        assert!(Allowlist::parse("[settings]\n").is_err());
        assert!(Allowlist::parse("rule = \"R6-allocfree\"\n").is_err());
        // Rules that moved to clippy are retired ids, not silent no-ops.
        assert!(Allowlist::parse(
            "[[allow]]\nrule = \"R4-panic\"\nfile = \"f\"\npattern = \"p\"\nreason = \"r\"\n"
        )
        .is_err());
    }

    #[test]
    fn empty_and_comment_only_files_parse() {
        assert!(Allowlist::parse("").unwrap().entries.is_empty());
        assert!(Allowlist::parse("# nothing here\n\n")
            .unwrap()
            .entries
            .is_empty());
    }
}
