//! Reporters: the human diagnostic listing and the machine-readable JSON
//! artifact (`results/LINT.json`) that tracks rule/violation counts
//! across PRs.
//!
//! JSON schema 4 carries per-rule counts for R5-taint and R6-allocfree,
//! the full diagnostic lists, stale and ambiguous allowlist entries, and
//! the run's wall time. Everything except `elapsed_ms` is byte-stable; CI
//! diffs the committed artifact with `-I '"elapsed_ms"'`.

use std::fmt::Write as _;

use crate::diag::RuleId;
use crate::engine::RunResult;

/// The `results/LINT.json` schema version this reporter emits.
pub const JSON_SCHEMA: u32 = 4;

/// Renders the human report: every unallowlisted violation in full, a
/// one-line entry per allowed site (with its audit reason when `verbose`),
/// stale and ambiguous allowlist entries, parse errors, and a summary
/// line with the wall time.
pub fn human(result: &RunResult, verbose: bool) -> String {
    let mut out = String::new();
    for d in result.violations() {
        let _ = writeln!(out, "{d}\n");
    }
    if verbose {
        for d in result.allowed() {
            let reason = d.allowed.as_deref().unwrap_or("");
            let _ = writeln!(
                out,
                "{}:{}:{} {} allowed: {}",
                d.file, d.line, d.column, d.rule, reason
            );
        }
    }
    for e in &result.stale_entries {
        let _ = writeln!(
            out,
            "lint.toml:{}: stale [[allow]] entry ({} {} pattern `{}`) matches no code — \
             delete it",
            e.defined_at, e.rule, e.file, e.pattern
        );
    }
    for (e, n) in &result.ambiguous_entries {
        let _ = writeln!(
            out,
            "lint.toml:{}: ambiguous [[allow]] entry ({} {} pattern `{}`) matches {n} \
             diagnostics — anchor it with `line = N` or a longer pattern",
            e.defined_at, e.rule, e.file, e.pattern
        );
    }
    for e in &result.parse_errors {
        let _ = writeln!(out, "parse error: {e}");
    }
    let violations = result.violations().count();
    let allowed = result.allowed().count();
    let _ = write!(
        out,
        "ecds-lint: {} files scanned, {} violation{}, {} allowed, {} stale allowlist \
         entr{}, {} ambiguous, {} parse error{}, {} ms",
        result.files_scanned,
        violations,
        if violations == 1 { "" } else { "s" },
        allowed,
        result.stale_entries.len(),
        if result.stale_entries.len() == 1 {
            "y"
        } else {
            "ies"
        },
        result.ambiguous_entries.len(),
        result.parse_errors.len(),
        if result.parse_errors.len() == 1 {
            ""
        } else {
            "s"
        },
        result.elapsed_ms,
    );
    out
}

/// Renders `results/LINT.json` (schema 4): per-rule counts, the full
/// diagnostic lists, and allowlist health, deterministically ordered.
pub fn json(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {JSON_SCHEMA},");
    let _ = writeln!(out, "  \"files_scanned\": {},", result.files_scanned);
    let _ = writeln!(out, "  \"elapsed_ms\": {},", result.elapsed_ms);
    out.push_str("  \"rules\": {\n");
    let rules = RuleId::all();
    for (i, rule) in rules.iter().enumerate() {
        let violations = result.violations().filter(|d| d.rule == *rule).count();
        let allowed = result.allowed().filter(|d| d.rule == *rule).count();
        let _ = write!(
            out,
            "    \"{}\": {{ \"violations\": {violations}, \"allowed\": {allowed} }}",
            rule.as_str()
        );
        out.push_str(if i + 1 < rules.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    write_diag_array(&mut out, "violations", result, false);
    out.push_str(",\n");
    write_diag_array(&mut out, "allowed", result, true);
    out.push_str(",\n");
    out.push_str("  \"stale_allowlist\": [");
    for (i, e) in result.stale_entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{ \"rule\": \"{}\", \"file\": \"{}\", \"pattern\": \"{}\" }}",
            e.rule,
            escape(&e.file),
            escape(&e.pattern)
        );
    }
    out.push_str("],\n");
    out.push_str("  \"ambiguous_allowlist\": [");
    for (i, (e, n)) in result.ambiguous_entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{ \"rule\": \"{}\", \"file\": \"{}\", \"pattern\": \"{}\", \"matches\": {n} }}",
            e.rule,
            escape(&e.file),
            escape(&e.pattern)
        );
    }
    out.push_str("],\n");
    let _ = writeln!(out, "  \"parse_errors\": {},", result.parse_errors.len());
    let _ = writeln!(out, "  \"clean\": {}", result.is_clean());
    out.push_str("}\n");
    out
}

fn write_diag_array(out: &mut String, key: &str, result: &RunResult, allowed: bool) {
    let _ = write!(out, "  \"{key}\": [");
    let mut first = true;
    for d in result
        .diagnostics
        .iter()
        .filter(|d| d.allowed.is_some() == allowed)
    {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        let _ = write!(
            out,
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"",
            d.rule,
            escape(&d.file),
            d.line,
            escape(&d.message)
        );
        if let Some(reason) = &d.allowed {
            let _ = write!(out, ", \"reason\": \"{}\"", escape(reason));
        }
        let _ = write!(out, " }}");
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push(']');
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn result_with_one_violation() -> RunResult {
        RunResult {
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                rule: RuleId::TaintDiscipline,
                file: "crates/core/src/x.rs".to_string(),
                line: 7,
                column: 4,
                snippet: "let m = HashMap::new();".to_string(),
                message: "`f` uses `HashMap`: nondeterministic".to_string(),
                suggestion: "use BTreeMap".to_string(),
                allowed: None,
            }],
            ..RunResult::default()
        }
    }

    #[test]
    fn human_report_lists_violation_and_summary() {
        let text = human(&result_with_one_violation(), false);
        assert!(text.contains("crates/core/src/x.rs:7:4"));
        assert!(text.contains("R5-taint"));
        assert!(text.contains("1 violation,"));
        assert!(text.contains("3 files scanned"), "{text}");
    }

    #[test]
    fn json_report_has_counts_and_escapes() {
        let text = json(&result_with_one_violation());
        assert!(text.contains("\"schema\": 4"));
        assert!(text.contains("\"R5-taint\": { \"violations\": 1, \"allowed\": 0 }"));
        assert!(text.contains("\"R6-allocfree\": { \"violations\": 0, \"allowed\": 0 }"));
        assert!(!text.contains("R1-epoch"), "{text}");
        assert!(text.contains("`f` uses `HashMap`: nondeterministic"));
        assert!(text.contains("\"clean\": false"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn ambiguous_entries_fail_the_run_and_are_reported() {
        let mut r = result_with_one_violation();
        r.diagnostics.clear();
        r.ambiguous_entries.push((
            crate::allowlist::AllowEntry {
                rule: RuleId::AllocFree,
                file: "crates/a.rs".to_string(),
                pattern: ".push(".to_string(),
                line: None,
                reason: "audited".to_string(),
                defined_at: 12,
            },
            2,
        ));
        assert!(!r.is_clean());
        let text = human(&r, false);
        assert!(text.contains("ambiguous [[allow]] entry"), "{text}");
        assert!(text.contains("matches 2 diagnostics"), "{text}");
        let js = json(&r);
        assert!(
            js.contains("\"ambiguous_allowlist\": [{ \"rule\": \"R6-allocfree\""),
            "{js}"
        );
    }
}
