//! Diagnostic types shared by the rule implementations, the allowlist, and
//! the reporters.

use std::fmt;

/// The invariants ecds-lint enforces (DESIGN.md §9, §14); R1 became
/// structural and R2–R4 moved to clippy, so the rule ids keep their
/// historical numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R5: no function in a result-affecting crate (or the checkpoint
    /// codec) may reach a nondeterminism source — directly or through
    /// the call graph, including sources laundered through a helper
    /// crate.
    TaintDiscipline,
    /// R6: functions annotated `// lint: alloc-free` must not
    /// transitively reach allocating constructs outside audited sites.
    AllocFree,
}

impl RuleId {
    /// The stable identifier used in `lint.toml`, CLI output, and
    /// `results/LINT.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::TaintDiscipline => "R5-taint",
            RuleId::AllocFree => "R6-allocfree",
        }
    }

    /// Parses the stable identifier (for allowlist entries).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "R5-taint" => Some(RuleId::TaintDiscipline),
            "R6-allocfree" => Some(RuleId::AllocFree),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub fn all() -> [RuleId; 2] {
        [RuleId::TaintDiscipline, RuleId::AllocFree]
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which invariant was violated.
    pub rule: RuleId,
    /// Workspace-relative path with forward slashes
    /// (`crates/sim/src/state.rs`).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 0-based column of the offending token.
    pub column: usize,
    /// The trimmed source line, for context and allowlist matching.
    pub snippet: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// `Some(reason)` when an allowlist entry covers this diagnostic.
    pub allowed: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.column, self.rule, self.message
        )?;
        writeln!(f, "    | {}", self.snippet)?;
        write!(f, "    = suggestion: {}", self.suggestion)?;
        if let Some(reason) = &self.allowed {
            write!(f, "\n    = allowed: {reason}")?;
        }
        Ok(())
    }
}
