//! The lint driver: workspace discovery, model construction, rule
//! execution, and allowlist application.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::allowlist::{AllowEntry, Allowlist};
use crate::diag::Diagnostic;
use crate::model::{self, Workspace};
use crate::rules;
use crate::source;

/// Directories scanned inside each crate under `crates/`.
const CRATE_SUBDIRS: &[&str] = &["src", "tests", "benches"];

/// Path components that exclude a file from linting: rule fixtures are
/// intentional violations.
const EXCLUDED_COMPONENTS: &[&str] = &["fixtures"];

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Files parsed and scanned.
    pub files_scanned: usize,
    /// Every diagnostic, allowlisted or not, sorted by (file, line,
    /// column, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Allowlist entries that matched no diagnostic.
    pub stale_entries: Vec<AllowEntry>,
    /// Allowlist entries that matched more than one diagnostic, with
    /// their match counts; such entries excuse nothing.
    pub ambiguous_entries: Vec<(AllowEntry, usize)>,
    /// Files that failed to parse (path: message). A parse failure fails
    /// the run: the linter must not certify code it could not read.
    pub parse_errors: Vec<String>,
    /// Wall-clock time of the run in milliseconds. Excluded from the
    /// artifact drift check (`git diff -I` in CI); everything else in
    /// the JSON report is byte-stable.
    pub elapsed_ms: u128,
}

impl RunResult {
    /// Diagnostics not covered by the allowlist.
    pub fn violations(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_none())
    }

    /// Diagnostics excused by the allowlist.
    pub fn allowed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_some())
    }

    /// Whether the workspace passes: no unallowlisted violations, no
    /// stale or ambiguous allowlist entries, and no unparseable files.
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
            && self.stale_entries.is_empty()
            && self.ambiguous_entries.is_empty()
            && self.parse_errors.is_empty()
    }
}

/// Lints the workspace rooted at `root`, reading the allowlist from
/// `<root>/lint.toml` (missing file = empty allowlist).
pub fn run_workspace(root: &Path) -> io::Result<RunResult> {
    let allowlist_path = root.join("lint.toml");
    let allowlist = if allowlist_path.exists() {
        let text = std::fs::read_to_string(&allowlist_path)?;
        Allowlist::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
    } else {
        Allowlist::default()
    };
    run_with_allowlist(root, &allowlist)
}

/// The lint's own wall time is reporting-only: `elapsed_ms` is excluded
/// from the report's byte-stability contract (CI masks it when diffing),
/// so the clock ban in `clippy.toml` does not apply to this one read.
#[allow(clippy::disallowed_methods)]
fn start_clock() -> Instant {
    Instant::now()
}

/// Lints the workspace with an explicit allowlist (test entry point).
pub fn run_with_allowlist(root: &Path, allowlist: &Allowlist) -> io::Result<RunResult> {
    let started = start_clock();
    let mut parse_errors = Vec::new();
    let mut files = Vec::new();
    for rel_path in discover(root)? {
        match source::load(root, &rel_path) {
            Ok(file) => files.push(file),
            Err(msg) => parse_errors.push(msg),
        }
    }
    let deps = model::crate_deps(root);
    let ws = Workspace::new(files, &deps);
    let mut result = finish_run(&ws, allowlist);
    result.parse_errors = parse_errors;
    result.elapsed_ms = started.elapsed().as_millis();
    Ok(result)
}

/// Lints in-memory `(rel_path, source)` pairs with permissive crate
/// resolution — the fixture/property-test entry point. Source order
/// does not affect the result (the workspace sorts by path).
pub fn run_on_sources(
    sources: &[(&str, &str)],
    allowlist: &Allowlist,
) -> Result<RunResult, String> {
    let started = start_clock();
    let ws = Workspace::from_sources(sources)?;
    let mut result = finish_run(&ws, allowlist);
    result.elapsed_ms = started.elapsed().as_millis();
    Ok(result)
}

/// Shared back half of a run: rules, deterministic ordering, allowlist.
fn finish_run(ws: &Workspace, allowlist: &Allowlist) -> RunResult {
    let mut result = RunResult {
        files_scanned: ws.files.len(),
        ..RunResult::default()
    };
    rules::check_workspace(ws, &mut result.diagnostics);
    result.diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    let outcome = allowlist.apply(&mut result.diagnostics);
    result.stale_entries = outcome.stale;
    result.ambiguous_entries = outcome.ambiguous;
    result
}

/// Collects every lintable `.rs` file: `crates/*/{src,tests,benches}` and
/// the workspace-level `tests/` and `examples/` directories. Sorted for
/// deterministic output; fixture directories excluded.
pub fn discover(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            for sub in CRATE_SUBDIRS {
                let dir = entry.path().join(sub);
                if dir.is_dir() {
                    collect_rs(&dir, &mut files)?;
                }
            }
        }
    }
    for top in ["tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .filter(|p| {
            !p.components().any(|c| {
                EXCLUDED_COMPONENTS
                    .iter()
                    .any(|x| c.as_os_str().to_string_lossy() == *x)
            })
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to find the workspace root: the first
/// directory containing both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
