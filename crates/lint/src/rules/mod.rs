//! The rule implementations. Each rule runs over the whole-workspace
//! [`Workspace`] model (functions, body tokens, resolved call graph).
//! Scoping (which crates, which roles, test vs. non-test regions) lives
//! inside each rule so the engine can run all rules over everything
//! unconditionally. Per-file invariants that clippy can express
//! (determinism bans, float comparison, panic audits) live in
//! `clippy.toml` and the crate-root `deny` attributes instead (DESIGN.md
//! §9).

pub mod allocfree;
pub mod taint;

use crate::diag::Diagnostic;
use crate::model::Workspace;

/// Crates whose code can reach `results/` bytes: the pmf arithmetic, the
/// cluster/workload models, the mapper, the engine, the extensions, and
/// the statistics that format the report. Nondeterminism in any of these
/// invalidates the reproduction's byte-stability argument (DESIGN.md §9).
pub const RESULT_AFFECTING_CRATES: &[&str] = &[
    "pmf", "cluster", "workload", "core", "sim", "ext", "stats", "ecds",
];

/// Runs every rule over the workspace model, appending diagnostics.
pub fn check_workspace(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    taint::check(ws, out);
    allocfree::check(ws, out);
}
