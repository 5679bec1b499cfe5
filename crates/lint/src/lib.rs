//! `ecds-lint` — the workspace static-analysis pass for the invariants
//! the results depend on that clippy cannot express: call-graph
//! properties (DESIGN.md §9, §14).
//!
//! `results/` is byte-stable only if no nondeterministic iteration
//! order, wall clock, or OS entropy reaches a result-affecting crate,
//! however many calls away; the hot kernels keep their cost model only
//! if nothing in their call closure allocates. This crate checks those
//! properties on every CI run ([`rules`]):
//!
//! - **R5 determinism-taint**: a result-affecting function may not reach
//!   a banned nondeterminism source (`HashMap`, `Instant`, `thread_rng`,
//!   ...) directly or *transitively* through the workspace call graph
//!   ([`model`]) — laundering `thread_rng` through a helper crate is
//!   flagged with the full call chain.
//! - **R6 alloc-free**: functions annotated `// lint: alloc-free` must
//!   not reach allocating constructs (directly or via callees) outside
//!   audited sites — the hot-kernel allocation-freedom promise as a
//!   static certificate.
//!
//! The per-call-site rules R2 (determinism bans), R3 (float comparison)
//! and R4 (panic audits) are clippy's: `clippy.toml`,
//! `crates/persist/clippy.toml` and the crate-root `deny` attributes of
//! the library crates, with audit reasons in `#[expect(.., reason)]`
//! next to each site. R1, the `CoreState` epoch bump, is the compiler's:
//! module privacy leaves one bumping accessor as the only way to mutate
//! a core's run state.
//!
//! Violations can be excused in `lint.toml` (see [`allowlist`]); an entry
//! that stops matching code is itself an error, and an entry matching
//! more than one diagnostic is an anchoring error, so the allowlist can
//! only shrink with the code it excuses and every rationale stays pinned
//! to its audited site. The parsing stack is the vendored
//! `proc-macro2`/`syn` subset (the same offline-vendoring pattern as
//! `rand`/`proptest`): items are parsed, function bodies
//! stay raw token trees.

#![warn(missing_docs)]

pub mod allowlist;
pub mod diag;
pub mod engine;
pub mod model;
pub mod report;
pub mod rules;
pub mod scan;
pub mod source;

pub use allowlist::{AllowEntry, Allowlist};
pub use diag::{Diagnostic, RuleId};
pub use engine::{find_root, run_on_sources, run_workspace, RunResult};
