//! `ecds-lint` — the workspace static-analysis pass for the invariants
//! the results depend on that clippy cannot express: control-flow and
//! call-graph properties (DESIGN.md §9, §14).
//!
//! The prefix cache is sound only if every [`CoreState`] mutator bumps
//! the epoch on every exit path; `results/` is byte-stable only if no
//! nondeterministic iteration order, wall clock, or OS entropy reaches a
//! result-affecting crate, however many calls away; the hot kernels keep
//! their cost model only if nothing in their call closure allocates.
//! This crate checks those properties on every CI run:
//!
//! - **R1 epoch-discipline** ([`rules`]): public `&mut self` methods on
//!   epoch-guarded types must bump `self.epoch` — since v2, on *every*
//!   exit path, proven by a per-function control-flow graph ([`mod@cfg`])
//!   over statement-parsed bodies.
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
//! next to each site.
//!
//! Violations can be excused in `lint.toml` (see [`allowlist`]); an entry
//! that stops matching code is itself an error, and an entry matching
//! more than one diagnostic is an anchoring error, so the allowlist can
//! only shrink with the code it excuses and every rationale stays pinned
//! to its audited site. The parsing stack is the vendored
//! `proc-macro2`/`syn` subset (the same offline-vendoring pattern as
//! `rand`/`proptest`/`criterion`) extended with a statement-level body
//! parser (`syn::body`) feeding the CFGs.
//!
//! [`CoreState`]: https://docs.rs/ecds-sim

#![warn(missing_docs)]

pub mod allowlist;
pub mod cfg;
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
