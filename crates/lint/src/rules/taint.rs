//! R5 determinism-taint: no function in a result-affecting crate, or in
//! the checkpoint codec, may reach a nondeterminism source — directly or
//! through the workspace call graph.
//!
//! `results/` is asserted byte-identical across reruns, machines, and
//! thread counts. `HashMap`/`HashSet` iteration order and `RandomState`
//! are seeded per process; wall-clock reads and entropy-seeded RNGs are
//! nondeterministic by construction. Clippy bans the std names
//! workspace-wide (`clippy.toml`), but it judges one call site at a time:
//! it cannot see a simulation function that calls a helper crate whose
//! innards read the clock under a scoped `#[allow]`, and the entropy RNG
//! names do not exist in the vendored `rand`, so clippy cannot resolve
//! them at all. R5 treats every function whose body names a `BANNED`
//! identifier as a taint source, propagates taint backward over the
//! resolved call graph, and flags every function in a flagged crate that
//! reaches a source: a direct use at the banned identifier, a laundered
//! one at the signature with a representative call chain.
//!
//! `#[cfg(test)]` regions and `tests/`/`benches/` files are outside the
//! graph: test-only iteration cannot reach `results/`.

use std::collections::VecDeque;

use crate::diag::{Diagnostic, RuleId};
use crate::model::Workspace;
use crate::rules::RESULT_AFFECTING_CRATES;

/// Banned identifier → (what is wrong, what to use instead).
const BANNED: &[(&str, &str, &str)] = &[
    (
        "HashMap",
        "nondeterministic iteration order",
        "use BTreeMap (deterministic key order) or a Vec keyed by dense indices",
    ),
    (
        "HashSet",
        "nondeterministic iteration order",
        "use BTreeSet (deterministic order) or a sorted Vec",
    ),
    (
        "RandomState",
        "per-process random hasher state",
        "use BTree collections or a fixed, documented hasher",
    ),
    (
        "SystemTime",
        "wall-clock read",
        "thread simulated Time through the call instead of reading the OS clock",
    ),
    (
        "Instant",
        "wall-clock read",
        "move timing to crates/bench; simulation code must be replayable",
    ),
    (
        "thread_rng",
        "OS-entropy RNG",
        "use the vendored StdRng::seed_from_u64 with an explicit trial seed",
    ),
    (
        "from_entropy",
        "OS-entropy RNG seeding",
        "use the vendored StdRng::seed_from_u64 with an explicit trial seed",
    ),
    (
        "OsRng",
        "OS-entropy RNG",
        "use the vendored StdRng::seed_from_u64 with an explicit trial seed",
    ),
];

/// Whether `name` is a banned identifier; a function whose body names one
/// is a taint source, wherever it lives.
pub fn is_banned(name: &str) -> bool {
    BANNED.iter().any(|(n, _, _)| *n == name)
}

/// Whether R5 flags functions in `crate_name`: every crate that shapes
/// `results/` bytes, plus the checkpoint codec, whose bytes must restore
/// identically on any machine.
fn flagged(crate_name: &str) -> bool {
    crate_name == "persist" || RESULT_AFFECTING_CRATES.contains(&crate_name)
}

/// Runs the rule over the workspace model.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let n = ws.fns.len();
    let member: Vec<bool> = {
        let mut m = vec![false; n];
        for i in ws.graph_members() {
            m[i] = true;
        }
        m
    };

    // Reverse adjacency over the resolved graph, members only.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in ws.callees.iter().enumerate() {
        if !member[caller] {
            continue;
        }
        for &callee in callees {
            if member[callee] {
                callers[callee].push(caller);
            }
        }
    }

    // Multi-source backward BFS from every taint source. `next_hop[i]`
    // points one step along a shortest path toward a source (a source
    // points at itself), giving each flagged function a deterministic
    // chain.
    let mut next_hop: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    for i in 0..n {
        if member[i] && !ws.fns[i].taint_sites.is_empty() {
            next_hop[i] = Some(i);
            queue.push_back(i);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &p in &callers[cur] {
            if next_hop[p].is_none() {
                next_hop[p] = Some(cur);
                queue.push_back(p);
            }
        }
    }

    for i in 0..n {
        let f = &ws.fns[i];
        let file = &ws.files[f.file];
        if !member[i] || !flagged(&file.crate_name) {
            continue;
        }
        let Some(hop) = next_hop[i] else { continue };

        if hop == i {
            let site = &f.taint_sites[0];
            let (_, problem, fix) = BANNED
                .iter()
                .find(|(n, _, _)| *n == site.what)
                .copied()
                .unwrap_or_default();
            out.push(Diagnostic {
                rule: RuleId::TaintDiscipline,
                file: file.rel_path.clone(),
                line: site.line,
                column: site.column,
                snippet: file.line_text(site.line).to_string(),
                message: format!("`{}` uses `{}`: {problem}", f.label(), site.what),
                suggestion: fix.to_string(),
                allowed: None,
            });
            continue;
        }

        // Walk the chain to the source for the report.
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(next) = next_hop[cur] {
            if next == cur {
                break;
            }
            chain.push(next);
            cur = next;
        }
        let source = *chain.last().expect("chain starts at i");
        let banned = &ws.fns[source].taint_sites[0].what;
        let rendered: Vec<String> = chain
            .iter()
            .map(|&k| {
                format!(
                    "{}::{}",
                    ws.files[ws.fns[k].file].crate_name,
                    ws.fns[k].label()
                )
            })
            .collect();
        out.push(Diagnostic {
            rule: RuleId::TaintDiscipline,
            file: file.rel_path.clone(),
            line: f.line,
            column: f.column,
            snippet: file.line_text(f.line).to_string(),
            message: format!(
                "`{}` transitively reaches banned `{}` via {}",
                f.label(),
                banned,
                rendered.join(" -> "),
            ),
            suggestion: "break the chain: inject the nondeterministic input (time, \
                         randomness, ordering) as an explicit parameter at the crate \
                         boundary, or allowlist this function in lint.toml with a \
                         rationale proving the tainted callee cannot affect results"
                .to_string(),
            allowed: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_hop_laundering_through_a_helper_crate_is_flagged() {
        let ws = Workspace::from_sources(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn step(w: &mut World) { jitter(w); }\n",
            ),
            (
                "crates/bench/src/noise.rs",
                "pub fn jitter(w: &mut World) { perturb(w); }\n\
                 fn perturb(w: &mut World) { let _ = rand::thread_rng(); }\n",
            ),
        ])
        .unwrap();
        let mut out = Vec::new();
        check(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        let d = &out[0];
        assert_eq!(d.rule, RuleId::TaintDiscipline);
        assert_eq!(d.file, "crates/sim/src/engine.rs");
        assert!(d.message.contains("thread_rng"), "{}", d.message);
        assert!(
            d.message
                .contains("sim::step -> bench::jitter -> bench::perturb"),
            "{}",
            d.message
        );
    }

    #[test]
    fn direct_uses_are_flagged_at_the_banned_identifier() {
        let ws = Workspace::from_sources(&[(
            "crates/sim/src/engine.rs",
            "pub fn step() {\n    let _ = std::time::Instant::now();\n}\n",
        )])
        .unwrap();
        let mut out = Vec::new();
        check(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 2);
        assert!(
            out[0].message.contains("`step` uses `Instant`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn sources_inside_result_affecting_crates_taint_their_callers() {
        // The direct use in core and the sim caller that reaches it are
        // both flagged; the persist codec is held to the same rule.
        let ws = Workspace::from_sources(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn step() { helper_now(); }\n",
            ),
            (
                "crates/core/src/time.rs",
                "pub fn helper_now() { let _ = std::time::Instant::now(); }\n",
            ),
            ("crates/persist/src/lib.rs", "pub fn stamp() { step(); }\n"),
        ])
        .unwrap();
        let mut out = Vec::new();
        check(&ws, &mut out);
        let files: Vec<&str> = out.iter().map(|d| d.file.as_str()).collect();
        assert_eq!(
            files,
            vec![
                "crates/core/src/time.rs",
                "crates/persist/src/lib.rs",
                "crates/sim/src/engine.rs"
            ],
            "{out:#?}"
        );
        assert!(out[1]
            .message
            .contains("persist::stamp -> sim::step -> core::helper_now"));
    }

    #[test]
    fn non_result_affecting_callers_are_not_flagged() {
        let ws = Workspace::from_sources(&[(
            "crates/bench/src/driver.rs",
            "pub fn run() { now(); }\npub fn now() { let _ = std::time::Instant::now(); }\n",
        )])
        .unwrap();
        let mut out = Vec::new();
        check(&ws, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }
}
