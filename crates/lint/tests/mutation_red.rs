//! Mutation checks: the lint must turn red when the invariants it
//! certifies are actually broken in the *real* sources. Each test loads
//! a production file, applies a targeted mutation in memory (injecting an
//! allocation into a certified callee, splicing a `HashMap` into
//! result-affecting code), reruns the rules, and asserts a fresh,
//! unallowlisted diagnostic appears.
//! This is the difference between "the linter runs" and "the linter
//! protects": a rule that cannot catch its own motivating mutation is
//! dead weight.

use std::path::Path;

use ecds_lint::allowlist::Allowlist;
use ecds_lint::diag::{Diagnostic, RuleId};
use ecds_lint::model::Workspace;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn read_source(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Runs the full rule set over in-memory sources with no allowlist and
/// returns the diagnostics for one rule as (line, message) pairs.
fn rule_findings(sources: &[(&str, &str)], rule: RuleId) -> Vec<(usize, String)> {
    let result = ecds_lint::run_on_sources(sources, &Allowlist::default()).expect("sources parse");
    result
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.message.clone()))
        .collect()
}

/// The real allowlist, narrowed to entries for one file (so entries for
/// unrelated files don't show up as stale in a single-file run).
fn real_allowlist_for(rel: &str) -> Allowlist {
    let text = read_source("lint.toml");
    let full = Allowlist::parse(&text).expect("lint.toml parses");
    Allowlist {
        entries: full.entries.into_iter().filter(|e| e.file == rel).collect(),
    }
}

/// Splices `probe` just inside the body of the function whose signature
/// starts on 1-based line `sig_line`: the first `{` after that line.
fn splice_into_body(pristine: &str, sig_line: usize, probe: &str) -> String {
    let sig_byte: usize = pristine
        .lines()
        .take(sig_line - 1)
        .map(|l| l.len() + 1)
        .sum();
    let brace = pristine[sig_byte..]
        .find('{')
        .map(|i| sig_byte + i)
        .expect("function has a body brace");
    format!("{}{{{probe}{}", &pristine[..brace], &pristine[brace + 1..])
}

#[test]
fn injecting_a_push_into_an_evaluate_all_into_callee_turns_the_lint_red() {
    const REL: &str = "crates/core/src/estimate.rs";
    let pristine = read_source(REL);

    let ws = Workspace::from_sources(&[(REL, &pristine)]).expect("estimate.rs parses");
    let root = ws
        .fns
        .iter()
        .position(|f| f.name == "evaluate_all_into")
        .expect("evaluate_all_into exists");
    assert!(
        ws.fns[root].alloc_free_root,
        "evaluate_all_into must carry the `// lint: alloc-free` marker"
    );
    // Pick a real transitive callee with a body to mutate.
    let callee = *ws.callees[root]
        .iter()
        .find(|&&c| c != root && ws.fns[c].body.is_some())
        .expect("evaluate_all_into has in-file callees");
    let callee_name = ws.fns[callee].name.clone();

    let probe = " let mut __probe: Vec<u64> = Vec::new(); __probe.push(1);";
    let mutated = splice_into_body(&pristine, ws.fns[callee].line, probe);

    let baseline = rule_findings(&[(REL, &pristine)], RuleId::AllocFree);
    let mutated_findings = rule_findings(&[(REL, &mutated)], RuleId::AllocFree);
    let fresh: Vec<&(usize, String)> = mutated_findings
        .iter()
        .filter(|f| !baseline.contains(f))
        .collect();
    assert!(
        fresh
            .iter()
            .any(|(_, msg)| msg.contains("alloc-free closure")),
        "pushing inside `{callee_name}` produced no new R6 diagnostic; \
         baseline {baseline:#?}, mutated {mutated_findings:#?}"
    );

    // The real lint.toml cannot excuse the probe either.
    let allowlist = real_allowlist_for(REL);
    let result =
        ecds_lint::run_on_sources(&[(REL, &mutated)], &allowlist).expect("mutated source parses");
    assert!(
        result
            .violations()
            .any(|d| d.rule == RuleId::AllocFree && d.snippet.contains("__probe")),
        "the allowlist excused the injected allocation: {:#?}",
        result.diagnostics
    );
}

#[test]
fn laundering_thread_rng_through_a_helper_crate_turns_the_lint_red() {
    // A synthetic but realistically-shaped pair: result-affecting engine
    // code calling a helper crate whose innards read OS entropy. The
    // engine file itself contains no banned identifier.
    let engine_src = "\
pub fn choose_candidate(scores: &mut [f64]) -> usize {\n\
    tie_break(scores)\n\
}\n";
    let helper_src = "\
pub fn tie_break(scores: &mut [f64]) -> usize {\n\
    let salt = entropy();\n\
    (salt as usize) % scores.len().max(1)\n\
}\n\
fn entropy() -> u64 {\n\
    rand::thread_rng().next_u64()\n\
}\n";
    let result = ecds_lint::run_on_sources(
        &[
            ("crates/core/src/choose.rs", engine_src),
            ("crates/bench/src/salt.rs", helper_src),
        ],
        &Allowlist::default(),
    )
    .expect("sources parse");
    let r5: Vec<&Diagnostic> = result
        .violations()
        .filter(|d| d.rule == RuleId::TaintDiscipline)
        .collect();
    assert_eq!(r5.len(), 1, "{:#?}", result.diagnostics);
    assert!(r5[0].message.contains("thread_rng"));
    assert!(
        r5[0]
            .message
            .contains("core::choose_candidate -> bench::tie_break -> bench::entropy"),
        "{}",
        r5[0].message
    );
    // Removing the laundering call chain clears the finding.
    let clean = ecds_lint::run_on_sources(
        &[("crates/core/src/choose.rs", engine_src)],
        &Allowlist::default(),
    )
    .expect("sources parse");
    assert!(clean
        .violations()
        .all(|d| d.rule != RuleId::TaintDiscipline));
}

#[test]
fn splicing_a_hash_map_into_a_sim_function_turns_the_lint_red() {
    const REL: &str = "crates/sim/src/state.rs";
    let pristine = read_source(REL);
    let ws = Workspace::from_sources(&[(REL, &pristine)]).expect("state.rs parses");
    let first_fn = |in_test: bool| {
        ws.fns
            .iter()
            .find(|f| f.in_test == in_test && f.body.is_some())
            .map(|f| (f.name.clone(), f.line))
            .expect("state.rs has production and test functions")
    };
    let probe = " let __probe = std::collections::HashMap::<u32, u32>::new();";
    let allowlist = real_allowlist_for(REL);
    let red_probes = |rel: &str, src: &str| {
        let result =
            ecds_lint::run_on_sources(&[(rel, src)], &allowlist).expect("mutated source parses");
        result
            .violations()
            .filter(|d| d.rule == RuleId::TaintDiscipline && d.snippet.contains("__probe"))
            .count()
    };

    let (name, line) = first_fn(false);
    let mutated = splice_into_body(&pristine, line, probe);
    assert_eq!(
        red_probes(REL, &mutated),
        1,
        "a HashMap spliced into `{name}` did not turn R5 red against lint.toml"
    );

    // Test code cannot reach `results/`: the same splice into a
    // `#[cfg(test)]` function, or the mutated file as an integration
    // test, stays green.
    let (test_name, test_line) = first_fn(true);
    let in_test_region = splice_into_body(&pristine, test_line, probe);
    assert_eq!(
        red_probes(REL, &in_test_region),
        0,
        "`{test_name}` is test code"
    );
    assert_eq!(red_probes("crates/sim/tests/state.rs", &mutated), 0);
}
