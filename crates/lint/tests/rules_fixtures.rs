//! Per-rule fixture tests: each `tests/fixtures/*.rs` file is parsed as if
//! it lived at a chosen workspace path (the path drives crate/role
//! scoping) and checked against the full rule set; the interprocedural
//! R5/R6 passes see the fixture files as one miniature workspace.
//! Positives must produce exactly the expected diagnostics, negatives
//! none, and the allowlist machinery must excuse — and only excuse — what
//! it names.

use ecds_lint::allowlist::Allowlist;
use ecds_lint::diag::{Diagnostic, RuleId};

/// Parses fixtures under their pretend workspace paths and runs every
/// rule over the resulting mini-workspace.
fn check_fixtures(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let texts: Vec<(String, String)> = files
        .iter()
        .map(|(fixture, rel_path)| {
            let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading fixture {path}: {e}"));
            (rel_path.to_string(), text)
        })
        .collect();
    let sources: Vec<(&str, &str)> = texts
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str()))
        .collect();
    let result = ecds_lint::run_on_sources(&sources, &Allowlist::default())
        .unwrap_or_else(|e| panic!("parsing fixtures {files:?}: {e}"));
    result.diagnostics
}

/// Single-fixture convenience wrapper.
fn check_fixture(fixture: &str, rel_path: &str) -> Vec<Diagnostic> {
    check_fixtures(&[(fixture, rel_path)])
}

fn lines_for(diags: &[Diagnostic], rule: RuleId) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn r5_flags_two_hop_laundering_with_the_chain() {
    let diags = check_fixtures(&[
        ("r5_result.rs", "crates/sim/src/fixture.rs"),
        ("r5_helper.rs", "crates/bench/src/noise.rs"),
    ]);
    let r5: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::TaintDiscipline)
        .collect();
    assert_eq!(r5.len(), 1, "diagnostics: {r5:#?}");
    let d = r5[0];
    assert_eq!(d.file, "crates/sim/src/fixture.rs");
    assert!(d.snippet.contains("fn schedule_step"), "{}", d.snippet);
    assert!(d.message.contains("thread_rng"), "{}", d.message);
    assert!(
        d.message
            .contains("sim::schedule_step -> bench::jitter -> bench::entropy_seed"),
        "chain missing: {}",
        d.message
    );
    // The helper crate itself is not result-affecting: no diagnostic
    // there, and `advance` (untainted) stays clean.
    assert!(diags
        .iter()
        .all(|d| d.rule != RuleId::TaintDiscipline || !d.message.contains("advance")));
}

#[test]
fn r5_flags_direct_use_in_a_result_affecting_fn() {
    let diags = check_fixture("r5_direct.rs", "crates/sim/src/fixture.rs");
    let r5: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::TaintDiscipline)
        .collect();
    // One per tainted function, anchored at the banned identifier; the
    // BTreeMap twin and the test region stay clean.
    assert_eq!(r5.len(), 2, "diagnostics: {r5:#?}");
    assert!(
        r5[0].message.contains("`roll` uses `thread_rng`"),
        "{r5:#?}"
    );
    assert!(r5[0].snippet.contains("rand::thread_rng()"), "{r5:#?}");
    assert!(r5[1].message.contains("`tally` uses `HashMap`"), "{r5:#?}");
    assert!(r5[1].snippet.contains("HashMap::new()"), "{r5:#?}");
}

#[test]
fn r5_does_not_fire_without_the_result_affecting_caller() {
    let diags = check_fixture("r5_helper.rs", "crates/bench/src/noise.rs");
    assert!(
        lines_for(&diags, RuleId::TaintDiscipline).is_empty(),
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn r6_flags_allocation_in_a_transitive_callee() {
    let diags = check_fixture("r6_positive.rs", "crates/pmf/src/fixture.rs");
    let r6: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::AllocFree)
        .collect();
    // Two allocating lines inside `finalize`, each with the chain from
    // the certified root; `setup` (outside the closure) stays clean.
    assert_eq!(r6.len(), 2, "diagnostics: {r6:#?}");
    assert!(r6
        .iter()
        .all(|d| d.message.contains("evaluate_kernel -> finalize")));
    assert!(r6.iter().any(|d| d.message.contains("Vec::with_capacity")));
    assert!(r6.iter().any(|d| d.message.contains(".push()")));
    assert!(!r6.iter().any(|d| d.snippet.contains("vec![0.0; 64]")));
}

#[test]
fn r6_accepts_an_in_place_closure() {
    let diags = check_fixture("r6_negative.rs", "crates/pmf/src/fixture.rs");
    assert!(
        lines_for(&diags, RuleId::AllocFree).is_empty(),
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn allowlist_excuses_exactly_what_it_names() {
    let mut diags = check_fixture("r6_positive.rs", "crates/pmf/src/fixture.rs");
    let toml = r#"
[[allow]]
rule = "R6-allocfree"
file = "crates/pmf/src/fixture.rs"
pattern = "staged.push(*v)"
reason = "fixture: audited"
"#;
    let list = Allowlist::parse(toml).unwrap();
    let outcome = list.apply(&mut diags);
    assert!(outcome.stale.is_empty());
    assert!(outcome.ambiguous.is_empty());
    let allowed: Vec<&Diagnostic> = diags.iter().filter(|d| d.allowed.is_some()).collect();
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].snippet.contains("push"));
    // The Vec::with_capacity site remains a violation.
    assert_eq!(diags.iter().filter(|d| d.allowed.is_none()).count(), 1);
}

#[test]
fn allowlist_entry_matching_nothing_is_stale() {
    let mut diags = check_fixture("r6_negative.rs", "crates/pmf/src/fixture.rs");
    let toml = r#"
[[allow]]
rule = "R6-allocfree"
file = "crates/pmf/src/fixture.rs"
pattern = "some_removed_call()"
reason = "audited long ago"
"#;
    let list = Allowlist::parse(toml).unwrap();
    let outcome = list.apply(&mut diags);
    assert_eq!(outcome.stale.len(), 1);
    assert_eq!(outcome.stale[0].pattern, "some_removed_call()");
}
