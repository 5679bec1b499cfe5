//! The lint report itself must honour the determinism discipline it
//! enforces: feeding the same files in any order must produce
//! byte-identical output. `results/LINT.json` is a committed artifact
//! that CI diffs, so even a reordered diagnostic would show up as noise
//! in every PR that touches an unrelated file.

use ecds_lint::allowlist::Allowlist;
use ecds_lint::report;

/// A small workspace exercising every rule at least once, so the sort
/// has real multi-rule, multi-file, multi-line work to do.
fn sources() -> Vec<(&'static str, String)> {
    let fixtures = [
        ("crates/sim/src/fixture.rs", "r5_result.rs"),
        ("crates/bench/src/fixture.rs", "r5_helper.rs"),
        ("crates/pmf/src/fixture_a.rs", "r6_positive.rs"),
        ("crates/core/src/fixture_b.rs", "r6_negative.rs"),
        ("crates/workload/src/fixture_c.rs", "r5_direct.rs"),
    ];
    fixtures
        .iter()
        .map(|(rel, name)| {
            let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
            (*rel, std::fs::read_to_string(&path).expect(name))
        })
        .collect()
}

fn json_for(order: &[(&str, String)]) -> String {
    let refs: Vec<(&str, &str)> = order.iter().map(|(r, t)| (*r, t.as_str())).collect();
    let mut result =
        ecds_lint::run_on_sources(&refs, &Allowlist::default()).expect("fixtures parse");
    // Wall time is the one intentionally non-reproducible field; CI diffs
    // LINT.json with it masked, so the byte-equality check masks it too.
    result.elapsed_ms = 0;
    report::json(&result)
}

#[test]
fn shuffled_file_lists_produce_byte_identical_reports() {
    let base = sources();
    let forward = json_for(&base);
    assert!(
        forward.contains("\"violations\""),
        "fixture set produced no report body:\n{forward}"
    );

    // Reversed, rotated, and interleaved orders all collapse to the same
    // bytes once the engine sorts by (file, line, column, rule).
    let mut reversed = base.clone();
    reversed.reverse();
    let mut rotated = base.clone();
    rotated.rotate_left(2);
    let mut interleaved = base.clone();
    interleaved.swap(0, 3);
    interleaved.swap(1, 4);

    for (label, order) in [
        ("reversed", reversed),
        ("rotated", rotated),
        ("interleaved", interleaved),
    ] {
        let got = json_for(&order);
        assert_eq!(forward, got, "{label} file order changed the report bytes");
    }
}

#[test]
fn human_report_is_order_independent_too() {
    let base = sources();
    let render = |order: &[(&str, String)]| {
        let refs: Vec<(&str, &str)> = order.iter().map(|(r, t)| (*r, t.as_str())).collect();
        let mut result =
            ecds_lint::run_on_sources(&refs, &Allowlist::default()).expect("fixtures parse");
        result.elapsed_ms = 0;
        report::human(&result, true)
    };
    let forward = render(&base);
    let mut reversed = base.clone();
    reversed.reverse();
    assert_eq!(forward, render(&reversed));
}
