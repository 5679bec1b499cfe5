//! The harness binaries answer a malformed command line with a usage error
//! that names the offending flag and exit code 2 — not a panic.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the built binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}: exit code; stderr:\n{stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?}: the error must name {flag}; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: the usage text follows the error; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: a usage error must not panic; stderr:\n{stderr}"
    );
}

#[test]
fn experiments_rejects_malformed_flags_with_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    assert_usage_error(bin, &["--trials", "bogus"], "--trials");
    assert_usage_error(bin, &["--seed", "-3"], "--seed");
    assert_usage_error(bin, &["all", "--threads", "two"], "--threads");
    assert_usage_error(bin, &["--small", "--out"], "--out");
    assert_usage_error(bin, &["--trials"], "--trials");
    assert_usage_error(bin, &["--frobnicate"], "--frobnicate");
    let (code, stderr) = run(bin, &["--help"]);
    assert_eq!(code, Some(0));
    assert!(stderr.contains("usage: experiments"));
}

#[test]
fn ablations_rejects_malformed_flags_with_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_ablations");
    assert_usage_error(bin, &["--trials", "bogus"], "--trials");
    assert_usage_error(bin, &["zoo", "--seed", "x"], "--seed");
    assert_usage_error(bin, &["--threads", "1.5"], "--threads");
    assert_usage_error(bin, &["--threads"], "--threads");
}

#[test]
fn validate_rejects_malformed_flags_with_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_validate");
    assert_usage_error(bin, &["--trials", "ten"], "--trials");
    assert_usage_error(bin, &["--seed"], "--seed");
}
