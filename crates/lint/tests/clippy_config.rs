//! Pins the clippy configuration that enforces the per-call-site
//! invariants (DESIGN.md §9): `cargo test` does not run clippy, so this
//! suite checks that the configuration clippy reads is still in place.
//!
//! - every result-affecting library crate denies `unwrap_used`,
//!   `expect_used`, `panic` and `float_cmp` outside `cfg(test)`;
//! - the root `clippy.toml` bans hash collections, `RandomState` and the
//!   wall clocks;
//! - `crates/persist/clippy.toml` repeats every root ban and adds the
//!   pointer-width types. Clippy reads only the nearest `clippy.toml` and
//!   does not merge files, so a ban added only at the root silently skips
//!   the checkpoint codec unless this test catches it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The library crates whose code can reach `results/` bytes.
const LIB_CRATES: &[&str] = &[
    "pmf", "cluster", "workload", "core", "sim", "ext", "stats", "ecds",
];

const DENY: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                    clippy::panic,clippy::float_cmp))]";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn squeeze(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// The `(table, path)` pairs of a clippy.toml's `disallowed-types` and
/// `disallowed-methods` arrays.
fn bans(rel: &str) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    let mut table = String::new();
    for line in read(rel).lines() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if let Some((key, _)) = line.split_once('=') {
            if key.trim().starts_with("disallowed-") {
                table = key.trim().to_string();
            }
        }
        if let Some(rest) = line.split("path = \"").nth(1) {
            let path = rest.split('"').next().unwrap_or_default();
            out.insert((table.clone(), path.to_string()));
        }
    }
    out
}

fn ban(table: &str, path: &str) -> (String, String) {
    (table.to_string(), path.to_string())
}

#[test]
fn every_result_affecting_lib_denies_the_panic_and_float_lints() {
    for krate in LIB_CRATES {
        let lib = squeeze(&read(&format!("crates/{krate}/src/lib.rs")));
        assert!(
            lib.contains(DENY),
            "crates/{krate}/src/lib.rs lost its crate-root deny line"
        );
    }
}

#[test]
fn root_clippy_toml_bans_hash_order_and_wall_clocks() {
    let root = bans("clippy.toml");
    for expected in [
        ban("disallowed-types", "std::collections::HashMap"),
        ban("disallowed-types", "std::collections::HashSet"),
        ban("disallowed-types", "std::hash::RandomState"),
        ban("disallowed-methods", "std::time::Instant::now"),
        ban("disallowed-methods", "std::time::SystemTime::now"),
    ] {
        assert!(root.contains(&expected), "clippy.toml lost {expected:?}");
    }
}

#[test]
fn persist_clippy_toml_repeats_the_root_bans_and_adds_pointer_widths() {
    let root = bans("clippy.toml");
    let persist = bans("crates/persist/clippy.toml");
    let missing: Vec<_> = root.difference(&persist).collect();
    assert!(
        missing.is_empty(),
        "crates/persist/clippy.toml replaces the root file for that crate; \
         repeat these bans there: {missing:?}"
    );
    for width in ["usize", "isize"] {
        assert!(persist.contains(&ban("disallowed-types", width)));
    }
    let lib = squeeze(&read("crates/persist/src/lib.rs"));
    assert!(lib.contains("#![deny(clippy::host_endian_bytes)]"));
}
