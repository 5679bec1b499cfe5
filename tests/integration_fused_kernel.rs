//! The fused scratch kernel is invisible at trial scale: full simulations
//! run with the production scheduler are bit-identical — task outcomes,
//! energy, makespan, exhaustion, telemetry series, ledger and predictions —
//! to simulations run with the oracle, whose every convolution goes
//! through the allocating by-value pipeline. One slice of the production ≡
//! oracle suite (`integration_oracle.rs`); the kernel counter itself is
//! checked to be live.

mod support;

use ecds::prelude::*;
use support::assert_scheduler_matches_oracle;

/// Seeds × all four heuristics with the paper's best filter chain — the
/// configuration where every decision flows through the kernel via ECT,
/// ρ, and the robustness filter.
#[test]
fn fused_equals_legacy_across_seeds_and_heuristics() {
    for kind in HeuristicKind::ALL {
        assert_scheduler_matches_oracle(11, 0, kind, FilterVariant::EnergyAndRobustness);
    }
}

/// Filters change which candidates survive to the heuristic, so each chain
/// exercises different kernel-consumption paths.
#[test]
fn fused_equals_legacy_across_filter_variants() {
    for variant in FilterVariant::ALL {
        assert_scheduler_matches_oracle(7, 1, HeuristicKind::LightestLoad, variant);
    }
}

/// The fully fused and cached default against the fully legacy evaluator
/// (no cache, no scratch, no classes) — the deepest reference available.
#[test]
fn fused_cached_equals_fully_legacy_evaluator() {
    assert_scheduler_matches_oracle(
        19,
        0,
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
    );
}

/// The fused path must actually be exercised: a full trial on the default
/// scheduler reports a busy kernel counter, and the by-value oracle
/// reports zero.
#[test]
fn fused_runs_report_kernel_calls_and_legacy_report_zero() {
    let (a, b) = assert_scheduler_matches_oracle(
        3,
        2,
        HeuristicKind::Mect,
        FilterVariant::EnergyAndRobustness,
    );
    assert!(
        a.telemetry().mapper.fused_kernel_calls > 0,
        "default scheduler must route convolutions through the fused kernel"
    );
    assert_eq!(b.telemetry().mapper.fused_kernel_calls, 0);
}
