//! The evaluator's versioned queue-prefix cache is invisible: full trials
//! run with the production scheduler are bit-identical — task outcomes,
//! energy, makespan, exhaustion, telemetry series, ledger and predictions —
//! to trials run with the oracle, which recomputes every prefix on every
//! decision. One slice of the production ≡ oracle suite
//! (`integration_oracle.rs`); the cache counters themselves are checked to
//! be live.

mod support;

use ecds::prelude::*;
use support::{
    assert_ledgers_bit_identical, assert_scheduler_matches_oracle, assert_trials_bit_identical,
    oracle, OracleMapper,
};

/// Seeds × all four heuristics with the paper's best filter chain — the
/// configuration where prefix pmfs drive every decision through ECT, ρ,
/// and the robustness filter.
#[test]
fn cached_equals_uncached_across_seeds_and_heuristics() {
    for kind in HeuristicKind::ALL {
        assert_scheduler_matches_oracle(3, 0, kind, FilterVariant::EnergyAndRobustness);
    }
}

/// Filters change which candidates survive to the heuristic, so each chain
/// exercises different prefix-consumption paths.
#[test]
fn cached_equals_uncached_across_filter_variants() {
    for variant in FilterVariant::ALL {
        assert_scheduler_matches_oracle(7, 1, HeuristicKind::Mect, variant);
    }
}

/// Later trials reuse the scheduler (and therefore the cache) across
/// on_trial_start boundaries — stale entries must never leak into the next
/// trial.
#[test]
fn cache_does_not_leak_across_trials() {
    let scenario = Scenario::small_for_tests(13);
    let (kind, variant) = (
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
    );
    let mut cached = (*build_scheduler(kind, variant, &scenario, 0)).with_prediction_recording();
    for trial in 0..3u64 {
        let trace = scenario.trace(trial);
        let a = Simulation::new(&scenario, &trace).run(&mut cached);
        let mut fresh = OracleMapper::build(kind, variant, &scenario, 0);
        let b = Simulation::new(&scenario, &trace).run(&mut fresh);
        let label = format!("trial {trial}");
        assert_trials_bit_identical(&a, &b, &label);
        assert_ledgers_bit_identical(&cached, &fresh, &label);
    }
}

/// The cache must actually be doing something: on a bursty trace the
/// scheduler looks at every core per arrival while most cores' queues
/// change only between their own events, so a healthy majority of lookups
/// hit. The oracle, which caches nothing, reports no cache at all.
#[test]
fn cached_runs_report_hits_and_uncached_report_none() {
    let (a, b) = assert_scheduler_matches_oracle(
        3,
        1,
        HeuristicKind::Mect,
        FilterVariant::EnergyAndRobustness,
    );
    let hits = a.telemetry().mapper.prefix_cache_hits();
    let misses = a.telemetry().mapper.prefix_cache_misses();
    assert!(hits > 0, "no cache hits over a whole trial");
    assert!(misses > 0, "every core mutates at least once");
    assert_eq!(
        a.telemetry().prefix_cache_hit_rate(),
        Some(hits as f64 / (hits + misses) as f64)
    );
    assert_eq!(b.telemetry().mapper.prefix_cache_hits(), 0);
    assert_eq!(b.telemetry().mapper.prefix_cache_misses(), 0);
    assert_eq!(b.telemetry().prefix_cache_hit_rate(), None);
}

/// Direct evaluator-level sweep: every candidate estimate over a busy
/// mid-trial view must be bit-identical to the oracle's, including after
/// time advances, warm repeats and queue mutations.
#[test]
fn evaluator_level_estimates_match_through_mutation_and_time() {
    use ecds::sim::{CoreState, ExecutingTask, QueuedTask};

    let s = Scenario::small_for_tests(5);
    let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
    cores[0].start(ExecutingTask {
        task: TaskId(0),
        type_id: TaskTypeId(1),
        pstate: PState::P0,
        start: 0.0,
        deadline: 9000.0,
    });
    cores[0].enqueue(QueuedTask {
        task: TaskId(1),
        type_id: TaskTypeId(2),
        pstate: PState::P3,
        deadline: 9000.0,
    });
    let task = Task {
        id: TaskId(2),
        type_id: TaskTypeId(0),
        arrival: 10.0,
        deadline: 10.0 + 4.0 * s.table().t_avg(),
        quantile: 0.5,
    };
    let cached = CandidateEvaluator::default();
    let recomputed =
        |view: &SystemView<'_>| oracle::evaluate_all(view, &task, ReductionPolicy::default());

    for step in 0..4 {
        let now = 10.0 + step as f64 * 15.0;
        let view = SystemView::new(s.cluster(), s.table(), &cores, now, 3, 60);
        assert!(
            candidates_bit_eq(&cached.evaluate_all(&view, &task), &recomputed(&view)),
            "diverged at t={now}"
        );
        // Second call on the same view: all-hit fast path, same answer.
        assert!(
            candidates_bit_eq(&cached.evaluate_all(&view, &task), &recomputed(&view)),
            "warm pass diverged at t={now}"
        );
    }

    // Mutate a core between views and re-check.
    cores[1].start(ExecutingTask {
        task: TaskId(3),
        type_id: TaskTypeId(0),
        pstate: PState::P2,
        start: 60.0,
        deadline: 9000.0,
    });
    let view = SystemView::new(s.cluster(), s.table(), &cores, 70.0, 4, 60);
    assert!(
        candidates_bit_eq(&cached.evaluate_all(&view, &task), &recomputed(&view)),
        "diverged after mutation"
    );
}
