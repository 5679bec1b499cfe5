//! The facade's differential test harness: the naive [`oracle`], the
//! [`mutation`] streams the evaluator suites drive, and the trial-level
//! comparisons every suite that checks production against the oracle
//! shares.

#![allow(dead_code)]

pub mod mutation;
pub mod oracle;

use ecds::prelude::*;

pub use oracle::OracleMapper;

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn series_bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
}

/// Asserts two trials agree in `f64::to_bits` on everything they report
/// except the mapper's work counters: every task outcome, energy,
/// exhaustion, makespan and the telemetry series.
pub fn assert_trials_bit_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(a.outcomes().len(), b.outcomes().len(), "{label}: counts");
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(x.task, y.task, "{label}");
        assert_eq!(x.assignment, y.assignment, "{label}: {:?}", x.task);
        assert_eq!(
            opt_bits(x.start),
            opt_bits(y.start),
            "{label}: {:?}",
            x.task
        );
        assert_eq!(
            opt_bits(x.completion),
            opt_bits(y.completion),
            "{label}: {:?}",
            x.task
        );
        assert_eq!(x.cancelled, y.cancelled, "{label}: {:?}", x.task);
    }
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}: energy"
    );
    assert_eq!(
        opt_bits(a.exhausted_at()),
        opt_bits(b.exhausted_at()),
        "{label}: exhaustion"
    );
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{label}: makespan"
    );
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert_eq!(
        series_bits(&ta.queue_depth),
        series_bits(&tb.queue_depth),
        "{label}: queue depth"
    );
    let busy = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
        v.iter().map(|&(t, n)| (t.to_bits(), n)).collect()
    };
    assert_eq!(
        busy(&ta.busy_cores),
        busy(&tb.busy_cores),
        "{label}: busy cores"
    );
    assert_eq!(
        series_bits(&ta.power),
        series_bits(&tb.power),
        "{label}: power"
    );
}

/// Asserts the production scheduler and the oracle made the same
/// decisions with the same numbers: the Sec. V-F ledger and every recorded
/// `(task, ρ)` prediction agree in `f64::to_bits`.
pub fn assert_ledgers_bit_identical(production: &Scheduler, oracle: &OracleMapper, label: &str) {
    assert_eq!(
        production.remaining_energy().to_bits(),
        oracle.remaining_energy().to_bits(),
        "{label}: ledger"
    );
    let bits = |v: &[(TaskId, f64)]| -> Vec<(TaskId, u64)> {
        v.iter().map(|&(t, rho)| (t, rho.to_bits())).collect()
    };
    assert_eq!(
        bits(production.predictions()),
        bits(oracle.predictions()),
        "{label}: predictions"
    );
}

/// Runs trial `trial` of `Scenario::small_for_tests(master)` under the
/// production `(kind, variant)` scheduler (predictions recorded) and under
/// the oracle, asserts the two bit-identical (outcomes, energy, telemetry,
/// ledger, predictions) and returns the production and oracle results.
pub fn assert_scheduler_matches_oracle(
    master: u64,
    trial: u64,
    kind: HeuristicKind,
    variant: FilterVariant,
) -> (TrialResult, TrialResult) {
    let scenario = Scenario::small_for_tests(master);
    let trace = scenario.trace(trial);
    let label = format!("seed {master} / trial {trial} / {kind} / {variant}");
    let mut production =
        (*build_scheduler(kind, variant, &scenario, trial)).with_prediction_recording();
    let mut oracle = OracleMapper::build(kind, variant, &scenario, trial);
    let a = Simulation::new(&scenario, &trace).run(&mut production);
    let b = Simulation::new(&scenario, &trace).run(&mut oracle);
    assert_trials_bit_identical(&a, &b, &label);
    assert_ledgers_bit_identical(&production, &oracle, &label);
    (a, b)
}
