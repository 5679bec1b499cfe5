//! Property tests of the queue-prefix computation and its versioned cache:
//! truncation semantics, monotonicity in queue depth, epoch bookkeeping,
//! and cached-vs-recomputed bit-identity over arbitrary core states. The
//! prefix semantics are checked on the oracle's by-value builder, which
//! the production cache is checked against.

#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use ecds_cluster::PState;
use ecds_core::{candidates_bit_eq, CandidateEvaluator};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use oracle::prefix_pmf;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::small_for_tests(21))
}

fn num_types() -> usize {
    scenario().workload().num_types
}

/// A core with an executing task (started at `start`) and `queued` waiting
/// tasks of arbitrary types and P-states.
fn busy_core(exec_type: usize, start: f64, queued: &[(usize, usize)]) -> CoreState {
    let mut core = CoreState::new();
    core.start(ExecutingTask {
        task: TaskId(0),
        type_id: TaskTypeId(exec_type),
        pstate: PState::P1,
        start,
        deadline: 1e9,
    });
    for (i, &(type_id, ps)) in queued.iter().enumerate() {
        core.enqueue(QueuedTask {
            task: TaskId(i + 1),
            type_id: TaskTypeId(type_id),
            pstate: PState::from_index(ps),
            deadline: 1e9,
        });
    }
    core
}

fn probe_task() -> Task {
    Task {
        id: TaskId(99),
        type_id: TaskTypeId(0),
        arrival: 0.0,
        deadline: 1e9,
        quantile: 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sec. IV-B truncation: whatever is pending on a core, its predicted
    /// completion cannot lie in the past — the prefix's support starts at
    /// or after the view time.
    #[test]
    fn prefix_support_floor_is_at_least_view_time(
        exec_type in 0usize..10,
        start in 0.0f64..500.0,
        elapsed in 0.0f64..4000.0,
        queued in prop::collection::vec((0usize..10, 0usize..5), 0..4),
    ) {
        let s = scenario();
        prop_assert!(exec_type < num_types());
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        cores[0] = busy_core(exec_type, start, &queued);
        let now = start + elapsed;
        let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
        let pmf = prefix_pmf(&view, 0, ReductionPolicy::default())
            .expect("core is executing");
        prop_assert!(
            pmf.min_value() >= now - 1e-9,
            "support starts at {} before now {}", pmf.min_value(), now
        );
    }

    /// Convolving one more queued task onto a prefix can only push the
    /// expected completion out: the prefix expectation is monotone
    /// non-decreasing in queue depth.
    #[test]
    fn prefix_expectation_is_monotone_in_queue_depth(
        exec_type in 0usize..10,
        now in 1.0f64..200.0,
        queued in prop::collection::vec((0usize..10, 0usize..5), 1..5),
    ) {
        let s = scenario();
        let mut expectations = Vec::new();
        for depth in 0..=queued.len() {
            let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
            cores[0] = busy_core(exec_type, 0.0, &queued[..depth]);
            let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
            let pmf = prefix_pmf(&view, 0, ReductionPolicy::default())
                .expect("core is executing");
            expectations.push(pmf.expectation());
        }
        for w in expectations.windows(2) {
            prop_assert!(
                w[1] >= w[0] - 1e-6,
                "expectation shrank when a task was queued: {} -> {}", w[0], w[1]
            );
        }
    }

    /// Every mutator bumps the epoch by exactly one (complete bumps once
    /// even though it also pops), the epoch never decreases, and equal
    /// epochs imply equal executing/queued state — the invariant the
    /// prefix cache keys on.
    #[test]
    fn every_mutation_bumps_the_epoch(
        ops in prop::collection::vec(0usize..4, 1..20),
    ) {
        let mut core = CoreState::new();
        let mut id = 0usize;
        let snapshot =
            |c: &CoreState| (c.executing().copied(), c.queued().copied().collect::<Vec<_>>());
        let mut seen = BTreeMap::from([(core.epoch(), snapshot(&core))]);
        for &op in &ops {
            let before = core.epoch();
            let mutated = match op {
                0 => {
                    core.enqueue(QueuedTask {
                        task: TaskId(id),
                        type_id: TaskTypeId(0),
                        pstate: PState::P0,
                        deadline: 100.0,
                    });
                    id += 1;
                    true
                }
                1 => {
                    if core.is_idle() {
                        core.start(ExecutingTask {
                            task: TaskId(id),
                            type_id: TaskTypeId(0),
                            pstate: PState::P0,
                            start: 0.0,
                            deadline: 100.0,
                        });
                        id += 1;
                        true
                    } else {
                        false
                    }
                }
                2 => {
                    if core.is_idle() {
                        false
                    } else {
                        let _ = core.complete();
                        true
                    }
                }
                _ => core.pop_queued().is_some(),
            };
            let expected = if mutated { before + 1 } else { before };
            prop_assert_eq!(core.epoch(), expected, "op {} at epoch {}", op, before);
            let now = snapshot(&core);
            let first = seen.entry(core.epoch()).or_insert_with(|| now.clone());
            prop_assert_eq!(&*first, &now, "epoch {} saw two states", core.epoch());
        }
    }

    /// The caching evaluator agrees bit-for-bit with the oracle, which
    /// recomputes every prefix, on arbitrary core states, view times, and
    /// repeat/advance patterns.
    #[test]
    fn cached_prefix_is_bit_identical_to_recompute(
        exec_type in 0usize..10,
        start in 0.0f64..100.0,
        elapsed_a in 0.0f64..2000.0,
        advance in 0.0f64..2000.0,
        queued in prop::collection::vec((0usize..10, 0usize..5), 0..3),
    ) {
        let s = scenario();
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        cores[0] = busy_core(exec_type, start, &queued);
        let task = probe_task();
        let cached = CandidateEvaluator::default();
        for now in [start + elapsed_a, start + elapsed_a, start + elapsed_a + advance] {
            let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
            prop_assert!(
                candidates_bit_eq(
                    &cached.evaluate_all(&view, &task),
                    &oracle::evaluate_all(&view, &task, ReductionPolicy::default())
                ),
                "diverged at t={}", now
            );
        }
    }
}
