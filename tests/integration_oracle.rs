//! Production ≡ oracle: the differential suite of the evaluator and the
//! scheduler.
//!
//! The oracle (`tests/support/oracle.rs`) evaluates every core and P-state
//! on its own, recomputing every queue prefix with the by-value pmf
//! operations. The production `CandidateEvaluator` caches prefixes, runs
//! the fused kernel, evaluates one core per equivalence class through the
//! shard index and may share a decision's kernel calls with a helper
//! thread. None of that may show: every estimate, class, choice, ledger
//! value and prediction must agree with the oracle in `f64::to_bits`.
//!
//! Trial-level slices of the same comparison also sit in
//! `integration_prefix_cache.rs`, `integration_fused_kernel.rs` and
//! `integration_candidate_dedup.rs`, and `integration_serve_equivalence.rs`
//! runs the oracle at paper scale.

mod support;

use ecds::core::{ClassCandidate, FAN_OUT_MIN_BUSY_CLASSES};
use ecds::prelude::*;
use ecds::sim::{CoreState, DirtyCores, ExecutingTask, QueuedTask};
use proptest::prelude::*;
use support::mutation::{apply_step, arb_step};
use support::{assert_scheduler_matches_oracle, oracle};

/// Checks one view's production outputs against the oracle: the
/// materialized stream of `evaluate_all_into`, and the classes of
/// `evaluate_indexed_into` — their members cover every core once, each
/// class's estimates equal the oracle's at its representative, and the
/// oracle gives those estimates to at least as many cores as the class
/// claims as members.
fn assert_view_matches_oracle(
    evaluator: &CandidateEvaluator,
    view: &SystemView<'_>,
    task: &Task,
    label: &str,
) -> Vec<ClassCandidate> {
    let reference = oracle::evaluate_all(view, task, ReductionPolicy::default());
    let mut out = Vec::new();
    evaluator.evaluate_all_into(view, task, &mut out);
    assert!(
        candidates_bit_eq(&out, &reference),
        "{label}: candidate stream diverged from the oracle"
    );
    let mut classes = Vec::new();
    evaluator.evaluate_indexed_into(view, task, &mut classes);
    let cores = view.cluster().total_cores();
    assert_eq!(
        classes.iter().map(|c| c.members).sum::<usize>(),
        cores,
        "{label}: classes must cover every core once"
    );
    for class in &classes {
        let want = &reference[class.min_core * PState::ALL.len()..][..PState::ALL.len()];
        for (est, cand) in class.ests.iter().zip(want) {
            assert!(
                est.bit_eq(&cand.est),
                "{label}: class of core {} diverged in {:?}",
                class.min_core,
                cand.pstate
            );
        }
        let members = (0..cores)
            .filter(|&core| {
                let got = &reference[core * PState::ALL.len()..][..PState::ALL.len()];
                got.iter().zip(&class.ests).all(|(c, e)| c.est.bit_eq(e))
            })
            .count();
        assert!(
            members >= class.members,
            "{label}: class of core {} stands in for {} cores, the oracle \
             gives its estimates to only {members}",
            class.min_core,
            class.members
        );
    }
    classes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over seeds × arbitrary mutation streams, an evaluator fed through a
    /// dirty-core mailbox (incremental sweeps) and one fed through bare
    /// views (a rebuild on every call) both match the oracle at every step.
    #[test]
    fn evaluator_streams_match_the_oracle_over_mutation_streams(
        seed_pick in 0usize..3,
        steps in prop::collection::vec(arb_step(), 1..8),
        deadline_slack in 100.0f64..4_000.0,
    ) {
        let seed = [5u64, 21, 31][seed_pick];
        let s = Scenario::small_for_tests(seed);
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        let mut dirty = DirtyCores::default();
        let (mut now, mut next_id) = (0.0f64, 0usize);
        let with_mailbox = CandidateEvaluator::default();
        let without_mailbox = CandidateEvaluator::default();
        for (step, ops) in steps.iter().enumerate() {
            apply_step(&mut cores, &mut dirty, ops, &mut now, &mut next_id);
            let task = Task {
                id: TaskId(10_000 + step),
                type_id: TaskTypeId(step % 10),
                arrival: now,
                deadline: now + deadline_slack,
                quantile: 0.5,
            };
            let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60)
                .with_dirty(&dirty);
            let bare = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
            let label = format!("seed {seed} step {step}");
            assert_view_matches_oracle(&with_mailbox, &view, &task, &format!("{label} mailbox"));
            assert_view_matches_oracle(&without_mailbox, &bare, &task, &format!("{label} bare"));
            prop_assert_eq!(
                with_mailbox.prefix_cache_stats(),
                without_mailbox.prefix_cache_stats()
            );
            prop_assert_eq!(with_mailbox.dedup_stats(), without_mailbox.dedup_stats());
            prop_assert_eq!(
                with_mailbox.fused_kernel_calls(),
                without_mailbox.fused_kernel_calls()
            );
        }
    }
}

/// A templated cluster with every core loaded puts more than
/// `FAN_OUT_MIN_BUSY_CLASSES` busy classes into each decision, so on a host
/// with a second core the helper thread takes part; the estimates still
/// match the oracle, through a mailbox and through bare views, cold and
/// warm.
#[test]
fn scaled_cluster_streams_match_the_oracle_above_the_fan_out_floor() {
    let s = Scenario::with_configs(
        23,
        ClusterGenConfig::scaled(24, 4),
        WorkloadConfig::small_for_tests(),
    );
    let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
    for (i, core) in cores.iter_mut().enumerate() {
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(i % 5),
            pstate: PState::from_index(i % 3),
            start: (i % 7) as f64,
            deadline: 5000.0,
        });
        for q in 0..i % 3 {
            core.enqueue(QueuedTask {
                task: TaskId(1000 + 3 * i + q),
                type_id: TaskTypeId((i + q) % 4),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
    }
    let task = Task {
        id: TaskId(99),
        type_id: TaskTypeId(1),
        arrival: 20.0,
        deadline: 20.0 + 4.0 * s.table().t_avg(),
        quantile: 0.5,
    };
    let dirty = DirtyCores::default();
    let view = SystemView::new(s.cluster(), s.table(), &cores, 20.0, 1, 60).with_dirty(&dirty);
    let bare = SystemView::new(s.cluster(), s.table(), &cores, 20.0, 1, 60);
    let (with_mailbox, without_mailbox) =
        (CandidateEvaluator::default(), CandidateEvaluator::default());
    for pass in ["cold", "warm"] {
        let classes = assert_view_matches_oracle(&with_mailbox, &view, &task, pass);
        assert_view_matches_oracle(&without_mailbox, &bare, &task, pass);
        let busy = classes.iter().filter(|c| c.depth > 0).count();
        assert!(
            busy >= FAN_OUT_MIN_BUSY_CLASSES,
            "{pass}: the case must cross the fan-out floor ({busy} busy classes)"
        );
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert_eq!(with_mailbox.evaluation_lanes(), 2);
        assert_eq!(without_mailbox.evaluation_lanes(), 2);
    }
}

/// Whole trials: the production scheduler and the oracle mapper make the
/// same decisions with the same numbers — outcomes, energy, telemetry,
/// the Sec. V-F ledger and every `(task, ρ)` prediction in `to_bits` —
/// over seeds × {SQ, MECT, LL, Random} × {none, en, rob, en+rob}. SQ, MECT
/// and LL select over classes, Random over the materialized stream.
#[test]
fn scheduler_matches_the_oracle_across_seeds_heuristics_and_filters() {
    for master in [5, 17] {
        for kind in HeuristicKind::ALL {
            for variant in FilterVariant::ALL {
                assert_scheduler_matches_oracle(master, 0, kind, variant);
            }
        }
    }
}
