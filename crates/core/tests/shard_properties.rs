//! Property tests of the persistent shard index: over *arbitrary mutation
//! sequences* (starts, completions, queue pushes/pops, uneven time
//! advances) driven through an epoch-bump mailbox, the incrementally
//! maintained index must stay bit-identical to the oracle's per-core
//! stream (`candidates_bit_eq`), keep every counter equal to a full
//! rebuild's, and make every indexed heuristic (SQ, MECT, LL) under every
//! filter variant select what the full scan selects.

#[path = "../../../tests/support/mutation.rs"]
mod mutation;
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_core::{
    candidates_bit_eq, CandidateEvaluator, ClassCandidate, EnergyFilter, EvaluatedCandidate,
    Filter, FilterCtx, Heuristic, LightestLoad, MinimumExpectedCompletionTime, RobustnessFilter,
    ShortestQueue,
};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, DirtyCores, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use mutation::{apply_step, arb_step};
use proptest::prelude::*;
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::small_for_tests(31))
}

fn probe_task(step: usize, deadline_slack: f64, now: f64) -> Task {
    Task {
        id: TaskId(10_000 + step),
        type_id: TaskTypeId(step % 10),
        arrival: now,
        deadline: now + deadline_slack,
        quantile: 0.5,
    }
}

/// The full-scan selection: filters applied with [`Filter::retain`] on the
/// materialized stream, then [`Heuristic::choose`].
fn full_scan_choice(
    h: &mut dyn Heuristic,
    filters: &[&dyn Filter],
    task: &Task,
    view: &SystemView<'_>,
    ctx: &FilterCtx,
    all: &[EvaluatedCandidate],
) -> Option<(usize, PState)> {
    let mut cands = all.to_vec();
    for f in filters {
        f.retain(task, view, ctx, &mut cands);
    }
    h.choose(task, view, &cands)
        .map(|i| (cands[i].core, cands[i].pstate))
}

/// The indexed selection: [`Filter::retain_indexed`] on the class form,
/// then [`Heuristic::choose_indexed`], resolved to the class's minimum
/// member core (the representative the full scan would pick).
fn indexed_choice(
    h: &mut dyn Heuristic,
    filters: &[&dyn Filter],
    task: &Task,
    view: &SystemView<'_>,
    ctx: &FilterCtx,
    classes: &[ClassCandidate],
) -> Option<(usize, PState)> {
    let mut classes = classes.to_vec();
    for f in filters {
        f.retain_indexed(task, view, ctx, &mut classes);
    }
    h.choose_indexed(task, view, &classes)
        .map(|(ci, ps)| (classes[ci].min_core, ps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary mutation sequences ⇒ at every step the shard-indexed
    /// evaluator reproduces the oracle's stream bit-for-bit, a full rebuild
    /// (an evaluator fed the same cores through a view without a mailbox)
    /// reports the exact same hit/miss/class counters, and every indexed
    /// heuristic under every filter variant selects what the full scan
    /// selects.
    #[test]
    fn indexed_top_k_matches_full_scan_over_arbitrary_mutations(
        steps in prop::collection::vec(arb_step(), 1..8),
        remaining_energy in 1.0f64..2_000.0,
        deadline_slack in 100.0f64..4_000.0,
    ) {
        let s = scenario();
        let n = s.cluster().total_cores();
        let mut cores = vec![CoreState::new(); n];
        let mut dirty = DirtyCores::default();
        let mut now = 0.0f64;
        let mut next_id = 0usize;

        let sharded = CandidateEvaluator::default();
        let full = CandidateEvaluator::default();

        let mut out: Vec<EvaluatedCandidate> = Vec::new();
        let mut classes: Vec<ClassCandidate> = Vec::new();

        for (step, ops) in steps.iter().enumerate() {
            apply_step(&mut cores, &mut dirty, ops, &mut now, &mut next_id);
            let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60)
                .with_dirty(&dirty);
            let bare = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
            let task = probe_task(step, deadline_slack, now);

            // Materialized stream: bit-identical to the oracle, and the
            // per-call counter deltas arithmetically exact against a full
            // rebuild (cumulative totals differ only because the sharded
            // evaluator answers two queries per step here).
            let (s0, sk0) = (sharded.dedup_stats(), sharded.dedup_skipped_evaluations());
            let c0 = sharded.prefix_cache_stats();
            sharded.evaluate_all_into(&view, &task, &mut out);
            let (s1, c1) = (sharded.dedup_stats(), sharded.prefix_cache_stats());
            let (f0, fk0) = (full.dedup_stats(), full.dedup_skipped_evaluations());
            let d0 = full.prefix_cache_stats();
            let rebuilt = full.evaluate_all(&bare, &task);
            let (f1, d1) = (full.dedup_stats(), full.prefix_cache_stats());
            let reference = oracle::evaluate_all(&view, &task, ReductionPolicy::default());
            prop_assert_eq!(out.len(), n * NUM_PSTATES);
            prop_assert!(
                candidates_bit_eq(&out, &reference),
                "stream diverged from the oracle at step {}", step
            );
            prop_assert!(candidates_bit_eq(&rebuilt, &reference));
            prop_assert_eq!(
                (s1.0 - s0.0, s1.1 - s0.1),
                (f1.0 - f0.0, f1.1 - f0.1),
                "class counters diverged at step {}", step
            );
            prop_assert_eq!(
                sharded.dedup_skipped_evaluations() - sk0,
                full.dedup_skipped_evaluations() - fk0,
                "skip counters diverged at step {}", step
            );
            prop_assert_eq!(
                c1.0 + c1.1 - c0.0 - c0.1,
                d1.0 + d1.1 - d0.0 - d0.1,
                "prefix lookups diverged at step {}", step
            );

            // Indexed top-k: same choice as the full scan for every
            // indexed heuristic × filter variant.
            sharded.evaluate_indexed_into(&view, &task, &mut classes);
            let ctx = FilterCtx { remaining_energy, budget: 2_000.0 };
            let en = EnergyFilter::paper();
            let rob = RobustnessFilter::paper();
            let variants: [&[&dyn Filter]; 3] =
                [&[], &[&en], &[&en, &rob]];
            let mut heuristics: [Box<dyn Heuristic>; 3] = [
                Box::new(ShortestQueue),
                Box::new(MinimumExpectedCompletionTime),
                Box::new(LightestLoad),
            ];
            for h in heuristics.iter_mut() {
                prop_assert!(h.supports_indexed());
                for filters in variants {
                    let want = full_scan_choice(
                        h.as_mut(), filters, &task, &view, &ctx, &reference,
                    );
                    let got = indexed_choice(
                        h.as_mut(), filters, &task, &view, &ctx, &classes,
                    );
                    prop_assert_eq!(
                        got, want,
                        "{} selection diverged at step {}", h.name(), step
                    );
                }
            }
        }
    }
}
