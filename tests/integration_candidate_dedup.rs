//! Candidate equivalence-class deduplication is invisible: full trials run
//! with the production scheduler — one evaluation per class, estimates
//! replicated to its members — are bit-identical (task outcomes, energy,
//! makespan, exhaustion, telemetry series, ledger and predictions) to
//! trials run with the oracle, which evaluates every (core, P-state) pair
//! on its own. One slice of the production ≡ oracle suite
//! (`integration_oracle.rs`); the class counters themselves are checked to
//! be live, and decisions that fan out are checked candidate by candidate.

mod support;

use ecds::core::{ClassCandidate, FAN_OUT_MIN_BUSY_CLASSES};
use ecds::prelude::*;
use support::{
    assert_ledgers_bit_identical, assert_scheduler_matches_oracle, assert_trials_bit_identical,
    oracle, OracleMapper,
};

/// Seeds × all heuristics, with the paper's best filter chain — the
/// configuration where replicated estimates drive every decision through
/// ECT, ρ, and the robustness filter (so any replication error would change
/// assignments, not just diagnostics).
#[test]
fn deduped_equals_per_core_across_seeds_and_heuristics() {
    for kind in HeuristicKind::ALL {
        assert_scheduler_matches_oracle(29, 0, kind, FilterVariant::EnergyAndRobustness);
    }
}

/// Filters drop different candidate subsets, so each chain exercises
/// different replicated-estimate consumption paths — including argmin
/// tie-breaks among bit-identical class members, which must keep resolving
/// to the lowest (core, P-state) emitted.
#[test]
fn deduped_equals_per_core_across_filter_variants() {
    for variant in FilterVariant::ALL {
        assert_scheduler_matches_oracle(7, 1, HeuristicKind::ShortestQueue, variant);
    }
}

/// The oracle also keeps no prefix cache: classes over cached prefixes
/// against per-core evaluation over recomputed ones.
#[test]
fn deduped_equals_per_core_over_recomputed_prefixes() {
    assert_scheduler_matches_oracle(
        11,
        1,
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
    );
}

/// Dedup must actually be collapsing work: on the bundled scenario most
/// arrivals see several interchangeable cores, so classes per event sit
/// strictly below the core count and skipped evaluations accumulate. The
/// per-core oracle reports no dedup stats at all.
#[test]
fn deduped_runs_report_classes_and_per_core_report_none() {
    let (a, b) = assert_scheduler_matches_oracle(
        3,
        3,
        HeuristicKind::Mect,
        FilterVariant::EnergyAndRobustness,
    );
    let mapper = a.telemetry().mapper;
    let (classes, events) = mapper
        .candidate_classes
        .expect("the scheduler counts classes");
    assert!(events > 0, "every arrival is a mapping event");
    assert!(classes >= events, "at least one class per event");
    let cores = Scenario::small_for_tests(3).cluster().total_cores() as u64;
    assert!(
        classes < events * cores,
        "some event must collapse at least two cores ({classes} classes \
         over {events} events on {cores} cores)"
    );
    let per_event = mapper.classes_per_event().expect("events were recorded");
    assert!(per_event >= 1.0 && per_event < cores as f64);
    assert!(mapper.dedup_skipped_evaluations > 0);

    assert_eq!(b.telemetry().mapper.candidate_classes, None);
    assert_eq!(b.telemetry().mapper.dedup_skipped_evaluations, 0);
    assert_eq!(b.telemetry().mapper.classes_per_event(), None);
}

/// A templated cluster large enough that loaded decisions cross the
/// fan-out floor: 24 nodes from 4 templates, arrivals scaled to its core
/// count so bursts queue work on many cores at once.
fn fan_out_scenario(master: u64) -> Scenario {
    let cluster = ClusterGenConfig::scaled(24, 4);
    let probe = Scenario::with_configs(master, cluster.clone(), WorkloadConfig::small_for_tests());
    let window = probe.workload().window;
    let workload = WorkloadConfig {
        arrivals: BurstPattern::scaled_to_cluster(window, probe.cluster().total_cores()),
        ..WorkloadConfig::small_for_tests()
    };
    Scenario::with_configs(master, cluster, workload)
}

/// Runs the production scheduler (shard index, fan-out) and the serial
/// oracle side by side on every decision, and checks two bare evaluators
/// against the oracle on the same views: the production full-scan path and
/// the production indexed path.
struct FanOutDifferential {
    production: Box<Scheduler>,
    reference: OracleMapper,
    scan: CandidateEvaluator,
    indexed: CandidateEvaluator,
    out: Vec<EvaluatedCandidate>,
    classes: Vec<ClassCandidate>,
    /// Decisions with at least `FAN_OUT_MIN_BUSY_CLASSES` busy classes.
    above_floor: usize,
    decisions: u64,
    /// Classes the indexed path emitted, summed over decisions.
    classes_seen: u64,
    /// `(core, P-state)` pairs those classes stood in for beyond their
    /// representatives, summed over decisions.
    skipped_seen: u64,
    label: String,
}

impl Mapper for FanOutDifferential {
    fn on_trial_start(&mut self) {
        self.production.on_trial_start();
        self.reference.on_trial_start();
        for evaluator in [&self.scan, &self.indexed] {
            evaluator.reset_cache();
        }
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        let label = &self.label;
        let reference = oracle::evaluate_all(view, task, ReductionPolicy::default());
        self.scan.evaluate_all_into(view, task, &mut self.out);
        assert!(
            candidates_bit_eq(&self.out, &reference),
            "{label}: full-scan candidates diverged at task {:?}",
            task.id
        );
        self.indexed
            .evaluate_indexed_into(view, task, &mut self.classes);
        let mut members = 0;
        for class in &self.classes {
            members += class.members;
            for pstate in PState::ALL {
                let want = &reference[class.min_core * PState::ALL.len() + pstate.index()];
                assert_eq!((want.core, want.pstate), (class.min_core, pstate));
                assert!(
                    class.ests[pstate.index()].bit_eq(&want.est),
                    "{label}: class of core {} diverged in {pstate:?} at task {:?}",
                    class.min_core,
                    task.id
                );
            }
        }
        let cores = view.cluster().total_cores();
        assert_eq!(members, cores);
        self.decisions += 1;
        self.classes_seen += self.classes.len() as u64;
        self.skipped_seen += ((cores - self.classes.len()) * PState::ALL.len()) as u64;
        let busy = self.classes.iter().filter(|c| c.depth > 0).count();
        if busy >= FAN_OUT_MIN_BUSY_CLASSES {
            self.above_floor += 1;
        }
        let chosen = self.production.assign(task, view);
        assert_eq!(
            chosen,
            self.reference.assign(task, view),
            "{label}: chosen assignment diverged at task {:?}",
            task.id
        );
        chosen
    }

    fn stats(&self) -> MapperStats {
        self.production.stats()
    }
}

/// Decisions that fan out (at least `FAN_OUT_MIN_BUSY_CLASSES` busy
/// classes, a second core) are bit-identical to the serial oracle: every
/// `EvaluatedCandidate`, every `ClassCandidate`, the chosen assignment, the
/// trial outcome, ledger and predictions — over seeds × {SQ, MECT, LL,
/// Random} × {none, en+rob}. The two evaluators' kernel and prefix-cache
/// counters agree with each other and with the scheduler's, and their class
/// and skip counters match the classes the indexed path actually emitted.
#[test]
fn fanned_out_shard_paths_equal_the_serial_reference() {
    let two_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    for master in [5, 17] {
        let scenario = fan_out_scenario(master);
        let trace = scenario.trace(0);
        for kind in HeuristicKind::ALL {
            for variant in [FilterVariant::None, FilterVariant::EnergyAndRobustness] {
                let label = format!("seed {master} / {kind} / {variant}");
                let mut diff = FanOutDifferential {
                    production: Box::new(
                        (*build_scheduler(kind, variant, &scenario, 0)).with_prediction_recording(),
                    ),
                    reference: OracleMapper::build(kind, variant, &scenario, 0),
                    scan: CandidateEvaluator::default(),
                    indexed: CandidateEvaluator::default(),
                    out: Vec::new(),
                    classes: Vec::new(),
                    above_floor: 0,
                    decisions: 0,
                    classes_seen: 0,
                    skipped_seen: 0,
                    label: label.clone(),
                };
                let result = Simulation::new(&scenario, &trace).run(&mut diff);
                let mut serial = OracleMapper::build(kind, variant, &scenario, 0);
                let reference = Simulation::new(&scenario, &trace).run(&mut serial);
                assert_trials_bit_identical(&result, &reference, &label);
                assert_ledgers_bit_identical(&diff.production, &serial, &label);
                let prod = diff.production.stats();
                for (name, evaluator) in [("scan", &diff.scan), ("indexed", &diff.indexed)] {
                    assert_eq!(
                        (
                            evaluator.fused_kernel_calls(),
                            Some(evaluator.prefix_cache_stats())
                        ),
                        (prod.fused_kernel_calls, prod.prefix_cache),
                        "{label}: {name} kernel or prefix-cache counters diverged"
                    );
                    assert_eq!(
                        (
                            evaluator.dedup_stats(),
                            evaluator.dedup_skipped_evaluations()
                        ),
                        ((diff.classes_seen, diff.decisions), diff.skipped_seen),
                        "{label}: {name} class counters diverged from the classes emitted"
                    );
                    assert_eq!(
                        (prod.candidate_classes, prod.dedup_skipped_evaluations),
                        (
                            Some(evaluator.dedup_stats()),
                            evaluator.dedup_skipped_evaluations()
                        ),
                        "{label}: scheduler class counters diverged from {name}"
                    );
                }
                assert!(
                    diff.above_floor > 0,
                    "{label}: no decision reached the fan-out floor"
                );
                if two_cores {
                    assert_eq!(
                        diff.scan.evaluation_lanes(),
                        2,
                        "{label}: scan never fanned out"
                    );
                    assert_eq!(
                        diff.indexed.evaluation_lanes(),
                        2,
                        "{label}: indexed never fanned out"
                    );
                }
            }
        }
    }
}
