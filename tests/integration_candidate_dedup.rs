//! Differential proof that candidate equivalence-class deduplication is
//! invisible: full trials run with the deduplicating scheduler (the
//! default) must be bit-identical — task outcomes, energy, makespan,
//! exhaustion, telemetry series — to trials run with a scheduler that
//! evaluates every (core, P-state) pair independently.
//!
//! Only the *semantic* fields are compared; the dedup counters themselves
//! legitimately differ (that is the whole point of having both modes).

use ecds::core::{ClassCandidate, FAN_OUT_MIN_BUSY_CLASSES};
use ecds::prelude::*;

fn run_pair(
    master: u64,
    trial: u64,
    kind: HeuristicKind,
    variant: FilterVariant,
) -> (TrialResult, TrialResult) {
    let scenario = Scenario::small_for_tests(master);
    let trace = scenario.trace(trial);
    let mut deduped = build_scheduler(kind, variant, &scenario, trial);
    let mut per_core =
        Box::new((*build_scheduler(kind, variant, &scenario, trial)).without_candidate_dedup());
    let a = Simulation::new(&scenario, &trace).run(deduped.as_mut());
    let b = Simulation::new(&scenario, &trace).run(per_core.as_mut());
    (a, b)
}

fn assert_semantically_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(a.outcomes(), b.outcomes(), "{label}: outcomes diverged");
    assert_eq!(
        a.total_energy(),
        b.total_energy(),
        "{label}: energy diverged"
    );
    assert_eq!(
        a.exhausted_at(),
        b.exhausted_at(),
        "{label}: exhaustion diverged"
    );
    assert_eq!(a.makespan(), b.makespan(), "{label}: makespan diverged");
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert_eq!(
        ta.queue_depth, tb.queue_depth,
        "{label}: queue depth diverged"
    );
    assert_eq!(ta.busy_cores, tb.busy_cores, "{label}: busy cores diverged");
    assert_eq!(ta.power, tb.power, "{label}: power timeline diverged");
}

/// The acceptance grid: ≥3 seeds × all heuristics, with the paper's best
/// filter chain — the configuration where replicated estimates drive every
/// decision through ECT, ρ, and the robustness filter (so any replication
/// error would change assignments, not just diagnostics).
#[test]
fn deduped_equals_per_core_across_seeds_and_heuristics() {
    for master in [3, 11, 29] {
        for kind in HeuristicKind::ALL {
            let (a, b) = run_pair(master, 0, kind, FilterVariant::EnergyAndRobustness);
            assert_semantically_identical(&a, &b, &format!("seed {master} / {kind}"));
        }
    }
}

/// Filters drop different candidate subsets, so each chain exercises
/// different replicated-estimate consumption paths — including argmin
/// tie-breaks among bit-identical class members, which must keep resolving
/// to the lowest (core, P-state) emitted.
#[test]
fn deduped_equals_per_core_across_filter_variants() {
    for variant in FilterVariant::ALL {
        let (a, b) = run_pair(7, 1, HeuristicKind::Mect, variant);
        assert_semantically_identical(&a, &b, &format!("variant {variant}"));
    }
}

/// Dedup composes with the cache escape hatch: the uncached deduplicating
/// evaluator must also be invisible relative to the uncached per-core one.
#[test]
fn deduped_equals_per_core_without_prefix_cache() {
    let scenario = Scenario::small_for_tests(11);
    let trace = scenario.trace(0);
    let kind = HeuristicKind::LightestLoad;
    let variant = FilterVariant::EnergyAndRobustness;
    let mut deduped =
        Box::new((*build_scheduler(kind, variant, &scenario, 0)).without_prefix_cache());
    let mut per_core = Box::new(
        (*build_scheduler(kind, variant, &scenario, 0))
            .without_prefix_cache()
            .without_candidate_dedup(),
    );
    let a = Simulation::new(&scenario, &trace).run(deduped.as_mut());
    let b = Simulation::new(&scenario, &trace).run(per_core.as_mut());
    assert_semantically_identical(&a, &b, "uncached pair");
}

/// Dedup must actually be collapsing work: on the bundled scenario most
/// arrivals see several interchangeable cores, so classes per event sit
/// strictly below the core count and skipped evaluations accumulate. The
/// per-core scheduler reports no dedup stats at all.
#[test]
fn deduped_runs_report_classes_and_per_core_report_none() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let mut deduped = build_scheduler(
        HeuristicKind::Mect,
        FilterVariant::EnergyAndRobustness,
        &scenario,
        0,
    );
    let a = Simulation::new(&scenario, &trace).run(deduped.as_mut());
    let mapper = a.telemetry().mapper;
    let (classes, events) = mapper.candidate_classes.expect("dedup is on by default");
    assert!(events > 0, "every arrival is a mapping event");
    assert!(classes >= events, "at least one class per event");
    let cores = scenario.cluster().total_cores() as u64;
    assert!(
        classes < events * cores,
        "some event must collapse at least two cores ({classes} classes \
         over {events} events on {cores} cores)"
    );
    let per_event = mapper.classes_per_event().expect("events were recorded");
    assert!(per_event >= 1.0 && per_event < cores as f64);
    assert!(mapper.dedup_skipped_evaluations > 0);

    let mut per_core = Box::new(
        (*build_scheduler(
            HeuristicKind::Mect,
            FilterVariant::EnergyAndRobustness,
            &scenario,
            0,
        ))
        .without_candidate_dedup(),
    );
    let b = Simulation::new(&scenario, &trace).run(per_core.as_mut());
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
/// `without_shard_index()` reference side by side on every decision, and
/// checks three bare evaluators against each other on the same views: the
/// production full-scan path, the production indexed path and the serial
/// reference.
struct FanOutDifferential {
    production: Box<dyn Mapper>,
    reference: Box<dyn Mapper>,
    scan: CandidateEvaluator,
    indexed: CandidateEvaluator,
    serial: CandidateEvaluator,
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
        for evaluator in [&self.scan, &self.indexed, &self.serial] {
            evaluator.reset_cache();
        }
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        let label = &self.label;
        let reference = self.serial.evaluate_all(view, task);
        self.scan.evaluate_all_into(view, task, &mut self.out);
        assert!(
            candidates_bit_eq(&self.out, &reference),
            "{label}: full-scan candidates diverged at task {:?}",
            task.id
        );
        assert!(self
            .indexed
            .evaluate_indexed_into(view, task, &mut self.classes));
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

/// Decisions that fan out (shard paths, at least `FAN_OUT_MIN_BUSY_CLASSES`
/// busy classes, a second core) are bit-identical to the serial reference:
/// every `EvaluatedCandidate`, every `ClassCandidate`, the chosen
/// assignment, the trial outcome, and the kernel and prefix-cache counters
/// — over seeds × {SQ, MECT, LL, Random} × {none, en+rob}. The class and
/// skip counters match the classes the indexed path actually emitted.
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
                    production: build_scheduler(kind, variant, &scenario, 0),
                    reference: Box::new(
                        (*build_scheduler(kind, variant, &scenario, 0)).without_shard_index(),
                    ),
                    scan: CandidateEvaluator::default(),
                    indexed: CandidateEvaluator::default(),
                    serial: CandidateEvaluator::default().without_shard_index(),
                    out: Vec::new(),
                    classes: Vec::new(),
                    above_floor: 0,
                    decisions: 0,
                    classes_seen: 0,
                    skipped_seen: 0,
                    label: label.clone(),
                };
                let result = Simulation::new(&scenario, &trace).run(&mut diff);
                let mut serial =
                    (*build_scheduler(kind, variant, &scenario, 0)).without_shard_index();
                let reference = Simulation::new(&scenario, &trace).run(&mut serial);
                assert_semantically_identical(&result, &reference, &label);
                // The per-event reference keys classes by node, the shard
                // index by node template and depth, so their class and skip
                // counters differ by design; every other counter matches.
                let (prod, serial_stats) = (diff.production.stats(), diff.reference.stats());
                assert_eq!(
                    (prod.prefix_cache, prod.fused_kernel_calls),
                    (serial_stats.prefix_cache, serial_stats.fused_kernel_calls),
                    "{label}: scheduler counters diverged"
                );
                for (name, evaluator) in [("scan", &diff.scan), ("indexed", &diff.indexed)] {
                    let serial = &diff.serial;
                    assert_eq!(
                        (
                            evaluator.fused_kernel_calls(),
                            evaluator.prefix_cache_stats()
                        ),
                        (serial.fused_kernel_calls(), serial.prefix_cache_stats()),
                        "{label}: {name} kernel or prefix-cache counters diverged"
                    );
                    assert_eq!(
                        (
                            evaluator.dedup_stats(),
                            evaluator.dedup_skipped_evaluations()
                        ),
                        (Some((diff.classes_seen, diff.decisions)), diff.skipped_seen),
                        "{label}: {name} class counters diverged from the classes emitted"
                    );
                    assert_eq!(
                        (prod.candidate_classes, prod.dedup_skipped_evaluations),
                        (
                            evaluator.dedup_stats(),
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
