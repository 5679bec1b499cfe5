//! A deliberately naive reference for the production evaluator and
//! scheduler: Sec. IV-B and the Sec. V-A quantities written directly.
//!
//! Every candidate is evaluated per core and per P-state, and every queue
//! prefix is recomputed on every decision with the by-value pmf operations
//! (`shift`, `truncate_below_or_floor_in_place`, `convolve`, whose
//! reduction is the by-value `reduce`). There is no prefix cache, no fused
//! kernel, no equivalence class and no shard index, so agreement in
//! `f64::to_bits` with `CandidateEvaluator` and `Scheduler` shows that all
//! four are invisible in the results.
//!
//! The file names only the library crates, never the `ecds` facade, so the
//! facade's integration tests (`mod support;`) and the property tests of
//! `ecds-core` (`#[path]`) share this one copy.

#![allow(dead_code)]

use ecds_cluster::PState;
use ecds_core::factory::build_heuristic;
use ecds_core::{
    AssignmentEstimate, EvaluatedCandidate, Filter, FilterCtx, FilterVariant, Heuristic,
    HeuristicKind,
};
use ecds_pmf::{Pmf, ReductionPolicy, Time};
use ecds_sim::{Assignment, Mapper, Scenario, SystemView};
use ecds_workload::{Task, TaskId};

/// Computes the completion-time pmf of the *last pending* task on `core` at
/// the view's time — the "queue prefix" every candidate on that core is
/// convolved with. Returns `None` for an idle, empty core (whose ready time
/// is the current time).
///
/// Per Sec. IV-B: the executing task's execution-time pmf is shifted by its
/// start time, impulses in the past are removed and the rest renormalized
/// (a task that has outlived its entire distribution is treated as
/// completing now); queued tasks' execution-time pmfs are convolved on in
/// FIFO order.
pub fn prefix_pmf(view: &SystemView<'_>, core: usize, policy: ReductionPolicy) -> Option<Pmf> {
    prefix_with_validity(view, core, policy).0
}

/// [`prefix_pmf`] plus the inclusive upper bound of the time
/// window over which the returned prefix stays *bit-identical* while the
/// core's epoch is unchanged (the basis of the evaluator's cache; see
/// DESIGN.md §7).
///
/// The prefix's only time dependence is the truncation of the executing
/// task's shifted pmf at `now`: truncating at any `t` with
/// `now <= t <= min kept impulse` keeps the same impulse set, hence the
/// same renormalization and the same convolution chain. So the bound is
/// the truncated pmf's minimum value — including the degenerate floor case
/// (all mass elapsed → singleton at `now`, valid only at exactly `now`).
/// Idle empty cores have no time dependence (`None` prefix, bound `+∞`);
/// the idle-but-queued branch (unreachable with the bundled engine) shifts
/// by `now` directly, so its bound is `now` itself.
pub fn prefix_with_validity(
    view: &SystemView<'_>,
    core: usize,
    policy: ReductionPolicy,
) -> (Option<Pmf>, Time) {
    let state = view.core_state(core);
    let node = view.cluster().core(core).node;
    let table = view.table();
    let now = view.time();

    let mut valid_until = f64::INFINITY;
    let mut acc: Option<Pmf> = state.executing().map(|exec| {
        let mut completion = table.pmf(exec.type_id, node, exec.pstate).shift(exec.start);
        completion.truncate_below_or_floor_in_place(now);
        valid_until = completion.min_value();
        completion
    });
    for queued in state.queued() {
        let exec_pmf = table.pmf(queued.type_id, node, queued.pstate);
        acc = Some(match acc {
            Some(prefix) => prefix.convolve(exec_pmf, policy),
            // Unreachable with the bundled engine (it starts tasks on idle
            // cores immediately), but kept correct for custom engines.
            None => {
                valid_until = now;
                exec_pmf.shift(now)
            }
        });
    }
    (acc, valid_until)
}

/// The completion-time pmf of assigning `task` to `core` in `pstate` at the
/// view's time, given the core's queue prefix.
pub fn completion_pmf_with_prefix(
    view: &SystemView<'_>,
    task: &Task,
    core: usize,
    pstate: PState,
    prefix: Option<&Pmf>,
    policy: ReductionPolicy,
) -> Pmf {
    let node = view.cluster().core(core).node;
    let exec_pmf = view.table().pmf(task.type_id, node, pstate);
    match prefix {
        Some(p) => p.convolve(exec_pmf, policy),
        None => exec_pmf.shift(view.time()),
    }
}

/// The four Sec. V-A quantities of assigning `task` to `core` in `pstate`,
/// given the core's queue prefix.
pub fn evaluate_with_prefix(
    view: &SystemView<'_>,
    task: &Task,
    core: usize,
    pstate: PState,
    prefix: Option<&Pmf>,
    policy: ReductionPolicy,
) -> AssignmentEstimate {
    let completion = completion_pmf_with_prefix(view, task, core, pstate, prefix, policy);
    let cluster = view.cluster();
    let core_id = cluster.core(core);
    let node = cluster.node_of(core_id);
    let eet = view.table().eet(task.type_id, core_id.node, pstate);
    AssignmentEstimate {
        eet,
        ect: completion.expectation(),
        eec: eet * node.power.watts(pstate) / node.efficiency,
        rho: completion.prob_le(task.deadline),
    }
}

/// Every (core, P-state) candidate for `task`, in core-major /
/// P-state-minor order, each core's prefix recomputed from scratch.
pub fn evaluate_all(
    view: &SystemView<'_>,
    task: &Task,
    policy: ReductionPolicy,
) -> Vec<EvaluatedCandidate> {
    let mut out = Vec::new();
    for core in 0..view.cluster().total_cores() {
        let prefix = prefix_pmf(view, core, policy);
        for pstate in PState::ALL {
            out.push(EvaluatedCandidate {
                core,
                pstate,
                est: evaluate_with_prefix(view, task, core, pstate, prefix.as_ref(), policy),
            });
        }
    }
    out
}

/// The reference mapper: [`evaluate_all`], then each filter's full-scan
/// `retain`, then the heuristic's full-scan `choose`, with the Sec. V-F
/// remaining-energy ledger and the `(task, ρ)` prediction of every
/// assignment. Reports no counters (`MapperStats::default()`).
pub struct OracleMapper {
    heuristic: Box<dyn Heuristic>,
    filters: Vec<Box<dyn Filter>>,
    policy: ReductionPolicy,
    budget: f64,
    remaining: f64,
    predictions: Vec<(TaskId, f64)>,
}

impl OracleMapper {
    /// The oracle counterpart of `build_scheduler(kind, variant, scenario,
    /// trial)`: same heuristic (same Random substream), same filters, same
    /// budget and reduction policy.
    pub fn build(
        kind: HeuristicKind,
        variant: FilterVariant,
        scenario: &Scenario,
        trial: u64,
    ) -> Self {
        let budget = scenario.energy_budget().unwrap_or(f64::INFINITY);
        Self {
            heuristic: build_heuristic(kind, scenario, trial),
            filters: variant.build(),
            policy: ReductionPolicy::default(),
            budget,
            remaining: budget,
            predictions: Vec::new(),
        }
    }

    /// The remaining-energy ledger ζ(t_l).
    pub fn remaining_energy(&self) -> f64 {
        self.remaining
    }

    /// The `(task, predicted ρ)` pairs of the current trial.
    pub fn predictions(&self) -> &[(TaskId, f64)] {
        &self.predictions
    }
}

impl Mapper for OracleMapper {
    fn on_trial_start(&mut self) {
        self.remaining = self.budget;
        self.predictions.clear();
        self.heuristic.reset();
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        let ctx = FilterCtx {
            remaining_energy: self.remaining,
            budget: self.budget,
        };
        let mut candidates = evaluate_all(view, task, self.policy);
        for filter in &self.filters {
            filter.retain(task, view, &ctx, &mut candidates);
            if candidates.is_empty() {
                return None;
            }
        }
        let chosen = candidates[self.heuristic.choose(task, view, &candidates)?];
        self.remaining -= chosen.est.eec;
        self.predictions.push((task.id, chosen.est.rho));
        Some(Assignment {
            core: chosen.core,
            pstate: chosen.pstate,
        })
    }
}
