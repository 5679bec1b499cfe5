//! Per-assignment estimation: the stochastic completion-time computation of
//! Sec. IV-B and the expectation operators of Sec. V-A.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::{Pmf, PmfScratch, Prob, ReductionPolicy, Time};
use ecds_sim::{DirtyCores, PrefixStamp, SystemView};
use ecds_workload::Task;

use crate::candidate::EvaluatedCandidate;
use crate::fanout::FanOut;
use crate::shard::{ClassCandidate, ClassKey, Expiry, ShardIndex, CLASS_NONE, ZERO_ESTS};

/// The four quantities Sec. V-A defines per assignment of task `z` to core
/// `k` (of processor `j`, node `i`) in P-state `π` at time `t_l`.
///
/// Deliberately *not* `PartialEq`: float `==` is the wrong relation for
/// differential testing (NaN-hostile, and weaker than the bit identity the
/// pipeline actually guarantees — `-0.0 == 0.0` would mask a real
/// divergence). Compare with [`AssignmentEstimate::bit_eq`].
#[derive(Debug, Clone, Copy)]
pub struct AssignmentEstimate {
    /// `EET(i,j,k,π,z)`: expectation of the execution-time pmf.
    pub eet: Time,
    /// `ECT(i,j,k,π,t_l,z)`: expectation of the completion-time pmf.
    pub ect: Time,
    /// `EEC(i,j,k,π,z) = EET × μ(i,π) / ε(i)`: expected wall energy.
    pub eec: f64,
    /// `ρ(i,j,k,π,t_l,z)`: probability of finishing by the deadline.
    pub rho: Prob,
}

impl AssignmentEstimate {
    /// `true` iff all four quantities match bit-for-bit (`f64::to_bits`) —
    /// the identity differential suites assert, consistent with lint rule
    /// R3's stance on float equality.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.eet.to_bits() == other.eet.to_bits()
            && self.ect.to_bits() == other.ect.to_bits()
            && self.eec.to_bits() == other.eec.to_bits()
            && self.rho.to_bits() == other.rho.to_bits()
    }
}

/// Computes the completion-time pmf of the *last pending* task on `core` at
/// the view's time — the "queue prefix" every candidate on that core is
/// convolved with — plus the inclusive upper bound of the time window over
/// which the returned prefix stays *bit-identical* while the core's epoch is
/// unchanged (the basis of the evaluator's cache; see DESIGN.md §7).
/// Returns `None` for an idle, empty core (whose ready time is the current
/// time).
///
/// Per Sec. IV-B: the executing task's execution-time pmf is shifted by its
/// start time, impulses in the past are removed and the rest renormalized
/// (a task that has outlived its entire distribution is treated as
/// completing now); queued tasks' execution-time pmfs are convolved on in
/// FIFO order. The whole chain runs on the scratch's resident prefix buffer
/// (zero intermediate `Pmf`s) and the result is materialized once, for the
/// cache entry every later lookup borrows; it is bit-identical to the same
/// chain written with the by-value `shift`/`truncate`/`convolve` (see
/// `ecds_pmf::scratch`).
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
fn prefix_with_validity(
    view: &SystemView<'_>,
    core: usize,
    policy: ReductionPolicy,
    scratch: &mut PmfScratch,
) -> (Option<Pmf>, Time) {
    let state = view.core_state(core);
    let node = view.cluster().core(core).node;
    let table = view.table();
    let now = view.time();

    let mut valid_until = f64::INFINITY;
    scratch.clear_prefix();
    if let Some(exec) = state.executing() {
        scratch.load_prefix_shifted(table.pmf(exec.type_id, node, exec.pstate), exec.start);
        scratch.truncate_prefix_below_or_floor(now);
        valid_until = scratch.prefix().min_value();
    }
    for queued in state.queued() {
        let exec_pmf = table.pmf(queued.type_id, node, queued.pstate);
        if scratch.has_prefix() {
            scratch.convolve_prefix_with(exec_pmf, policy);
        } else {
            // Unreachable with the bundled engine (it starts tasks on idle
            // cores immediately), but kept correct for custom engines.
            valid_until = now;
            scratch.load_prefix_shifted(exec_pmf, now);
        }
    }
    let prefix = scratch.has_prefix().then(|| scratch.prefix().to_pmf());
    (prefix, valid_until)
}

/// `pmf.shift(dt).expectation()` without materializing the shifted pmf:
/// the sum runs over `(value + dt) * prob` in impulse order — exactly the
/// `weighted_value` terms [`Pmf::expectation`] would add — so the result is
/// bit-identical to the allocating form.
fn shifted_expectation(pmf: &Pmf, dt: Time) -> f64 {
    pmf.impulses().iter().map(|i| (i.value + dt) * i.prob).sum()
}

/// `pmf.shift(dt).prob_le(x)` without materializing the shifted pmf — the
/// same accumulate-and-break loop as [`Pmf::prob_le`] over `value + dt`.
fn shifted_prob_le(pmf: &Pmf, dt: Time, x: Time) -> Prob {
    let mut acc = 0.0;
    for imp in pmf.impulses() {
        if imp.value + dt <= x {
            acc += imp.prob;
        } else {
            break;
        }
    }
    acc.min(1.0)
}

/// The estimate of assigning `task` to `core` in `pstate`, given its
/// completion-time moments: `EET` and `EEC` depend only on the core's node.
fn assemble_estimate(
    view: &SystemView<'_>,
    task: &Task,
    core: usize,
    pstate: PState,
    (ect, rho): (Time, Prob),
) -> AssignmentEstimate {
    let cluster = view.cluster();
    let core_id = cluster.core(core);
    let node = cluster.node_of(core_id);
    let eet = view.table().eet(task.type_id, core_id.node, pstate);
    AssignmentEstimate {
        eet,
        ect,
        eec: eet * node.power.watts(pstate) / node.efficiency,
        rho,
    }
}

/// One core's cached queue prefix: the pmf (or `None` for an idle empty
/// core) plus the state it is exact for.
#[derive(Debug, Clone)]
struct CachedPrefix {
    /// [`CoreState::epoch`](ecds_sim::CoreState::epoch) at computation time.
    epoch: u64,
    /// View time the prefix was computed at.
    computed_at: Time,
    /// Inclusive end of the exact-validity window (see
    /// [`prefix_with_validity`]).
    valid_until: Time,
    prefix: Option<Pmf>,
    /// Bit-fingerprint of `prefix` (epoch-guarded; re-stamped on every
    /// fill) — the fast equivalence-class key of DESIGN.md §13.
    stamp: PrefixStamp,
}

/// The cache entry of `core`, which the caller has just refreshed via
/// [`CandidateEvaluator::refresh_entry`].
fn entry_of(entries: &[Option<CachedPrefix>], core: usize) -> &CachedPrefix {
    entries[core].as_ref().unwrap()
}

/// Bit-identity of two optional queue prefixes: both absent (idle, empty
/// cores), or present and impulse-for-impulse bit-identical.
fn prefix_bit_eq(a: Option<&Pmf>, b: Option<&Pmf>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.bit_eq(b),
        _ => false,
    }
}

/// Evaluates all candidate assignments for one arriving task: the Sec. V-A
/// quantities of every (core, P-state) pair, computed once per candidate
/// *equivalence class* (DESIGN.md §13).
///
/// Three mechanisms make this cheap, none of them visible in the results:
///
/// - A *versioned prefix cache* remembers each core's queue prefix with
///   the core's mutation epoch and the prefix's exact-validity time window,
///   and reuses it while both still match — reused prefixes are
///   bit-identical to recomputed ones by construction (DESIGN.md §7).
/// - Every convolution runs through the allocation-free fused kernel of a
///   [`PmfScratch`] the evaluator owns, bit-identical to the by-value pmf
///   operations (DESIGN.md §7.1).
/// - A persistent *shard index* partitions the cores into classes keyed by
///   node template, prefix fingerprint and queue depth, with membership
///   confirmed by [`Pmf::bit_eq`]. Each class is evaluated once, on its
///   lowest-index member. The engine's dirty-core mailbox keeps the index
///   up to date incrementally; a view without one rebuilds it on every
///   call, which is the same partition, only slower.
///
/// A decision with at least
/// [`FAN_OUT_MIN_BUSY_CLASSES`](crate::FAN_OUT_MIN_BUSY_CLASSES) busy
/// classes shares its kernel calls with one persistent helper thread,
/// spawned on the first such decision and joined on drop; estimates and
/// counters are bit-identical to a serial evaluation (DESIGN.md §15).
///
/// The state is interiorly mutable, so the evaluation API stays `&self`.
/// The evaluator is `Send` but not `Sync` (one per scheduler, one
/// scheduler per thread).
#[derive(Debug)]
pub struct CandidateEvaluator {
    policy: ReductionPolicy,
    /// The prefix cache, indexed by core.
    cache: RefCell<Vec<Option<CachedPrefix>>>,
    /// The fused kernel's workspace.
    scratch: RefCell<PmfScratch>,
    /// The persistent shard index of DESIGN.md §13.
    shard: RefCell<ShardIndex>,
    /// Representative core of every class one decision evaluates
    /// (retained capacity).
    class_reps: RefCell<Vec<usize>>,
    /// The second evaluation lane.
    fan_out: RefCell<FanOut>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Equivalence classes summed over all mapping events.
    dedup_classes: Cell<u64>,
    /// Mapping events (`evaluate_all_into` / `evaluate_indexed_into` calls).
    dedup_events: Cell<u64>,
    /// (core, P-state) evaluations skipped via class replication.
    dedup_skipped: Cell<u64>,
}

impl CandidateEvaluator {
    /// Creates an evaluator with the given convolution reduction policy.
    pub fn new(policy: ReductionPolicy) -> Self {
        Self {
            policy,
            cache: RefCell::new(Vec::new()),
            scratch: RefCell::new(PmfScratch::new()),
            shard: RefCell::new(ShardIndex::default()),
            class_reps: RefCell::new(Vec::new()),
            fan_out: RefCell::new(FanOut::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            dedup_classes: Cell::new(0),
            dedup_events: Cell::new(0),
            dedup_skipped: Cell::new(0),
        }
    }

    /// Threads that evaluate this evaluator's decisions: `2` once the
    /// fan-out helper runs, `1` before its first large enough decision and
    /// on single-core hosts.
    pub fn evaluation_lanes(&self) -> usize {
        self.fan_out.borrow().lanes()
    }

    /// The reduction policy in use.
    pub fn policy(&self) -> ReductionPolicy {
        self.policy
    }

    /// Number of fused-kernel invocations since construction or the last
    /// [`CandidateEvaluator::reset_cache`]. Includes the fan-out helper's
    /// calls, which are folded in before each decision returns.
    pub fn fused_kernel_calls(&self) -> u64 {
        self.scratch.borrow().kernel_calls()
    }

    /// `(hits, misses)` of the prefix cache since construction or the last
    /// [`CandidateEvaluator::reset_cache`].
    pub fn prefix_cache_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// `(classes, events)` — candidate equivalence classes summed over all
    /// mapping events, and the number of such events — since construction
    /// or the last [`CandidateEvaluator::reset_cache`].
    pub fn dedup_stats(&self) -> (u64, u64) {
        (self.dedup_classes.get(), self.dedup_events.get())
    }

    /// (core, P-state) evaluations skipped because the core belonged to an
    /// already-evaluated equivalence class.
    pub fn dedup_skipped_evaluations(&self) -> u64 {
        self.dedup_skipped.get()
    }

    /// Drops every cached prefix and the shard index, and zeroes the
    /// hit/miss, class and kernel counters. Must be called between trials:
    /// a fresh trial resets every core to epoch 0, which would otherwise
    /// collide with stale entries.
    pub fn reset_cache(&self) {
        self.cache.borrow_mut().clear();
        self.scratch.borrow_mut().reset_kernel_calls();
        self.shard.borrow_mut().reset();
        self.hits.set(0);
        self.misses.set(0);
        self.dedup_classes.set(0);
        self.dedup_events.set(0);
        self.dedup_skipped.set(0);
    }

    /// Serializes the evaluator's mutable state — the counters, the fused
    /// kernel's call count, and every prefix-cache entry (epoch, validity
    /// window, pmf, stamp) — into a serving checkpoint.
    pub fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.hits.get());
        enc.put_u64(self.misses.get());
        enc.put_u64(self.dedup_classes.get());
        enc.put_u64(self.dedup_events.get());
        enc.put_u64(self.dedup_skipped.get());
        enc.put_u64(self.scratch.borrow().kernel_calls());
        let entries = self.cache.borrow();
        enc.put_u64(entries.len() as u64);
        for entry in entries.iter() {
            match entry {
                Some(e) => {
                    enc.put_bool(true);
                    enc.put_u64(e.epoch);
                    enc.put_f64(e.computed_at);
                    enc.put_f64(e.valid_until);
                    e.prefix.encode(enc);
                    e.stamp.encode(enc);
                }
                None => enc.put_bool(false),
            }
        }
    }

    /// Restores state written by [`CandidateEvaluator::save_state`]. The
    /// shard index is derived from the cache entries and never
    /// checkpointed: the next decision rebuilds it.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.hits.set(dec.u64()?);
        self.misses.set(dec.u64()?);
        self.dedup_classes.set(dec.u64()?);
        self.dedup_events.set(dec.u64()?);
        self.dedup_skipped.set(dec.u64()?);
        self.scratch.get_mut().set_kernel_calls(dec.u64()?);
        let n = dec.u64()?;
        if n > dec.remaining() {
            return Err(DecodeError::Truncated);
        }
        let mut entries = Vec::with_capacity(n as usize);
        for _ in 0..n {
            if dec.bool()? {
                let epoch = dec.u64()?;
                let computed_at = dec.f64()?;
                let valid_until = dec.f64()?;
                if computed_at.is_nan() || valid_until.is_nan() {
                    return Err(DecodeError::Corrupt(
                        "cache validity window must not be NaN",
                    ));
                }
                let prefix = Option::<Pmf>::decode(dec)?;
                let stamp = PrefixStamp::decode(dec)?;
                entries.push(Some(CachedPrefix {
                    epoch,
                    computed_at,
                    valid_until,
                    prefix,
                    stamp,
                }));
            } else {
                entries.push(None);
            }
        }
        *self.cache.get_mut() = entries;
        self.shard.get_mut().reset();
        Ok(())
    }

    /// Brings `core`'s cache entry up to date: a lookup counts as a hit
    /// when the core's epoch and the view time both sit inside the cached
    /// entry's exact-validity window, and recomputes (re-stamping the
    /// prefix fingerprint) otherwise. Postcondition: `entries[core]` is
    /// `Some` and exact for the view.
    fn refresh_entry(
        &self,
        entries: &mut Vec<Option<CachedPrefix>>,
        view: &SystemView<'_>,
        core: usize,
    ) {
        let epoch = view.core_epoch(core);
        let now = view.time();
        if entries.len() <= core {
            entries.resize(view.cluster().total_cores().max(core + 1), None);
        }
        let fresh = matches!(
            &entries[core],
            Some(e) if e.epoch == epoch && e.computed_at <= now && now <= e.valid_until
        );
        if fresh {
            self.hits.set(self.hits.get() + 1);
            return;
        }
        self.misses.set(self.misses.get() + 1);
        let (prefix, valid_until) =
            prefix_with_validity(view, core, self.policy, &mut self.scratch.borrow_mut());
        let fingerprint = prefix.as_ref().map(Pmf::fingerprint);
        match &mut entries[core] {
            Some(e) => {
                e.epoch = epoch;
                e.computed_at = now;
                e.valid_until = valid_until;
                e.prefix = prefix;
                e.stamp.restamp(fingerprint);
            }
            slot => {
                let mut stamp = PrefixStamp::new();
                stamp.restamp(fingerprint);
                *slot = Some(CachedPrefix {
                    epoch,
                    computed_at: now,
                    valid_until,
                    prefix,
                    stamp,
                });
            }
        }
    }

    fn evaluate_with_prefix(
        &self,
        view: &SystemView<'_>,
        task: &Task,
        core: usize,
        pstate: PState,
        prefix: Option<&Pmf>,
    ) -> AssignmentEstimate {
        let ect_rho = self.ect_rho(view, task, core, pstate, prefix);
        assemble_estimate(view, task, core, pstate, ect_rho)
    }

    /// `(ECT, ρ)` of one assignment.
    fn ect_rho(
        &self,
        view: &SystemView<'_>,
        task: &Task,
        core: usize,
        pstate: PState,
        prefix: Option<&Pmf>,
    ) -> (Time, Prob) {
        let node = view.cluster().core(core).node;
        let exec_pmf = view.table().pmf(task.type_id, node, pstate);
        // The completion-time pmf is never materialized: the convolution
        // lands in the scratch workspace and the two moments are read
        // straight off the buffer (busy core), or computed shift-free from
        // the execution-time pmf (idle core). Both are bit-identical to the
        // by-value `convolve`/`shift` followed by the `Pmf` queries.
        match prefix {
            Some(p) => {
                let mut scratch = self.scratch.borrow_mut();
                let completion = scratch.convolve_reduced(p, exec_pmf, self.policy);
                (completion.expectation(), completion.prob_le(task.deadline))
            }
            None => {
                let now = view.time();
                (
                    shifted_expectation(exec_pmf, now),
                    shifted_prob_le(exec_pmf, now, task.deadline),
                )
            }
        }
    }

    /// The estimates of every class representative in `reps` — all five
    /// P-states, each against the representative's refreshed cache entry —
    /// handed to `store` by position in `reps`. The one evaluation routine
    /// of both entry points.
    ///
    /// With at least [`FAN_OUT_MIN_BUSY_CLASSES`](crate::FAN_OUT_MIN_BUSY_CLASSES)
    /// busy classes and a second core, the busy classes' kernel calls are
    /// shared with the fan-out helper while `EET`/`EEC` and the idle-class
    /// arm stay on the caller. Each (class, P-state) result is computed by
    /// the same kernel on the same inputs and written back by index, so
    /// the estimates are bit-identical to the serial loop (DESIGN.md §15).
    fn evaluate_classes(
        &self,
        view: &SystemView<'_>,
        task: &Task,
        entries: &[Option<CachedPrefix>],
        reps: &[usize],
        mut store: impl FnMut(usize, [AssignmentEstimate; NUM_PSTATES]),
    ) {
        let prefix_of = |rep: usize| entry_of(entries, rep).prefix.as_ref();
        let busy = reps.iter().filter(|&&rep| prefix_of(rep).is_some()).count();
        let mut fan_out = self.fan_out.borrow_mut();
        let Some(mut batch) = fan_out.begin_batch(busy, self.policy, task.deadline) else {
            for (i, &rep) in reps.iter().enumerate() {
                let prefix = prefix_of(rep);
                store(
                    i,
                    PState::ALL
                        .map(|pstate| self.evaluate_with_prefix(view, task, rep, pstate, prefix)),
                );
            }
            return;
        };
        let table = view.table();
        for &rep in reps {
            if let Some(prefix) = prefix_of(rep) {
                let node = view.cluster().core(rep).node;
                batch.push_job(prefix.impulses(), table.template_of(node), |pstate| {
                    table.pmf(task.type_id, node, pstate).impulses()
                });
            }
        }
        let results = batch.work_batch(&mut self.scratch.borrow_mut());
        let mut job = 0;
        for (i, &rep) in reps.iter().enumerate() {
            let prefix = prefix_of(rep);
            store(
                i,
                PState::ALL.map(|pstate| {
                    let ect_rho = match prefix {
                        Some(_) => results.unit(job, pstate),
                        None => self.ect_rho(view, task, rep, pstate, None),
                    };
                    assemble_estimate(view, task, rep, pstate, ect_rho)
                }),
            );
            job += usize::from(prefix.is_some());
        }
    }

    /// Evaluates every (core, P-state) assignment for `task`, in
    /// deterministic core-major / P-state-minor order.
    ///
    /// Each equivalence class is evaluated once on its lowest-index member
    /// and the estimates replicated to the other members — bit-identical to
    /// per-core evaluation, because the estimates depend on the core only
    /// through its node template and queue prefix (DESIGN.md §13).
    pub fn evaluate_all(&self, view: &SystemView<'_>, task: &Task) -> Vec<EvaluatedCandidate> {
        let mut out = Vec::with_capacity(view.cluster().total_cores() * NUM_PSTATES);
        self.evaluate_all_into(view, task, &mut out);
        out
    }

    /// [`CandidateEvaluator::evaluate_all`] into a caller-owned buffer:
    /// `out` is cleared and refilled, retaining its capacity — the
    /// steady-state serve path reuses one buffer across every mapping
    /// event instead of allocating a fresh candidate vector per arrival.
    // lint: alloc-free
    pub fn evaluate_all_into(
        &self,
        view: &SystemView<'_>,
        task: &Task,
        out: &mut Vec<EvaluatedCandidate>,
    ) {
        let num_cores = view.cluster().total_cores();
        out.clear();
        out.reserve(num_cores * NUM_PSTATES);
        // Sweep the persistent partition up to date, then emit per class in
        // core-major order.
        let mut shard = self.shard.borrow_mut();
        let mut entries = self.cache.borrow_mut();
        self.shard_sweep(&mut shard, &mut entries, view);
        let entries = &*entries;
        let shard = &mut *shard;
        shard.stamp += 1;
        shard.ests_stamp.resize(shard.classes.len(), 0);
        shard.ests.resize(shard.classes.len(), ZERO_ESTS);
        let mut reps = self.class_reps.borrow_mut();
        reps.clear();
        for core in 0..num_cores {
            let id = shard.class_of[core] as usize;
            if shard.ests_stamp[id] != shard.stamp {
                // First member seen in ascending order == the class
                // minimum, the representative.
                shard.ests_stamp[id] = shard.stamp;
                reps.push(core);
            }
        }
        let ShardIndex { class_of, ests, .. } = shard;
        self.evaluate_classes(view, task, entries, &reps, |i, class_ests| {
            ests[class_of[reps[i]] as usize] = class_ests;
        });
        for core in 0..num_cores {
            let class_ests = ests[class_of[core] as usize];
            for (idx, pstate) in PState::ALL.into_iter().enumerate() {
                out.push(EvaluatedCandidate {
                    core,
                    pstate,
                    est: class_ests[idx],
                });
            }
        }
        self.note_dedup_event(num_cores, reps.len() as u64);
    }

    /// Books one mapping event that touched `classes` of the `num_cores`
    /// cores (`dedup_skipped` counts `NUM_PSTATES` per replicated core).
    fn note_dedup_event(&self, num_cores: usize, classes: u64) {
        self.dedup_classes.set(self.dedup_classes.get() + classes);
        self.dedup_events.set(self.dedup_events.get() + 1);
        self.dedup_skipped
            .set(self.dedup_skipped.get() + (num_cores as u64 - classes) * NUM_PSTATES as u64);
    }

    /// Brings the shard index exactly up to date with `view` (DESIGN.md
    /// §13): determines which cores' memberships could have drifted since
    /// the last sweep — epoch bumps via the engine's dirty-core mailbox,
    /// validity-window expiries via the expiry heap — detaches exactly
    /// those, then refreshes and re-joins them in ascending core order.
    /// Falls back to a full rebuild whenever incremental correctness can't
    /// be proven (no mailbox, dropped marks, size change, backward time
    /// step); the incremental path is an optimisation of that rebuild.
    ///
    /// Cache-counter accounting is the same either way: every candidate
    /// core is refreshed through [`CandidateEvaluator::refresh_entry`] (one
    /// hit or miss each), and every untouched core is a guaranteed hit,
    /// booked in bulk.
    fn shard_sweep(
        &self,
        shard: &mut ShardIndex,
        entries: &mut Vec<Option<CachedPrefix>>,
        view: &SystemView<'_>,
    ) {
        let n = view.cluster().total_cores();
        let now = view.time();
        if shard.class_of.len() != n || now < shard.last_now {
            shard.needs_rebuild = true;
        }
        let mut candidates = std::mem::take(&mut shard.candidates);
        candidates.clear();
        let mut full = shard.needs_rebuild;
        if !full {
            match view.dirty_cores() {
                // `cursor > head` means this is a different mailbox than
                // the one the cursor was read from: marks may be hidden.
                Some(dirty) if shard.cursor <= dirty.head() => {
                    match dirty.marks_since(shard.cursor) {
                        Some(marks) => {
                            candidates.extend_from_slice(marks);
                            shard.cursor = dirty.head();
                        }
                        // The mailbox overflowed and dropped marks.
                        None => full = true,
                    }
                }
                _ => full = true,
            }
        }
        if full {
            shard.begin_rebuild(n);
            candidates.clear();
            candidates.extend(0..n as u32);
            shard.cursor = view.dirty_cores().map_or(0, DirtyCores::head);
        } else {
            // Entries whose exact-validity window has closed may now be
            // stale even at an unchanged epoch. The heap is lazy: a popped
            // core's entry may have been recomputed since the push, so it
            // is re-checked by `refresh_entry` like any other candidate.
            while let Some(&Reverse(top)) = shard.expiry.peek() {
                if now <= top.valid_until {
                    break;
                }
                shard.expiry.pop();
                candidates.push(top.core);
            }
            candidates.sort_unstable();
            candidates.dedup();
        }
        // Two-phase: detach every candidate first, so phase 2's bit-identity
        // checks only ever compare against representatives that are either
        // untouched (still fresh) or already refreshed this sweep.
        for &core in &candidates {
            shard.leave(core);
        }
        for &core in &candidates {
            let core = core as usize;
            self.refresh_entry(entries, view, core);
            let entries_ref: &[Option<CachedPrefix>] = entries;
            let e = entry_of(entries_ref, core);
            if e.valid_until.is_finite() {
                shard.expiry.push(Reverse(Expiry {
                    valid_until: e.valid_until,
                    core: core as u32,
                }));
            }
            let node = view.cluster().core(core).node;
            let key = ClassKey {
                template: view.cluster().template_of(node) as u32,
                fingerprint: e.stamp.fingerprint(),
                depth: view.core_state(core).depth() as u32,
            };
            let prefix = e.prefix.as_ref();
            shard.join(core as u32, key, |rep| {
                prefix_bit_eq(prefix, entry_of(entries_ref, rep as usize).prefix.as_ref())
            });
        }
        // Every non-candidate core's entry is provably fresh (epoch
        // unmarked, validity window still open): book the hits a full
        // rebuild would count one by one.
        self.hits
            .set(self.hits.get() + (n - candidates.len()) as u64);
        shard.candidates = candidates;
        shard.last_now = now;
        shard.needs_rebuild = false;
    }

    /// Evaluates every candidate assignment for `task` as one
    /// [`ClassCandidate`] per equivalence class — the five per-P-state
    /// estimates computed once on each class's minimum member — without
    /// materializing the `cores × P-states` candidate stream. `out` is
    /// cleared and refilled (capacity retained) in deterministic key order.
    /// Cache and class counters advance exactly as
    /// [`CandidateEvaluator::evaluate_all_into`]'s would.
    // lint: alloc-free
    pub fn evaluate_indexed_into(
        &self,
        view: &SystemView<'_>,
        task: &Task,
        out: &mut Vec<ClassCandidate>,
    ) {
        out.clear();
        let num_cores = view.cluster().total_cores();
        let mut shard = self.shard.borrow_mut();
        let mut entries = self.cache.borrow_mut();
        self.shard_sweep(&mut shard, &mut entries, view);
        let entries = &*entries;
        let ShardIndex {
            by_key,
            classes,
            class_of,
            active,
            ..
        } = &mut *shard;
        out.reserve(*active);
        let mut reps = self.class_reps.borrow_mut();
        reps.clear();
        // BTreeMap key order, then chain order, is deterministic — though
        // selection never depends on it: indexed tie-breaks anchor on
        // `min_core`, reproducing the full scan's first-wins argmin.
        for (&key, &head) in by_key.iter() {
            let mut id = head;
            while id != CLASS_NONE {
                let class = &mut classes[id as usize];
                // Lazy min-member scan, as in `ShardIndex::min_member`
                // (inlined: the map iteration holds `by_key` borrowed).
                let rep = loop {
                    let &Reverse(top) = class
                        .members
                        .peek()
                        .expect("a live class has at least one member");
                    if class_of[top as usize] == id {
                        break top as usize;
                    }
                    class.members.pop();
                };
                reps.push(rep);
                out.push(ClassCandidate {
                    min_core: rep,
                    depth: key.depth as usize,
                    members: class.count as usize,
                    ests: ZERO_ESTS,
                    retained: [true; NUM_PSTATES],
                });
                id = class.next;
            }
        }
        debug_assert_eq!(out.len(), *active);
        self.evaluate_classes(view, task, entries, &reps, |i, ests| out[i].ests = ests);
        self.note_dedup_event(num_cores, out.len() as u64);
    }
}

impl Default for CandidateEvaluator {
    fn default() -> Self {
        Self::new(ReductionPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::candidates_bit_eq;
    use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario};
    use ecds_workload::{TaskId, TaskTypeId};

    fn scenario() -> Scenario {
        Scenario::small_for_tests(17)
    }

    fn mk_task(scenario: &Scenario, arrival: f64) -> Task {
        let type_id = TaskTypeId(0);
        Task {
            id: TaskId(0),
            type_id,
            arrival,
            deadline: arrival + scenario.table().type_average(type_id) + scenario.table().t_avg(),
            quantile: 0.5,
        }
    }

    fn idle_cores(scenario: &Scenario) -> Vec<CoreState> {
        vec![CoreState::new(); scenario.cluster().total_cores()]
    }

    /// `core`'s queue prefix, built on a fresh workspace.
    fn prefix(view: &SystemView<'_>, core: usize) -> Option<Pmf> {
        prefix_with_validity(
            view,
            core,
            ReductionPolicy::default(),
            &mut PmfScratch::new(),
        )
        .0
    }

    /// One candidate's estimate, read off a full `evaluate_all`.
    fn estimate(
        ev: &CandidateEvaluator,
        view: &SystemView<'_>,
        task: &Task,
        core: usize,
        pstate: PState,
    ) -> AssignmentEstimate {
        let all = ev.evaluate_all(view, task);
        let cand = all[core * NUM_PSTATES + pstate.index()];
        assert_eq!((cand.core, cand.pstate), (core, pstate));
        cand.est
    }

    /// Every core evaluated on its own — prefix rebuilt from scratch, no
    /// cache entry, no class — in `evaluate_all`'s order.
    fn per_core(view: &SystemView<'_>, task: &Task) -> Vec<EvaluatedCandidate> {
        let ev = CandidateEvaluator::default();
        let mut out = Vec::new();
        for core in 0..view.cluster().total_cores() {
            let prefix = prefix(view, core);
            for pstate in PState::ALL {
                out.push(EvaluatedCandidate {
                    core,
                    pstate,
                    est: ev.evaluate_with_prefix(view, task, core, pstate, prefix.as_ref()),
                });
            }
        }
        out
    }

    /// The completion-time pmf of `task` on `core` in `pstate`, written
    /// with the by-value pmf operations (Sec. IV-B directly).
    fn by_value_completion(view: &SystemView<'_>, task: &Task, core: usize, pstate: PState) -> Pmf {
        let policy = ReductionPolicy::default();
        let node = view.cluster().core(core).node;
        let table = view.table();
        let state = view.core_state(core);
        let mut acc = state.executing().map(|exec| {
            let mut pmf = table.pmf(exec.type_id, node, exec.pstate).shift(exec.start);
            pmf.truncate_below_or_floor_in_place(view.time());
            pmf
        });
        for queued in state.queued() {
            let exec_pmf = table.pmf(queued.type_id, node, queued.pstate);
            acc = Some(match acc {
                Some(prefix) => prefix.convolve(exec_pmf, policy),
                None => exec_pmf.shift(view.time()),
            });
        }
        let exec_pmf = table.pmf(task.type_id, node, pstate);
        match acc {
            Some(prefix) => prefix.convolve(exec_pmf, policy),
            None => exec_pmf.shift(view.time()),
        }
    }

    #[test]
    fn idle_core_completion_is_shifted_exec_pmf() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 100.0, 1, 60);
        let task = mk_task(&s, 100.0);
        let ev = CandidateEvaluator::default();
        let est = estimate(&ev, &view, &task, 0, PState::P0);
        let exec = s
            .table()
            .pmf(task.type_id, s.cluster().core(0).node, PState::P0);
        assert!((est.ect - (exec.expectation() + 100.0)).abs() < 1e-9);
        let shifted = exec.shift(100.0);
        assert_eq!(est.ect.to_bits(), shifted.expectation().to_bits());
        assert_eq!(est.rho.to_bits(), shifted.prob_le(task.deadline).to_bits());
    }

    #[test]
    fn pending_pmf_none_for_idle_core() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let (pmf, valid_until) =
            prefix_with_validity(&view, 0, ReductionPolicy::default(), &mut PmfScratch::new());
        assert!(pmf.is_none());
        assert_eq!(valid_until, f64::INFINITY, "an idle prefix never expires");
    }

    #[test]
    fn busy_core_prefix_raises_ect() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(9),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 0.0,
            deadline: 5000.0,
        });
        let view = SystemView::new(s.cluster(), s.table(), &cores, 10.0, 1, 60);
        let task = mk_task(&s, 10.0);
        let ev = CandidateEvaluator::default();
        let busy = estimate(&ev, &view, &task, 0, PState::P0);
        let idle = estimate(&ev, &view, &task, 1, PState::P0);
        // Core 1 may be on a different node, so compare like-for-like: the
        // candidate on the busy core must complete later than its own
        // execution time would allow from t_l.
        let own_eet = s
            .table()
            .eet(task.type_id, s.cluster().core(0).node, PState::P0);
        assert!(busy.ect > 10.0 + own_eet - 1e-9);
        assert!(busy.rho <= 1.0 && idle.rho <= 1.0);
    }

    #[test]
    fn queued_tasks_stack_in_the_prefix() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(8),
            type_id: TaskTypeId(1),
            pstate: PState::P2,
            start: 0.0,
            deadline: 5000.0,
        });
        let one_depth = {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
            prefix(&view, 0).unwrap().expectation()
        };
        cores[0].enqueue(QueuedTask {
            task: TaskId(9),
            type_id: TaskTypeId(2),
            pstate: PState::P1,
            deadline: 5000.0,
        });
        let two_depth = {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
            prefix(&view, 0).unwrap().expectation()
        };
        let queued_eet = s
            .table()
            .eet(TaskTypeId(2), s.cluster().core(0).node, PState::P1);
        assert!((two_depth - one_depth - queued_eet).abs() < 2.0,
            "prefix should grow by the queued task's EET (one {one_depth}, two {two_depth}, eet {queued_eet})");
    }

    #[test]
    fn truncation_moves_prediction_forward() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(8),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 0.0,
            deadline: 5000.0,
        });
        let eet = s
            .table()
            .eet(TaskTypeId(1), s.cluster().core(0).node, PState::P0);
        // Observe long past the mean: most impulses are truncated and the
        // predicted completion is pushed to at least `now`.
        let late = 3.0 * eet;
        let view = SystemView::new(s.cluster(), s.table(), &cores, late, 1, 60);
        let pmf = prefix(&view, 0).unwrap();
        assert!(pmf.min_value() >= late - 1e-9);
    }

    #[test]
    fn evaluate_all_is_core_major_deterministic() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let all = ev.evaluate_all(&view, &task);
        assert_eq!(all.len(), s.cluster().total_cores() * 5);
        for (idx, c) in all.iter().enumerate() {
            assert_eq!(c.core, idx / 5);
            assert_eq!(c.pstate, PState::from_index(idx % 5));
        }
        let again = ev.evaluate_all(&view, &task);
        assert!(candidates_bit_eq(&all, &again));
    }

    #[test]
    fn repeated_evaluate_all_hits_the_cache() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        let first = ev.evaluate_all(&view, &task);
        assert_eq!(ev.prefix_cache_stats(), (0, n));
        let second = ev.evaluate_all(&view, &task);
        assert_eq!(ev.prefix_cache_stats(), (n, n));
        assert!(candidates_bit_eq(&first, &second));
    }

    #[test]
    fn epoch_bump_invalidates_the_cached_prefix() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        let task = mk_task(&s, 5.0);
        let ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
            let _ = ev.evaluate_all(&view, &task);
        }
        cores[0].start(ExecutingTask {
            task: TaskId(3),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 5.0,
            deadline: 5000.0,
        });
        let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
        let cached = ev.evaluate_all(&view, &task);
        assert_eq!(
            ev.prefix_cache_stats(),
            (n - 1, n + 1),
            "the mutated core must miss, every other core hit"
        );
        assert!(candidates_bit_eq(&cached, &per_core(&view, &task)));
    }

    #[test]
    fn time_advance_within_window_hits_and_stays_exact() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(3),
            type_id: TaskTypeId(1),
            pstate: PState::P2,
            start: 0.0,
            deadline: 5000.0,
        });
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        let at_t1 = ev.evaluate_all(&view, &task);
        // The executing pmf's support starts well above t=1, so a small
        // advance keeps the truncation unchanged: every lookup must hit,
        // core 0's completion is unchanged, and every estimate is
        // bit-identical to a per-core recompute.
        let later = SystemView::new(s.cluster(), s.table(), &cores, 2.0, 2, 60);
        let at_t2 = ev.evaluate_all(&later, &task);
        assert_eq!(ev.prefix_cache_stats(), (n, n));
        assert!(candidates_bit_eq(
            &at_t1[..NUM_PSTATES],
            &at_t2[..NUM_PSTATES]
        ));
        assert!(candidates_bit_eq(&at_t2, &per_core(&later, &task)));
    }

    #[test]
    fn time_advance_past_first_impulse_misses_and_recomputes() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(3),
            type_id: TaskTypeId(1),
            pstate: PState::P4,
            start: 0.0,
            deadline: 50_000.0,
        });
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        let node = s.cluster().core(0).node;
        let raw = s.table().pmf(TaskTypeId(1), node, PState::P4);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        let _ = ev.evaluate_all(&view, &task);
        // Jump past the support's start: some impulses fall into the past,
        // the truncation changes, and the cache must recompute core 0.
        let late_t = raw.min_value() + raw.expectation() * 0.5;
        let late = SystemView::new(s.cluster(), s.table(), &cores, late_t, 2, 60);
        let recomputed = ev.evaluate_all(&late, &task);
        assert_eq!(ev.prefix_cache_stats(), (n - 1, n + 1));
        assert!(candidates_bit_eq(&recomputed, &per_core(&late, &task)));
    }

    #[test]
    fn reset_cache_clears_entries_and_counters() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &task);
        let _ = ev.evaluate_all(&view, &task);
        ev.reset_cache();
        assert_eq!(ev.prefix_cache_stats(), (0, 0));
        let _ = ev.evaluate_all(&view, &task);
        let n = s.cluster().total_cores() as u64;
        assert_eq!(ev.prefix_cache_stats(), (0, n), "entries were dropped");
    }

    #[test]
    fn evaluator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CandidateEvaluator>();
    }

    fn busy_cores(s: &Scenario) -> Vec<CoreState> {
        let mut cores = idle_cores(s);
        for (i, core) in cores.iter_mut().enumerate() {
            core.start(ExecutingTask {
                task: TaskId(i),
                type_id: TaskTypeId(i % 3),
                pstate: PState::P1,
                start: 0.0,
                deadline: 5000.0,
            });
            core.enqueue(QueuedTask {
                task: TaskId(100 + i),
                type_id: TaskTypeId((i + 1) % 3),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
        cores
    }

    #[test]
    fn fused_evaluate_all_is_bit_identical_to_legacy() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        let all = CandidateEvaluator::default().evaluate_all(&view, &task);
        for cand in &all {
            let completion = by_value_completion(&view, &task, cand.core, cand.pstate);
            assert_eq!(cand.est.ect.to_bits(), completion.expectation().to_bits());
            assert_eq!(
                cand.est.rho.to_bits(),
                completion.prob_le(task.deadline).to_bits()
            );
        }
    }

    #[test]
    fn fused_completion_pmf_is_bit_identical_to_legacy() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        let node = s.cluster().core(0).node;
        let prefix = prefix(&view, 0).expect("core 0 is busy");
        let mut scratch = PmfScratch::new();
        for pstate in PState::ALL {
            let exec = s.table().pmf(task.type_id, node, pstate);
            let fused = scratch
                .convolve_reduced(&prefix, exec, ReductionPolicy::default())
                .to_pmf();
            assert_eq!(fused, by_value_completion(&view, &task, 0, pstate));
        }
    }

    #[test]
    fn fused_kernel_calls_count_and_reset() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        let ev = CandidateEvaluator::default();
        assert_eq!(ev.fused_kernel_calls(), 0);
        let _ = ev.evaluate_all(&view, &task);
        // One prefix convolution per busy core (the queued task) plus one
        // candidate convolution per class and P-state.
        let n = s.cluster().total_cores() as u64;
        let (classes, _) = ev.dedup_stats();
        let per_decision = classes * PState::ALL.len() as u64;
        assert_eq!(ev.fused_kernel_calls(), n + per_decision);
        // Warm: every prefix is a cache hit, only the candidates convolve.
        let _ = ev.evaluate_all(&view, &task);
        assert_eq!(ev.fused_kernel_calls(), n + 2 * per_decision);
        ev.reset_cache();
        assert_eq!(ev.fused_kernel_calls(), 0);
    }

    #[test]
    fn dedup_cuts_candidate_kernel_calls_to_one_set_per_class() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        let ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &task);
        let n = s.cluster().total_cores() as u64;
        let (classes, events) = ev.dedup_stats();
        assert_eq!(events, 1);
        assert!(classes <= n, "at most one class per core");
        // One prefix convolution per core (every entry is refreshed), but
        // candidate convolutions only for class representatives.
        assert_eq!(
            ev.fused_kernel_calls(),
            n + classes * PState::ALL.len() as u64
        );
        assert_eq!(
            ev.dedup_skipped_evaluations(),
            (n - classes) * PState::ALL.len() as u64
        );
    }

    #[test]
    fn dedup_collapses_idle_cores_per_node() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let all = ev.evaluate_all(&view, &task);
        assert_eq!(all.len(), s.cluster().total_cores() * NUM_PSTATES);
        // Idle cores of one node template are interchangeable; the test
        // cluster gives every node its own template, so exactly one class
        // per node.
        let nodes = s.cluster().num_nodes() as u64;
        assert_eq!(s.cluster().num_templates() as u64, nodes);
        assert_eq!(ev.dedup_stats(), (nodes, 1));
        let n = s.cluster().total_cores() as u64;
        assert_eq!(
            ev.dedup_skipped_evaluations(),
            (n - nodes) * NUM_PSTATES as u64
        );
    }

    #[test]
    fn dedup_is_bit_identical_to_per_core_evaluation() {
        let s = scenario();
        for cores in [idle_cores(&s), busy_cores(&s)] {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
            let task = mk_task(&s, 50.0);
            assert!(candidates_bit_eq(
                &CandidateEvaluator::default().evaluate_all(&view, &task),
                &per_core(&view, &task)
            ));
        }
    }

    #[test]
    fn reset_cache_zeroes_dedup_counters() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &task);
        ev.reset_cache();
        assert_eq!(ev.dedup_stats(), (0, 0));
        assert_eq!(ev.dedup_skipped_evaluations(), 0);
    }

    /// A fanned-out decision's kernel calls — the helper's share included —
    /// equal a serial evaluation's, and `reset_cache` leaves no helper
    /// share behind: the next decision counts from zero.
    #[test]
    fn fanned_out_kernel_calls_fold_and_reset_with_the_cache() {
        use ecds_cluster::ClusterGenConfig;
        use ecds_sim::DirtyCores;
        use ecds_workload::WorkloadConfig;
        let s = Scenario::with_configs(
            17,
            ClusterGenConfig::scaled(16, 4),
            WorkloadConfig::small_for_tests(),
        );
        let mut cores = idle_cores(&s);
        for (i, core) in cores.iter_mut().enumerate() {
            core.start(ExecutingTask {
                task: TaskId(i),
                type_id: TaskTypeId(i % 4),
                pstate: PState::P1,
                start: i as f64,
                deadline: 5000.0,
            });
        }
        let dirty = DirtyCores::default();
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60).with_dirty(&dirty);
        let task = mk_task(&s, 50.0);
        let reference = per_core(&view, &task);

        let ev = CandidateEvaluator::default();
        let mut classes = Vec::new();
        for _ in 0..2 {
            ev.reset_cache();
            assert_eq!(ev.fused_kernel_calls(), 0);
            ev.evaluate_indexed_into(&view, &task, &mut classes);
            // No queued tasks: the prefixes need no convolution, so the
            // serial count is one kernel call per class and P-state.
            assert_eq!(
                ev.fused_kernel_calls(),
                (classes.len() * NUM_PSTATES) as u64
            );
        }
        let busy = classes.iter().filter(|c| c.depth > 0).count();
        assert_eq!(busy, classes.len(), "every core is busy");
        assert!(
            busy >= crate::FAN_OUT_MIN_BUSY_CLASSES,
            "{busy} busy classes"
        );
        for class in &classes {
            for (pi, est) in class.ests.iter().enumerate() {
                assert!(est.bit_eq(&reference[class.min_core * NUM_PSTATES + pi].est));
            }
        }
    }

    #[test]
    fn prefix_fingerprint_matches_loads_not_cores() {
        let s = scenario();
        let cluster = s.cluster();
        // Two cores on the same node, loaded identically, plus a third
        // loaded differently.
        let twin = (1..cluster.total_cores())
            .find(|&c| cluster.core(c).node == cluster.core(0).node)
            .expect("test cluster has multi-core nodes");
        let mut cores = idle_cores(&s);
        for &c in &[0, twin] {
            cores[c].start(ExecutingTask {
                task: TaskId(c),
                type_id: TaskTypeId(1),
                pstate: PState::P1,
                start: 0.0,
                deadline: 5000.0,
            });
        }
        let view = SystemView::new(cluster, s.table(), &cores, 10.0, 1, 60);
        let ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &mk_task(&s, 10.0));
        let entries = ev.cache.borrow();
        let fingerprint = |core| entry_of(&entries, core).stamp.fingerprint();
        let f0 = fingerprint(0);
        assert!(f0.is_some(), "busy core has a prefix to fingerprint");
        assert_eq!(f0, fingerprint(twin));
        assert_eq!(f0, prefix(&view, 0).as_ref().map(Pmf::fingerprint));
        // An unloaded core has no prefix, hence no fingerprint.
        let idle = (0..cluster.total_cores())
            .find(|&c| c != 0 && c != twin)
            .expect("more than two cores");
        assert_eq!(fingerprint(idle), None);
    }

    /// Asserts every observable counter of the two evaluators agrees —
    /// the incremental sweep must be *arithmetically* exact against a full
    /// rebuild, not just bit-identical in its candidate stream, because the
    /// committed artifacts embed these counters.
    fn assert_counters_eq(a: &CandidateEvaluator, b: &CandidateEvaluator) {
        assert_eq!(a.prefix_cache_stats(), b.prefix_cache_stats());
        assert_eq!(a.dedup_stats(), b.dedup_stats());
        assert_eq!(a.dedup_skipped_evaluations(), b.dedup_skipped_evaluations());
        assert_eq!(a.fused_kernel_calls(), b.fused_kernel_calls());
    }

    /// `shard` sweeps incrementally through a mailbox view; `rebuilt` sees
    /// the same cores through a bare view, so it rebuilds every call.
    #[test]
    fn shard_indexed_evaluate_all_stays_exact_across_mutations() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        let mut dirty = ecds_sim::DirtyCores::default();
        let shard = CandidateEvaluator::default();
        let rebuilt = CandidateEvaluator::default();
        let n = s.cluster().total_cores();
        let mut now = 0.0;
        for step in 0..8 {
            let task = mk_task(&s, now);
            {
                let bare = SystemView::new(s.cluster(), s.table(), &cores, now, 1 + step, 60);
                let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1 + step, 60)
                    .with_dirty(&dirty);
                let got = shard.evaluate_all(&view, &task);
                assert!(candidates_bit_eq(&got, &rebuilt.evaluate_all(&bare, &task)));
                assert!(candidates_bit_eq(&got, &per_core(&bare, &task)));
                assert_counters_eq(&shard, &rebuilt);
            }
            // Mutate a handful of cores — epoch bumps the engine would
            // report through the mailbox — and advance time unevenly so
            // some steps cross validity windows.
            for k in 0..=(step % 3) {
                let c = (step * 5 + k * 7) % n;
                if cores[c].executing().is_some() {
                    cores[c].enqueue(QueuedTask {
                        task: TaskId(1000 + step * 10 + k),
                        type_id: TaskTypeId((step + k) % 3),
                        pstate: PState::P2,
                        deadline: now + 6000.0,
                    });
                } else {
                    cores[c].start(ExecutingTask {
                        task: TaskId(500 + step * 10 + k),
                        type_id: TaskTypeId(step % 3),
                        pstate: PState::P1,
                        start: now,
                        deadline: now + 5000.0,
                    });
                }
                dirty.mark(c);
            }
            now += 0.5 + 150.0 * (step % 4) as f64;
        }
    }

    #[test]
    fn shard_expiry_recomputes_stale_windows_without_marks() {
        let s = scenario();
        let cores = busy_cores(&s);
        let dirty = ecds_sim::DirtyCores::default();
        let shard = CandidateEvaluator::default();
        let rebuilt = CandidateEvaluator::default();
        let task = mk_task(&s, 1.0);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60).with_dirty(&dirty);
        let bare = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        assert!(candidates_bit_eq(
            &shard.evaluate_all(&view, &task),
            &rebuilt.evaluate_all(&bare, &task)
        ));
        // Jump far past every executing pmf's first impulse with NO dirty
        // marks: every prefix's truncation changes, so both evaluators
        // must recompute every busy core — the shard finds them through
        // its expiry heap alone.
        let node = s.cluster().core(0).node;
        let raw = s.table().pmf(TaskTypeId(0), node, PState::P1);
        let late_t = raw.min_value() + raw.expectation() * 3.0;
        let late_task = mk_task(&s, late_t);
        let late =
            SystemView::new(s.cluster(), s.table(), &cores, late_t, 2, 60).with_dirty(&dirty);
        let late_bare = SystemView::new(s.cluster(), s.table(), &cores, late_t, 2, 60);
        let got = shard.evaluate_all(&late, &late_task);
        assert!(candidates_bit_eq(
            &got,
            &rebuilt.evaluate_all(&late_bare, &late_task)
        ));
        assert!(candidates_bit_eq(&got, &per_core(&late_bare, &late_task)));
        assert_counters_eq(&shard, &rebuilt);
        let (_, misses) = shard.prefix_cache_stats();
        let n = s.cluster().total_cores() as u64;
        assert!(misses > n, "the second event must have recomputed");
    }

    #[test]
    fn shard_rebuilds_after_reset() {
        let s = scenario();
        let cores = busy_cores(&s);
        let dirty = ecds_sim::DirtyCores::default();
        let shard = CandidateEvaluator::default();
        let task = mk_task(&s, 1.0);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60).with_dirty(&dirty);
        let before = shard.evaluate_all(&view, &task);
        shard.reset_cache();
        let fresh = CandidateEvaluator::default();
        assert!(candidates_bit_eq(
            &shard.evaluate_all(&view, &task),
            &fresh.evaluate_all(&view, &task)
        ));
        assert_counters_eq(&shard, &fresh);
        assert!(candidates_bit_eq(
            &before,
            &shard.evaluate_all(&view, &task)
        ));
    }

    #[test]
    fn indexed_classes_cover_every_core_with_identical_estimates() {
        let s = scenario();
        let cores = busy_cores(&s);
        let dirty = ecds_sim::DirtyCores::default();
        let ev = CandidateEvaluator::default();
        let task = mk_task(&s, 1.0);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60).with_dirty(&dirty);
        let mut classes = Vec::new();
        ev.evaluate_indexed_into(&view, &task, &mut classes);
        let n = s.cluster().total_cores();
        assert_eq!(classes.iter().map(|c| c.members).sum::<usize>(), n);
        // Each class's estimates are bit-identical to the representative's
        // candidates in the per-core stream.
        let all = per_core(&view, &task);
        for class in &classes {
            assert!(class.any_retained());
            for (pi, est) in class.ests.iter().enumerate() {
                let cand = &all[class.min_core * NUM_PSTATES + pi];
                assert_eq!(cand.core, class.min_core);
                assert!(est.bit_eq(&cand.est));
            }
        }
    }

    /// A view without a mailbox still takes the indexed path: each call
    /// rebuilds the partition, with the same classes, estimates and
    /// counters as an incremental sweep over a mailbox view.
    #[test]
    fn indexed_path_without_mailbox_rebuilds_every_call() {
        let s = scenario();
        let cores = busy_cores(&s);
        let task = mk_task(&s, 1.0);
        let dirty = ecds_sim::DirtyCores::default();
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60).with_dirty(&dirty);
        let bare = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        let (with, without) = (CandidateEvaluator::default(), CandidateEvaluator::default());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            with.evaluate_indexed_into(&view, &task, &mut a);
            without.evaluate_indexed_into(&bare, &task, &mut b);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.min_core, x.depth, x.members),
                    (y.min_core, y.depth, y.members)
                );
                assert!(x.ests.iter().zip(&y.ests).all(|(p, q)| p.bit_eq(q)));
            }
            assert_counters_eq(&with, &without);
        }
    }

    #[test]
    fn deeper_pstates_cost_more_time_on_idle_core() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let p0 = estimate(&ev, &view, &task, 0, PState::P0);
        let p4 = estimate(&ev, &view, &task, 0, PState::P4);
        assert!(p4.eet > p0.eet);
        assert!(p4.ect > p0.ect);
        assert!(p4.rho <= p0.rho + 1e-9);
    }

    #[test]
    fn eec_combines_power_and_efficiency() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let ev = CandidateEvaluator::default();
        let est = estimate(&ev, &view, &task, 0, PState::P1);
        let node = s.cluster().node(s.cluster().core(0).node);
        let expected = est.eet * node.power.watts(PState::P1) / node.efficiency;
        assert!((est.eec - expected).abs() < 1e-9);
    }

    #[test]
    fn rho_is_high_with_generous_deadline_on_idle_core() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0); // deadline = type avg + t_avg: generous
        let ev = CandidateEvaluator::default();
        let est = estimate(&ev, &view, &task, 0, PState::P0);
        assert!(est.rho > 0.9, "rho {}", est.rho);
    }

    #[test]
    fn rho_is_zero_for_impossible_deadline() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1000.0, 1, 60);
        let mut task = mk_task(&s, 1000.0);
        task.deadline = 1000.5; // far below any execution time
        let ev = CandidateEvaluator::default();
        let est = estimate(&ev, &view, &task, 0, PState::P0);
        assert_eq!(est.rho, 0.0);
    }
}
