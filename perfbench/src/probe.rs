//! Timing decorators for the four public extension traits.
//!
//! Every decorator forwards *every* trait method to the wrapped value, the
//! defaulted ones included: a wrapper that kept `supports_indexed() ==
//! false` would silently move SQ/MECT/LL onto the full-scan path and
//! measure a different program. The benchmark asserts that a traced run's
//! outcomes and `MapperStats` equal the untraced run's.
//!
//! Heuristics and filters must be `Send`, so their counters are atomics
//! behind an `Arc` (statistics only, hence `Relaxed`); the mapper and
//! source probes live on the harness thread and use `Cell`s.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use ecds_cluster::PState;
use ecds_core::factory::build_heuristic;
use ecds_core::{
    build_scheduler, ClassCandidate, EvaluatedCandidate, Filter, FilterCtx, FilterVariant,
    Heuristic, HeuristicKind, Scheduler,
};
use ecds_persist::{DecodeError, Decoder, Encoder};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{Assignment, Mapper, MapperStats, Scenario, SystemView};
use ecds_workload::{ArrivalSource, Task};

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls into one layer boundary and the host time spent inside them.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn add(&self, start: Instant) {
        self.add_ns(ns_since(start));
    }

    fn add_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        (self.calls.load(Relaxed), self.ns.load(Relaxed))
    }
}

/// One filter slot: its span plus the (core, P-state) pairs it saw and kept.
#[derive(Debug, Default)]
pub struct FilterCounters {
    span: Span,
    considered: AtomicU64,
    kept: AtomicU64,
}

/// Counters shared by the heuristic and filter decorators of one scheduler.
#[derive(Debug, Default)]
pub struct LayerCounters {
    scan: Span,
    indexed: Span,
    /// Indexed by [`filter_slot`]: `en`, then `rob`.
    filters: [FilterCounters; 2],
}

/// Plain snapshot of every counter the probes keep, so a measured window is
/// `end - start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub decisions: u64,
    pub discarded: u64,
    pub assign_ns: u64,
    pub resident_samples: u64,
    pub resident_sum: u64,
    pub resident_peak: u64,
    pub heuristic_scan_calls: u64,
    pub heuristic_indexed_calls: u64,
    pub heuristic_ns: u64,
    pub filter_calls: [u64; 2],
    pub filter_ns: [u64; 2],
    pub filter_considered: [u64; 2],
    pub filter_kept: [u64; 2],
    pub pulls: u64,
    pub pull_ns: u64,
}

impl Totals {
    /// Counter growth since `start` (peaks are taken as-is).
    pub fn since(&self, start: &Totals) -> Totals {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let d2 = |a: [u64; 2], b: [u64; 2]| [d(a[0], b[0]), d(a[1], b[1])];
        Totals {
            decisions: d(self.decisions, start.decisions),
            discarded: d(self.discarded, start.discarded),
            assign_ns: d(self.assign_ns, start.assign_ns),
            resident_samples: d(self.resident_samples, start.resident_samples),
            resident_sum: d(self.resident_sum, start.resident_sum),
            resident_peak: self.resident_peak,
            heuristic_scan_calls: d(self.heuristic_scan_calls, start.heuristic_scan_calls),
            heuristic_indexed_calls: d(self.heuristic_indexed_calls, start.heuristic_indexed_calls),
            heuristic_ns: d(self.heuristic_ns, start.heuristic_ns),
            filter_calls: d2(self.filter_calls, start.filter_calls),
            filter_ns: d2(self.filter_ns, start.filter_ns),
            filter_considered: d2(self.filter_considered, start.filter_considered),
            filter_kept: d2(self.filter_kept, start.filter_kept),
            pulls: d(self.pulls, start.pulls),
            pull_ns: d(self.pull_ns, start.pull_ns),
        }
    }

    /// Host time inside filters, all slots.
    pub fn filters_ns(&self) -> u64 {
        self.filter_ns.iter().sum()
    }
}

/// Slot of a filter by its figure name.
fn filter_slot(name: &str) -> usize {
    match name {
        "en" => 0,
        "rob" => 1,
        other => panic!("no counter slot for filter {other:?}"),
    }
}

/// The per-run recorder every decorator reports into.
///
/// Latencies are kept only while `recording` is on (after warm-up); the
/// totals run from the start and are windowed by snapshot subtraction.
#[derive(Debug, Default)]
pub struct Recorder {
    recording: Cell<bool>,
    latencies_ns: RefCell<Vec<u64>>,
    decisions: Cell<u64>,
    discarded: Cell<u64>,
    assign_ns: Cell<u64>,
    resident_samples: Cell<u64>,
    resident_sum: Cell<u64>,
    resident_peak: Cell<u64>,
    pulls: Cell<u64>,
    pull_ns: Cell<u64>,
    /// Present in traced runs only.
    layers: Option<Arc<LayerCounters>>,
    /// Traced schedulers whose decorators disagree with the wrapped layers
    /// on `supports_indexed`, i.e. would take another evaluation path.
    path_mismatches: Cell<u64>,
}

impl Recorder {
    /// An untraced recorder: decision latency and counts only.
    pub fn untraced(capacity: usize) -> Self {
        Self {
            latencies_ns: RefCell::new(Vec::with_capacity(capacity)),
            ..Self::default()
        }
    }

    /// A traced recorder whose layer counters the heuristic and filter
    /// decorators share.
    pub fn traced(capacity: usize) -> Self {
        Self {
            layers: Some(Arc::default()),
            ..Self::untraced(capacity)
        }
    }

    pub fn is_traced(&self) -> bool {
        self.layers.is_some()
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    pub fn path_mismatches(&self) -> u64 {
        self.path_mismatches.get()
    }

    pub fn decisions(&self) -> u64 {
        self.decisions.get()
    }

    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.latencies_ns.borrow_mut())
    }

    /// Records the simulator's resident-task count after one event; the
    /// serve loop reports it (the paper-grid mapper probe reports the
    /// queued tasks it sees instead).
    pub fn note_resident(&self, resident: u64) {
        self.resident_samples.set(self.resident_samples.get() + 1);
        self.resident_sum.set(self.resident_sum.get() + resident);
        if self.recording.get() {
            self.resident_peak
                .set(self.resident_peak.get().max(resident));
        }
    }

    pub fn totals(&self) -> Totals {
        let mut t = Totals {
            decisions: self.decisions.get(),
            discarded: self.discarded.get(),
            assign_ns: self.assign_ns.get(),
            resident_samples: self.resident_samples.get(),
            resident_sum: self.resident_sum.get(),
            resident_peak: self.resident_peak.get(),
            pulls: self.pulls.get(),
            pull_ns: self.pull_ns.get(),
            ..Totals::default()
        };
        if let Some(layers) = &self.layers {
            let (scan_calls, scan_ns) = layers.scan.totals();
            let (idx_calls, idx_ns) = layers.indexed.totals();
            t.heuristic_scan_calls = scan_calls;
            t.heuristic_indexed_calls = idx_calls;
            t.heuristic_ns = scan_ns + idx_ns;
            for (slot, f) in layers.filters.iter().enumerate() {
                let (calls, ns) = f.span.totals();
                t.filter_calls[slot] = calls;
                t.filter_ns[slot] = ns;
                t.filter_considered[slot] = f.considered.load(Relaxed);
                t.filter_kept[slot] = f.kept.load(Relaxed);
            }
        }
        t
    }

    /// The `(kind, variant)` scheduler for `trial`. Untraced runs use the
    /// library's `build_scheduler`; traced runs assemble the same scheduler
    /// through `Scheduler::new` with the heuristic and every filter
    /// wrapped, so the traced ≡ untraced check also pins that assembly.
    pub fn scheduler(
        &self,
        kind: HeuristicKind,
        variant: FilterVariant,
        scenario: &Scenario,
        trial: u64,
    ) -> Box<Scheduler> {
        let Some(layers) = &self.layers else {
            return build_scheduler(kind, variant, scenario, trial);
        };
        let inner = build_heuristic(kind, scenario, trial);
        let bare = inner.supports_indexed();
        let heuristic = Box::new(HeuristicProbe {
            inner,
            layers: Arc::clone(layers),
        });
        let mut same_path = heuristic.supports_indexed() == bare;
        let mut filters: Vec<Box<dyn Filter>> = Vec::new();
        for inner in variant.build() {
            let bare = inner.supports_indexed();
            let slot = filter_slot(inner.name());
            let probe = FilterProbe {
                inner,
                layers: Arc::clone(layers),
                slot,
            };
            same_path &= probe.supports_indexed() == bare;
            filters.push(Box::new(probe));
        }
        if !same_path {
            self.path_mismatches.set(self.path_mismatches.get() + 1);
        }
        Box::new(Scheduler::new(
            heuristic,
            filters,
            scenario.energy_budget().unwrap_or(f64::INFINITY),
            ReductionPolicy::default(),
        ))
    }
}

/// Times `Mapper::assign` with two clock reads: the unit a user waits on.
pub struct MapperProbe<'a> {
    inner: &'a mut dyn Mapper,
    rec: &'a Recorder,
    /// Paper-grid only: report the view's queued tasks as the resident
    /// count (the classic engine exposes no store).
    resident_from_view: bool,
}

impl<'a> MapperProbe<'a> {
    pub fn new(inner: &'a mut dyn Mapper, rec: &'a Recorder, resident_from_view: bool) -> Self {
        Self {
            inner,
            rec,
            resident_from_view,
        }
    }
}

impl Mapper for MapperProbe<'_> {
    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        let start = Instant::now();
        let out = self.inner.assign(task, view);
        let ns = ns_since(start);
        let rec = self.rec;
        rec.decisions.set(rec.decisions.get() + 1);
        rec.assign_ns.set(rec.assign_ns.get() + ns);
        if out.is_none() {
            rec.discarded.set(rec.discarded.get() + 1);
        }
        if rec.recording.get() {
            rec.latencies_ns.borrow_mut().push(ns);
        }
        if self.resident_from_view && rec.is_traced() {
            let queued = view.avg_queue_depth() * view.core_states().len() as f64;
            rec.note_resident(queued.round() as u64);
        }
        out
    }

    fn on_trial_start(&mut self) {
        self.inner.on_trial_start();
    }

    fn stats(&self) -> MapperStats {
        self.inner.stats()
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.inner.restore_state(dec)
    }
}

/// Times `ArrivalSource::next_task` (traced serve runs only).
pub struct SourceProbe<'a> {
    inner: &'a mut dyn ArrivalSource,
    rec: &'a Recorder,
}

impl<'a> SourceProbe<'a> {
    pub fn new(inner: &'a mut dyn ArrivalSource, rec: &'a Recorder) -> Self {
        Self { inner, rec }
    }
}

impl ArrivalSource for SourceProbe<'_> {
    fn next_task(&mut self) -> Option<Task> {
        let start = Instant::now();
        let task = self.inner.next_task();
        let rec = self.rec;
        rec.pull_ns.set(rec.pull_ns.get() + ns_since(start));
        rec.pulls.set(rec.pulls.get() + 1);
        task
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.inner.restore_state(dec)
    }
}

struct HeuristicProbe {
    inner: Box<dyn Heuristic>,
    layers: Arc<LayerCounters>,
}

impl Heuristic for HeuristicProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        candidates: &[EvaluatedCandidate],
    ) -> Option<usize> {
        let start = Instant::now();
        let out = self.inner.choose(task, view, candidates);
        self.layers.scan.add(start);
        out
    }

    fn supports_indexed(&self) -> bool {
        self.inner.supports_indexed()
    }

    fn choose_indexed(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)> {
        let start = Instant::now();
        let out = self.inner.choose_indexed(task, view, classes);
        self.layers.indexed.add(start);
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.inner.restore_state(dec)
    }
}

struct FilterProbe {
    inner: Box<dyn Filter>,
    layers: Arc<LayerCounters>,
    slot: usize,
}

/// Feasible (core, P-state) pairs of an indexed candidate list.
fn indexed_pairs(classes: &[ClassCandidate]) -> u64 {
    classes
        .iter()
        .map(|c| (c.members * c.retained.iter().filter(|&&r| r).count()) as u64)
        .sum()
}

impl FilterProbe {
    fn count(&self, ns: u64, before: u64, after: u64) {
        let f = &self.layers.filters[self.slot];
        f.span.add_ns(ns);
        f.considered.fetch_add(before, Relaxed);
        f.kept.fetch_add(after, Relaxed);
    }
}

impl Filter for FilterProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn retain(
        &self,
        task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        candidates: &mut Vec<EvaluatedCandidate>,
    ) {
        let before = candidates.len() as u64;
        let start = Instant::now();
        self.inner.retain(task, view, ctx, candidates);
        let ns = ns_since(start);
        self.count(ns, before, candidates.len() as u64);
    }

    fn supports_indexed(&self) -> bool {
        self.inner.supports_indexed()
    }

    fn retain_indexed(
        &self,
        task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        classes: &mut Vec<ClassCandidate>,
    ) {
        let before = indexed_pairs(classes);
        let start = Instant::now();
        self.inner.retain_indexed(task, view, ctx, classes);
        let ns = ns_since(start);
        self.count(ns, before, indexed_pairs(classes));
    }
}
