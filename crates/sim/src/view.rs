//! The mapper interface: what a resource-allocation heuristic sees and
//! returns at each immediate-mode mapping event.

use ecds_cluster::{Cluster, PState};
use ecds_persist::{DecodeError, Decoder, Encoder};
use ecds_pmf::Time;
use ecds_workload::{ExecTable, Task};

use crate::dirty::DirtyCores;
use crate::state::CoreState;
use crate::telemetry::MapperStats;

/// The decision a mapper returns: run the task on the core with flat index
/// `core`, in `pstate`. An *assignment* in the paper's sense is the full
/// (node, multicore processor, core, P-state) tuple; the flat index encodes
/// the first three (see [`Cluster::core`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Flat core index into [`Cluster::cores`].
    pub core: usize,
    /// The DVFS P-state the task will execute in.
    pub pstate: PState,
}

/// A resource-allocation heuristic operating in immediate mode.
///
/// The simulator calls [`Mapper::assign`] once per task, at its arrival
/// instant. Returning `None` discards the task (the paper's filters may
/// eliminate every feasible assignment). The mapper may keep internal state
/// (e.g. the energy filter's remaining-budget ledger), hence `&mut self`.
pub trait Mapper {
    /// Chooses an assignment for `task` given the system state, or `None`
    /// to discard it.
    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment>;

    /// Hook invoked once before a trial starts, letting stateful mappers
    /// reset ledgers. Default: no-op.
    fn on_trial_start(&mut self) {}

    /// Structured instrumentation counters accumulated since the last
    /// [`Mapper::on_trial_start`]. The engine copies this into
    /// [`crate::Telemetry`] after each trial. Default: all-zero
    /// [`MapperStats`] for uninstrumented mappers.
    ///
    /// Future instrumentation extends [`MapperStats`] (a plain struct with
    /// a `Default`) rather than adding further methods to this trait.
    fn stats(&self) -> MapperStats {
        MapperStats::default()
    }

    /// Serializes the mapper's mutable per-trial state (ledgers, RNG
    /// positions, caches) into a checkpoint. Default: no-op for stateless
    /// mappers. Implementations must emit a fixed-width, platform-
    /// independent encoding and restore bit-identically via
    /// [`Mapper::restore_state`].
    fn save_state(&self, _enc: &mut Encoder) {}

    /// Restores state written by [`Mapper::save_state`]. Default: no-op.
    /// The engine never calls `on_trial_start` on a restored mapper — the
    /// decoded state *is* the mid-trial state.
    fn restore_state(&mut self, _dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        Ok(())
    }
}

/// A read-only snapshot of the system handed to the mapper at a mapping
/// time-step `t_l`.
#[derive(Debug)]
pub struct SystemView<'a> {
    cluster: &'a Cluster,
    table: &'a ExecTable,
    cores: &'a [CoreState],
    time: Time,
    arrived: usize,
    window: usize,
    /// Incremental-invalidation feed for shard-indexed evaluators; absent
    /// on hand-built views, which forces consumers onto the full-scan
    /// (always-correct) path.
    dirty: Option<&'a DirtyCores>,
    /// Engine-maintained Σ queue depth over all cores; absent on
    /// hand-built views, where [`SystemView::avg_queue_depth`] sums
    /// directly.
    depth_total: Option<usize>,
}

impl<'a> SystemView<'a> {
    /// Builds a view (engine-internal, but public so alternative engines
    /// and tests can construct one).
    pub fn new(
        cluster: &'a Cluster,
        table: &'a ExecTable,
        cores: &'a [CoreState],
        time: Time,
        arrived: usize,
        window: usize,
    ) -> Self {
        assert_eq!(
            cores.len(),
            cluster.total_cores(),
            "core state array must match cluster size"
        );
        assert!(arrived <= window, "arrived tasks cannot exceed the window");
        Self {
            cluster,
            table,
            cores,
            time,
            arrived,
            window,
            dirty: None,
            depth_total: None,
        }
    }

    /// Attaches the engine's dirty-core mailbox, enabling incremental
    /// shard-index maintenance in consumers.
    pub fn with_dirty(mut self, dirty: &'a DirtyCores) -> Self {
        self.dirty = Some(dirty);
        self
    }

    /// Attaches the engine's running Σ queue depth, making
    /// [`SystemView::avg_queue_depth`] O(1). The caller guarantees
    /// `depth_total` equals the sum of all cores' depths; both are exact
    /// integers, so the O(1) average is bit-identical to the summed one.
    pub fn with_depth_total(mut self, depth_total: usize) -> Self {
        self.depth_total = Some(depth_total);
        self
    }

    /// The engine's dirty-core mailbox, when this view was built by an
    /// engine that maintains one.
    #[inline]
    pub fn dirty_cores(&self) -> Option<&'a DirtyCores> {
        self.dirty
    }

    /// The cluster model.
    #[inline]
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The execution-time pmf table.
    #[inline]
    pub fn table(&self) -> &'a ExecTable {
        self.table
    }

    /// Current time `t_l` (the arriving task's arrival time).
    #[inline]
    pub fn time(&self) -> Time {
        self.time
    }

    /// Run state of the core with flat index `core`.
    #[inline]
    pub fn core_state(&self, core: usize) -> &CoreState {
        &self.cores[core]
    }

    /// All core states, flat-indexed.
    #[inline]
    pub fn core_states(&self) -> &'a [CoreState] {
        self.cores
    }

    /// Mutation epoch of the core with flat index `core` — the staleness
    /// key for caches of per-core derived state (see
    /// [`CoreState::epoch`](crate::CoreState::epoch)).
    #[inline]
    pub fn core_epoch(&self, core: usize) -> u64 {
        self.cores[core].epoch()
    }

    /// `true` when the core with flat index `core` is idle with an empty
    /// queue — it has no queue prefix pmf at all, so its candidate
    /// equivalence class is keyed on its node template alone (DESIGN.md
    /// §13).
    #[inline]
    pub fn core_is_unloaded(&self, core: usize) -> bool {
        let state = &self.cores[core];
        state.is_idle() && state.depth() == 0
    }

    /// Tasks that have arrived so far, *including* the one being mapped.
    #[inline]
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// The trial window size.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// `T_left(t_l)` for the energy filter: tasks not yet arrived plus the
    /// one being mapped, clamped to at least 1 (DESIGN.md §3.5).
    #[inline]
    pub fn tasks_left(&self) -> usize {
        (self.window - self.arrived + 1).max(1)
    }

    /// Instantaneous average queue depth over all cores — the quantity the
    /// energy filter's ζ_mul adapts on (Sec. V-F). O(1) when the engine
    /// attached its depth aggregate, O(cores) otherwise; both compute the
    /// same exact integer sum, so the result is bit-identical.
    pub fn avg_queue_depth(&self) -> f64 {
        let total: usize = match self.depth_total {
            Some(total) => total,
            None => self.cores.iter().map(CoreState::depth).sum(),
        };
        total as f64 / self.cores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::QueuedTask;
    use ecds_cluster::{generate_cluster, ClusterGenConfig};
    use ecds_pmf::SeedDerive;
    use ecds_workload::{TaskId, TaskTypeId, WorkloadConfig};

    fn fixtures() -> (Cluster, ExecTable) {
        let seeds = SeedDerive::new(3);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let table = ExecTable::generate(&WorkloadConfig::small_for_tests(), &cluster, &seeds);
        (cluster, table)
    }

    #[test]
    fn avg_queue_depth_counts_all_cores() {
        let (cluster, table) = fixtures();
        let mut cores = vec![CoreState::new(); cluster.total_cores()];
        cores[0].enqueue(QueuedTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: 50.0,
        });
        cores[0].enqueue(QueuedTask {
            task: TaskId(1),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: 50.0,
        });
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10);
        let expected = 2.0 / cluster.total_cores() as f64;
        assert!((view.avg_queue_depth() - expected).abs() < 1e-12);
    }

    #[test]
    fn tasks_left_includes_current() {
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores()];
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10);
        assert_eq!(view.tasks_left(), 10);
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 10, 10);
        assert_eq!(view.tasks_left(), 1);
    }

    #[test]
    #[should_panic(expected = "match cluster size")]
    fn mismatched_core_array_rejected() {
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores() + 1];
        let _ = SystemView::new(&cluster, &table, &cores, 0.0, 0, 10);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn arrived_beyond_window_rejected() {
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores()];
        let _ = SystemView::new(&cluster, &table, &cores, 0.0, 11, 10);
    }

    #[test]
    fn tasks_left_clamps_at_one() {
        // Even in the degenerate arrived == window case, the fair-share
        // divisor must stay at least 1 (DESIGN.md §3.5).
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores()];
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 5, 5);
        assert_eq!(view.tasks_left(), 1);
    }

    #[test]
    fn empty_system_has_zero_depth() {
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores()];
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10);
        assert_eq!(view.avg_queue_depth(), 0.0);
    }

    #[test]
    fn accessors_expose_fields() {
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores()];
        let view = SystemView::new(&cluster, &table, &cores, 7.5, 3, 10);
        assert_eq!(view.time(), 7.5);
        assert_eq!(view.arrived(), 3);
        assert_eq!(view.window(), 10);
        assert_eq!(view.core_states().len(), cluster.total_cores());
        assert!(view.core_state(0).is_idle());
    }

    #[test]
    fn depth_aggregate_matches_the_summed_average_bitwise() {
        let (cluster, table) = fixtures();
        let mut cores = vec![CoreState::new(); cluster.total_cores()];
        for i in 0..3 {
            cores[0].enqueue(QueuedTask {
                task: TaskId(i),
                type_id: TaskTypeId(0),
                pstate: PState::P0,
                deadline: 50.0,
            });
        }
        let summed = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10).avg_queue_depth();
        let aggregated = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10)
            .with_depth_total(3)
            .avg_queue_depth();
        assert_eq!(summed.to_bits(), aggregated.to_bits());
    }

    #[test]
    fn dirty_mailbox_is_absent_unless_attached() {
        let (cluster, table) = fixtures();
        let cores = vec![CoreState::new(); cluster.total_cores()];
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10);
        assert!(view.dirty_cores().is_none());
        let dirty = DirtyCores::default();
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10).with_dirty(&dirty);
        assert!(view.dirty_cores().is_some());
    }

    #[test]
    fn unloaded_means_idle_with_empty_queue() {
        let (cluster, table) = fixtures();
        let mut cores = vec![CoreState::new(); cluster.total_cores()];
        cores[1].enqueue(QueuedTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: 50.0,
        });
        let view = SystemView::new(&cluster, &table, &cores, 0.0, 1, 10);
        assert!(view.core_is_unloaded(0));
        assert!(!view.core_is_unloaded(1), "a queued task loads the core");
    }
}
