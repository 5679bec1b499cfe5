//! Per-core runtime state: the executing task and the FIFO wait queue.

use std::collections::VecDeque;

use ecds_cluster::PState;
use ecds_pmf::Time;
use ecds_workload::{TaskId, TaskTypeId};

pub use guarded::CoreState;

/// A task waiting in a core's FIFO queue (its P-state was fixed at mapping
/// time and cannot change — Sec. III-B: "tasks cannot be reassigned, either
/// to a new core or a new P-state, once they are mapped").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedTask {
    /// The waiting task.
    pub task: TaskId,
    /// Its type (cached for completion-time math).
    pub type_id: TaskTypeId,
    /// The P-state it will execute in.
    pub pstate: PState,
    /// Its hard deadline `δ(z)` (cached for robustness math).
    pub deadline: Time,
}

/// The task currently executing on a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutingTask {
    /// The running task.
    pub task: TaskId,
    /// Its type.
    pub type_id: TaskTypeId,
    /// The P-state the core is running it in.
    pub pstate: PState,
    /// When it started (needed to shift + truncate its completion pmf).
    pub start: Time,
    /// Its hard deadline `δ(z)` (cached for robustness math).
    pub deadline: Time,
}

/// What a core is doing: the epoch-guarded part of [`CoreState`].
#[derive(Debug, Clone, Default, PartialEq)]
struct RunState {
    executing: Option<ExecutingTask>,
    queued: VecDeque<QueuedTask>,
}

/// The epoch guard. `CoreState`'s fields are private to this module, so
/// the mutators below reach the [`RunState`] only through
/// [`CoreState::run_state_mut`], which bumps the epoch first: a mutator
/// that skips the bump does not compile.
mod guarded {
    use std::collections::VecDeque;

    use super::{ExecutingTask, QueuedTask, RunState};

    /// One core's run state.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CoreState {
        run: RunState,
        /// Monotone mutation counter: bumped by every state change so
        /// derived quantities (the mapper's queue-prefix pmf cache) can
        /// detect staleness without comparing queue contents.
        epoch: u64,
    }

    impl CoreState {
        /// Rebuilds a core's run state from checkpointed parts, including
        /// its mutation epoch — an exact restore must resume the epoch
        /// sequence, not restart it, or observers' caches would treat
        /// stale derived state as fresh.
        pub(crate) fn from_checkpoint_parts(
            executing: Option<ExecutingTask>,
            queued: VecDeque<QueuedTask>,
            epoch: u64,
        ) -> Self {
            Self {
                run: RunState { executing, queued },
                epoch,
            }
        }

        /// The mutation epoch: strictly increases on every
        /// [`enqueue`](CoreState::enqueue), [`start`](CoreState::start),
        /// [`complete`](CoreState::complete), and
        /// [`pop_queued`](CoreState::pop_queued). Two observations of the
        /// same core with equal epochs saw identical executing/queued
        /// state.
        #[inline]
        pub fn epoch(&self) -> u64 {
            self.epoch
        }

        /// Read-only access; never bumps.
        #[inline]
        pub(super) fn run_state(&self) -> &RunState {
            &self.run
        }

        /// The only mutable access: bumps the epoch before handing out
        /// the run state.
        #[inline]
        pub(super) fn run_state_mut(&mut self) -> &mut RunState {
            self.epoch += 1;
            &mut self.run
        }
    }
}

impl CoreState {
    /// A fresh idle core.
    pub fn new() -> Self {
        Self::default()
    }

    /// The executing task, if any.
    #[inline]
    pub fn executing(&self) -> Option<&ExecutingTask> {
        self.run_state().executing.as_ref()
    }

    /// The waiting tasks, in execution order.
    #[inline]
    pub fn queued(&self) -> impl ExactSizeIterator<Item = &QueuedTask> {
        self.run_state().queued.iter()
    }

    /// The paper's `|MQ(i, j, k, t_l)|`: number of tasks queued for
    /// execution or currently executing on this core.
    #[inline]
    pub fn depth(&self) -> usize {
        let run = self.run_state();
        run.queued.len() + usize::from(run.executing.is_some())
    }

    /// `true` when nothing is executing (a newly-assigned task may start
    /// immediately).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.run_state().executing.is_none()
    }

    /// Appends a task to the wait queue.
    pub fn enqueue(&mut self, task: QueuedTask) {
        self.run_state_mut().queued.push_back(task);
    }

    /// Marks `task` as executing. The core must be idle.
    pub fn start(&mut self, task: ExecutingTask) {
        assert!(self.is_idle(), "core already executing a task");
        self.run_state_mut().executing = Some(task);
    }

    /// Finishes the executing task, returning it; the next queued task (if
    /// any) is returned for the engine to start.
    pub fn complete(&mut self) -> (ExecutingTask, Option<QueuedTask>) {
        let run = self.run_state_mut();
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: complete() is only dispatched for a Completion event of the task this core started"
        )]
        let done = run.executing.take().expect("no task executing");
        (done, run.queued.pop_front())
    }

    /// Pops the next waiting task without starting it — used by the
    /// cancel-overdue extension to skip tasks that already missed. Popping
    /// an empty queue is not a mutation and leaves the epoch alone.
    pub fn pop_queued(&mut self) -> Option<QueuedTask> {
        if self.run_state().queued.is_empty() {
            return None;
        }
        self.run_state_mut().queued.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(id: usize) -> QueuedTask {
        QueuedTask {
            task: TaskId(id),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: 100.0,
        }
    }

    fn executing(id: usize) -> ExecutingTask {
        ExecutingTask {
            task: TaskId(id),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            start: 1.0,
            deadline: 100.0,
        }
    }

    #[test]
    fn fresh_core_is_idle_with_zero_depth() {
        let c = CoreState::new();
        assert!(c.is_idle());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn depth_counts_executing_and_queued() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.enqueue(queued(1));
        c.enqueue(queued(2));
        assert_eq!(c.depth(), 3);
        assert!(!c.is_idle());
    }

    #[test]
    fn complete_pops_fifo() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.enqueue(queued(1));
        c.enqueue(queued(2));
        let (done, next) = c.complete();
        assert_eq!(done.task, TaskId(0));
        assert_eq!(next.unwrap().task, TaskId(1));
        assert!(c.is_idle()); // engine is responsible for starting `next`
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn complete_on_empty_queue_returns_none_next() {
        let mut c = CoreState::new();
        c.start(executing(5));
        let (done, next) = c.complete();
        assert_eq!(done.task, TaskId(5));
        assert!(next.is_none());
    }

    #[test]
    #[should_panic(expected = "already executing")]
    fn double_start_panics() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.start(executing(1));
    }

    #[test]
    #[should_panic(expected = "no task executing")]
    fn complete_idle_panics() {
        let mut c = CoreState::new();
        let _ = c.complete();
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut c = CoreState::new();
        assert_eq!(c.epoch(), 0);
        c.enqueue(queued(1));
        assert_eq!(c.epoch(), 1);
        c.start(executing(0));
        assert_eq!(c.epoch(), 2);
        let _ = c.complete();
        assert_eq!(c.epoch(), 3);
        c.enqueue(queued(2));
        let _ = c.pop_queued();
        assert_eq!(c.epoch(), 5);
    }

    #[test]
    fn epoch_unchanged_by_reads_and_empty_pop() {
        let mut c = CoreState::new();
        c.enqueue(queued(1));
        let before = c.epoch();
        let _ = c.depth();
        let _ = c.is_idle();
        let _: Vec<_> = c.queued().collect();
        assert_eq!(c.epoch(), before);
        let mut empty = CoreState::new();
        assert!(empty.pop_queued().is_none());
        assert_eq!(empty.epoch(), 0, "popping nothing is not a mutation");
    }

    #[test]
    fn queued_iterates_in_order() {
        let mut c = CoreState::new();
        c.enqueue(queued(3));
        c.enqueue(queued(4));
        let ids: Vec<usize> = c.queued().map(|q| q.task.0).collect();
        assert_eq!(ids, vec![3, 4]);
    }
}
