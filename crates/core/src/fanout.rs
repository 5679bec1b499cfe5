//! Intra-decision fan-out: the fused-kernel calls of one decision's busy
//! equivalence classes run on two lanes — the calling thread and one
//! persistent helper thread — with results bit-identical to evaluating
//! them on the caller alone (DESIGN.md §15).
//!
//! Each (busy class, P-state) pair is one *unit*: one
//! [`PmfScratch::convolve_reduced_slices`] call followed by the two moments
//! the estimate needs, `ECT` and `ρ`. Units are independent of each other,
//! both lanes run the same code on identical inputs, and every result is
//! written back by unit index, so which lane runs which unit cannot change
//! a bit. The caller copies the inputs of a decision into a batch it owns
//! (the prefix impulses of every busy class, the task type's execution-time
//! pmfs per node template and P-state, and the deadline), publishes it, and
//! then claims units from the same atomic counter as the helper: a helper
//! that the OS has not scheduled yet simply claims nothing.
//!
//! The helper is spawned on the first batch, never in a constructor, and
//! only where [`std::thread::available_parallelism`] reports a second core;
//! dropping the [`FanOut`] joins it. Every buffer — the batch arena, the
//! result slots and both lanes' kernel workspaces — is grown by the caller
//! before a batch is published, so neither lane allocates once the
//! workload's high-water mark has been reached.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::sync::{RwLockWriteGuard, TryLockError};
use std::thread::{self, JoinHandle};

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_pmf::{Impulse, PmfScratch, Prob, ReductionPolicy, Time};

/// Fewest busy classes for which a decision fans out. Below it the
/// decision's kernel work (five calls per busy class, a few µs to a few
/// tens of µs each) is too short to repay waking the helper, so the caller
/// evaluates serially. A constant rather than an option: the results are
/// identical on either side of it, only the host time differs.
pub const FAN_OUT_MIN_BUSY_CLASSES: usize = 8;

/// Stack of the helper thread. It only runs the iterative fused kernel over
/// heap buffers, so a small stack is ample and keeps its resident pages few.
const HELPER_STACK_BYTES: usize = 128 * 1024;

/// Spins before the caller starts yielding while it waits for the helper
/// to finish the units it has claimed (each takes microseconds).
const WAIT_SPINS: u32 = 256;

/// Where one busy class's kernel inputs sit in the batch arena.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// `(start, len)` of the class's queue-prefix impulses.
    prefix: (usize, usize),
    /// Node template of the class, indexing [`Batch::templates`].
    template: usize,
}

/// The execution-time pmfs of one node template, copied into the arena at
/// most once per batch.
#[derive(Debug, Clone, Copy, Default)]
struct TemplateSlot {
    /// The [`Batch::stamp`] the ranges were copied in (stale otherwise).
    stamp: u64,
    /// `(start, len)` per P-state.
    exec: [(usize, usize); NUM_PSTATES],
}

/// One decision's published inputs and result slots. Written by the caller
/// under the write lock only; both lanes read it under read locks and write
/// results through atomics.
#[derive(Debug, Default)]
struct Batch {
    policy: ReductionPolicy,
    deadline: Time,
    arena: Vec<Impulse>,
    jobs: Vec<Job>,
    templates: Vec<TemplateSlot>,
    stamp: u64,
    /// Largest `n × m` product count of any unit in the batch.
    max_products: usize,
    /// `(ECT, ρ)` bits per unit (`job * NUM_PSTATES + P-state`).
    results: Vec<[AtomicU64; 2]>,
    /// The helper's kernel workspace. The helper locks it while it works a
    /// batch; the caller grows it through `get_mut` before publishing.
    helper_scratch: Mutex<PmfScratch>,
}

/// Wake-up state of the helper.
#[derive(Debug, Default)]
struct Signal {
    /// Bumped once per published batch.
    generation: u64,
    /// Set by the helper once it runs; the caller waits for it once.
    ready: bool,
    shutdown: bool,
}

/// State the caller and the helper share.
#[derive(Debug, Default)]
struct Shared {
    batch: RwLock<Batch>,
    /// Next unclaimed unit. Reset under the batch write lock; claimed only
    /// under a read lock, so a claim always refers to the batch its lane
    /// reads.
    next: AtomicUsize,
    /// Units finished. Each lane stores a unit's results, then increments
    /// this with `Release`; the caller's `Acquire` load of the full count
    /// makes every result (and `helper_calls`) visible.
    done: AtomicUsize,
    /// Kernel calls the helper made that the caller has not folded yet.
    helper_calls: AtomicU64,
    signal: Mutex<Signal>,
    wake: Condvar,
}

/// Locks a mutex whose data stays valid at every step (a wake-up flag, a
/// kernel workspace with no state between calls), so a panic elsewhere
/// while it was held leaves nothing to repair.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claims and runs units of `batch` until none is left. `fold` receives the
/// kernel calls of every unit before the unit is marked done.
fn drain(shared: &Shared, batch: &Batch, scratch: &mut PmfScratch, fold: Option<&AtomicU64>) {
    let units = batch.jobs.len() * NUM_PSTATES;
    loop {
        let unit = shared.next.fetch_add(1, Ordering::Relaxed);
        if unit >= units {
            return;
        }
        let job = batch.jobs[unit / NUM_PSTATES];
        let (p_start, p_len) = job.prefix;
        let (e_start, e_len) = batch.templates[job.template].exec[unit % NUM_PSTATES];
        let before = scratch.kernel_calls();
        let completion = scratch.convolve_reduced_slices(
            &batch.arena[p_start..p_start + p_len],
            &batch.arena[e_start..e_start + e_len],
            batch.policy,
        );
        let slot = &batch.results[unit];
        slot[0].store(completion.expectation().to_bits(), Ordering::Relaxed);
        slot[1].store(
            completion.prob_le(batch.deadline).to_bits(),
            Ordering::Relaxed,
        );
        if let Some(fold) = fold {
            fold.fetch_add(scratch.kernel_calls() - before, Ordering::Relaxed);
        }
        shared.done.fetch_add(1, Ordering::Release);
    }
}

/// The helper thread's body: announce readiness, then work every published
/// batch until shutdown.
fn helper_main(shared: &Shared) {
    let mut seen = {
        let mut signal = relock(&shared.signal);
        signal.ready = true;
        shared.wake.notify_all();
        signal.generation
    };
    loop {
        {
            let mut signal = relock(&shared.signal);
            while signal.generation == seen && !signal.shutdown {
                signal = shared
                    .wake
                    .wait(signal)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if signal.shutdown {
                return;
            }
            seen = signal.generation;
        }
        // A late wake-up may find a newer batch than the one it was woken
        // for, or one already fully claimed; either way it only claims
        // units of the batch it holds the read lock on.
        let batch = shared.batch.read().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = relock(&batch.helper_scratch);
        drain(shared, &batch, &mut scratch, Some(&shared.helper_calls));
    }
}

/// The running helper and the state it shares with the caller.
#[derive(Debug)]
pub(crate) struct Pool {
    shared: Arc<Shared>,
    helper: Option<JoinHandle<()>>,
}

impl Pool {
    /// Spawns the helper and waits until it runs, so its start-up happens
    /// inside the first fanned-out decision. `None` if the OS refuses the
    /// thread.
    fn spawn() -> Option<Self> {
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let helper = thread::Builder::new()
            .name("ecds-fan-out".to_string())
            .stack_size(HELPER_STACK_BYTES)
            .spawn(move || helper_main(&theirs))
            .ok()?;
        let mut signal = relock(&shared.signal);
        while !signal.ready {
            signal = shared
                .wake
                .wait(signal)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(signal);
        Some(Self {
            shared,
            helper: Some(helper),
        })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        relock(&self.shared.signal).shutdown = true;
        self.shared.wake.notify_one();
        if let Some(helper) = self.helper.take() {
            // A helper panic was already reported on its thread (and, if it
            // struck mid-batch, on the caller); nothing is left to clean up.
            let _ = helper.join();
        }
    }
}

/// The caller-side handle of the fan-out: whether this evaluator has a
/// second lane, and the helper once spawned.
#[derive(Debug, Default)]
pub(crate) enum FanOut {
    /// No decision has been large enough to fan out yet.
    #[default]
    Unprobed,
    /// One core, or the OS refused the helper thread: always serial.
    Serial,
    Pool(Pool),
}

impl FanOut {
    /// `2` once the helper runs, `1` before and on single-core hosts.
    pub(crate) fn lanes(&self) -> usize {
        match self {
            Self::Pool(_) => 2,
            Self::Unprobed | Self::Serial => 1,
        }
    }

    /// Opens a batch for a decision with `busy` busy classes, or returns
    /// `None` when the decision should be evaluated serially: below
    /// [`FAN_OUT_MIN_BUSY_CLASSES`], without a second core, or while a
    /// descheduled helper still holds the previous batch.
    pub(crate) fn begin_batch(
        &mut self,
        busy: usize,
        policy: ReductionPolicy,
        deadline: Time,
    ) -> Option<BatchWriter<'_>> {
        if busy < FAN_OUT_MIN_BUSY_CLASSES {
            return None;
        }
        if matches!(self, Self::Unprobed) {
            let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
            let pool = if cores >= 2 { Pool::spawn() } else { None };
            *self = pool.map_or(Self::Serial, Self::Pool);
        }
        let Self::Pool(pool) = self else {
            return None;
        };
        let mut batch = match pool.shared.batch.try_write() {
            Ok(batch) => batch,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        batch.policy = policy;
        batch.deadline = deadline;
        batch.arena.clear();
        batch.jobs.clear();
        batch.stamp += 1;
        batch.max_products = 0;
        Some(BatchWriter { pool, batch })
    }
}

/// A batch being filled; [`BatchWriter::work_batch`] publishes and works it.
pub(crate) struct BatchWriter<'a> {
    pool: &'a Pool,
    batch: RwLockWriteGuard<'a, Batch>,
}

impl<'a> BatchWriter<'a> {
    /// Appends one busy class: its queue-prefix impulses, and the task
    /// type's execution-time pmf per P-state on the class's node template
    /// (copied once per template per batch).
    pub(crate) fn push_job<'p>(
        &mut self,
        prefix: &[Impulse],
        template: usize,
        exec: impl Fn(PState) -> &'p [Impulse],
    ) {
        let batch = &mut *self.batch;
        if batch.templates.len() <= template {
            batch
                .templates
                .resize(template + 1, TemplateSlot::default());
        }
        if batch.templates[template].stamp != batch.stamp {
            let mut slot = TemplateSlot {
                stamp: batch.stamp,
                exec: [(0, 0); NUM_PSTATES],
            };
            for pstate in PState::ALL {
                let pmf = exec(pstate);
                slot.exec[pstate.index()] = (batch.arena.len(), pmf.len());
                batch.arena.extend_from_slice(pmf);
            }
            batch.templates[template] = slot;
        }
        let longest_exec = batch.templates[template]
            .exec
            .iter()
            .map(|&(_, len)| len)
            .max()
            .unwrap_or(0);
        batch.max_products = batch.max_products.max(prefix.len() * longest_exec);
        batch.jobs.push(Job {
            prefix: (batch.arena.len(), prefix.len()),
            template,
        });
        batch.arena.extend_from_slice(prefix);
    }

    /// Publishes the batch, works it alongside the helper on `own` (the
    /// caller's workspace), waits for the helper's claimed units, and folds
    /// the helper's kernel calls into `own`'s counter.
    pub(crate) fn work_batch(self, own: &mut PmfScratch) -> BatchResults<'a> {
        let Self { pool, mut batch } = self;
        let shared = &*pool.shared;
        let units = batch.jobs.len() * NUM_PSTATES;
        if batch.results.len() < units {
            batch.results.resize_with(units, Default::default);
        }
        // Either lane may run any unit, so both workspaces are grown to the
        // batch's largest unit before anything is published.
        let max_products = batch.max_products;
        own.reserve_kernel(max_products);
        batch
            .helper_scratch
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .reserve_kernel(max_products);
        shared.next.store(0, Ordering::Relaxed);
        shared.done.store(0, Ordering::Relaxed);
        drop(batch);
        relock(&shared.signal).generation += 1;
        shared.wake.notify_one();

        let batch = shared.batch.read().unwrap_or_else(PoisonError::into_inner);
        drain(shared, &batch, own, None);
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) < units {
            if spins < WAIT_SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let helper_alive = pool.helper.as_ref().is_some_and(|h| !h.is_finished());
            assert!(
                helper_alive,
                "fan-out helper exited with claimed units unfinished"
            );
            thread::yield_now();
        }
        let helper_calls = shared.helper_calls.swap(0, Ordering::Relaxed);
        own.set_kernel_calls(own.kernel_calls() + helper_calls);
        BatchResults { batch }
    }
}

/// The finished batch's per-unit results.
pub(crate) struct BatchResults<'a> {
    batch: RwLockReadGuard<'a, Batch>,
}

impl BatchResults<'_> {
    /// `(ECT, ρ)` of the `job`-th busy class in `pstate`.
    pub(crate) fn unit(&self, job: usize, pstate: PState) -> (Time, Prob) {
        let slot = &self.batch.results[job * NUM_PSTATES + pstate.index()];
        (
            f64::from_bits(slot[0].load(Ordering::Relaxed)),
            f64::from_bits(slot[1].load(Ordering::Relaxed)),
        )
    }
}
