//! Proof that the evaluator's steady state is allocation-free: once the
//! scratch buffers have grown to the workload's high-water mark, the prefix
//! cache is warm and the shard index is built, a full sweep performs no
//! heap allocation beyond a returned candidate vector, no matter how many
//! (class, P-state) convolutions it runs.
//!
//! The counter is process-global, so the file is its own integration
//! binary with `harness = false` (see `Cargo.toml`) and `main` runs the
//! one check on the main thread: libtest would run it on a spawned thread
//! while its own main thread allocates, and on a busy host those
//! allocations land inside a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecds_cluster::{ClusterGenConfig, PState};
use ecds_core::{
    candidates_bit_eq, CandidateEvaluator, ClassCandidate, EvaluatedCandidate,
    FAN_OUT_MIN_BUSY_CLASSES,
};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, DirtyCores, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId, WorkloadConfig};

/// System allocator wrapper that counts every allocation call.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Every core busy with a queue behind it: the heaviest steady-state shape
/// — every candidate runs a real prefix ⊛ exec convolution.
fn loaded_cores(n: usize) -> Vec<CoreState> {
    let mut cores = vec![CoreState::new(); n];
    for (i, core) in cores.iter_mut().enumerate() {
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(i % 3),
            pstate: PState::P1,
            start: 0.0,
            deadline: 5000.0,
        });
        for q in 0..2 {
            core.enqueue(QueuedTask {
                task: TaskId(100 + i * 2 + q),
                type_id: TaskTypeId((i + q + 1) % 3),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
    }
    cores
}

fn main() {
    warm_evaluate_all_allocates_only_the_result_vector();
    // Report in libtest's format so the check keeps its name in test output.
    println!("\nrunning 1 test");
    println!("test warm_evaluate_all_allocates_only_the_result_vector ... ok");
    println!("\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n");
}

fn warm_evaluate_all_allocates_only_the_result_vector() {
    let scenario = Scenario::small_for_tests(23);
    let cores = loaded_cores(scenario.cluster().total_cores());
    let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 50.0, 1, 60);
    let task = Task {
        id: TaskId(50),
        type_id: TaskTypeId(0),
        arrival: 50.0,
        deadline: 3000.0,
        quantile: 0.5,
    };
    // Reference: a fresh evaluator over a view without a mailbox, which
    // rebuilds its class partition from scratch.
    let reference = CandidateEvaluator::default().evaluate_all(&view, &task);

    // The by-value pmf pipeline allocates on every convolution; the
    // contrast proves the counter actually observes allocations.
    let node = scenario.cluster().core(0).node;
    let a = scenario.table().pmf(TaskTypeId(0), node, PState::P0);
    let b = scenario.table().pmf(TaskTypeId(1), node, PState::P1);
    let convolutions = 16;
    let before = allocations();
    for _ in 0..convolutions {
        std::hint::black_box(a.convolve(b, ReductionPolicy::default()));
    }
    let by_value = allocations() - before;
    assert!(
        by_value >= convolutions,
        "by-value convolve should allocate at least once per call \
         ({convolutions}), counted {by_value}"
    );

    // --- Shard-index path: ZERO steady-state allocations. ---
    //
    // With an epoch-bump mailbox on the view, the evaluator maintains its
    // (template, prefix-identity, depth) shard index incrementally, and a
    // caller-owned output buffer leaves nothing to allocate: a warm
    // `evaluate_all_into` and a warm `evaluate_indexed_into` must both
    // touch the allocator zero times.
    let dirty = DirtyCores::default();
    let sharded_view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 50.0, 1, 60)
        .with_dirty(&dirty);
    let sharded = CandidateEvaluator::default();

    let mut out: Vec<EvaluatedCandidate> = Vec::new();
    // Warm-up: first call full-rebuilds the shard and grows every buffer;
    // second call runs the incremental sweep and verifies the warm path.
    sharded.evaluate_all_into(&sharded_view, &task, &mut out);
    sharded.evaluate_all_into(&sharded_view, &task, &mut out);
    assert!(candidates_bit_eq(&out, &reference));

    let before = allocations();
    sharded.evaluate_all_into(&sharded_view, &task, &mut out);
    let during = allocations() - before;
    assert!(candidates_bit_eq(&out, &reference));
    assert_eq!(
        during, 0,
        "warm sharded evaluate_all_into with a caller-owned buffer must \
         not allocate: the sweep walks the mailbox/expiry heap in place \
         and estimates land in the reused class storage"
    );

    // The `Vec`-returning form allocates exactly once: the result vector.
    let before = allocations();
    let measured = sharded.evaluate_all(&sharded_view, &task);
    let during = allocations() - before;
    assert!(candidates_bit_eq(&measured, &reference));
    assert_eq!(
        during, 1,
        "warm evaluate_all must allocate exactly once (the result vector)"
    );

    // The class-level API (what SQ/MECT/LL select from without
    // materializing cores × P-states) is equally allocation-free warm.
    let mut classes: Vec<ClassCandidate> = Vec::new();
    sharded.evaluate_indexed_into(&sharded_view, &task, &mut classes);
    let before = allocations();
    sharded.evaluate_indexed_into(&sharded_view, &task, &mut classes);
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "warm evaluate_indexed_into must not allocate: class candidates \
         land in the caller-owned buffer"
    );
    // The classes cover every core exactly once and carry the reference
    // estimates bit-for-bit.
    let total: usize = classes.iter().map(|c| c.members).sum();
    assert_eq!(total, cores.len());
    for class in &classes {
        for (pi, est) in class.ests.iter().enumerate() {
            assert!(est.bit_eq(&reference[class.min_core * 5 + pi].est));
        }
    }

    // --- Fan-out: ZERO steady-state allocations on either lane. ---
    //
    // A templated cluster with every core busy puts far more than
    // FAN_OUT_MIN_BUSY_CLASSES busy classes into each decision, so on a
    // host with a second core the helper thread shares the kernel calls.
    // The counter is process-global and sees both threads: once warm, the
    // batch buffers and both lanes' workspaces must already be grown, no
    // matter which lane ran which unit during warm-up.
    let wide = Scenario::with_configs(
        23,
        ClusterGenConfig::scaled(16, 4),
        WorkloadConfig::small_for_tests(),
    );
    let wide_cores = loaded_cores(wide.cluster().total_cores());
    let wide_dirty = DirtyCores::default();
    let wide_view = SystemView::new(wide.cluster(), wide.table(), &wide_cores, 50.0, 1, 60)
        .with_dirty(&wide_dirty);
    let wide_bare = SystemView::new(wide.cluster(), wide.table(), &wide_cores, 50.0, 1, 60);
    let wide_reference = CandidateEvaluator::default().evaluate_all(&wide_bare, &task);
    let fanned = CandidateEvaluator::default();
    for _ in 0..2 {
        fanned.evaluate_all_into(&wide_view, &task, &mut out);
        fanned.evaluate_indexed_into(&wide_view, &task, &mut classes);
    }
    let busy = classes.iter().filter(|c| c.depth > 0).count();
    assert!(
        busy >= FAN_OUT_MIN_BUSY_CLASSES,
        "the fan-out case must cross the floor ({busy} busy classes)"
    );
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert_eq!(fanned.evaluation_lanes(), 2, "the helper must be running");
    }

    let before = allocations();
    for _ in 0..16 {
        fanned.evaluate_all_into(&wide_view, &task, &mut out);
        fanned.evaluate_indexed_into(&wide_view, &task, &mut classes);
    }
    let during = allocations() - before;
    assert!(candidates_bit_eq(&out, &wide_reference));
    for class in &classes {
        for (pi, est) in class.ests.iter().enumerate() {
            assert!(est.bit_eq(&wide_reference[class.min_core * 5 + pi].est));
        }
    }
    assert_eq!(
        during, 0,
        "warm fanned-out decisions must not allocate on either lane: the \
         caller grows the batch and both workspaces before publishing"
    );
}
