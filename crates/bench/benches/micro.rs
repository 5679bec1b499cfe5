//! The kernel micro-benchmark behind `results/BENCH_kernel.json`: median
//! ns/op of the fused scratch kernel against the legacy convolve→reduce
//! pipeline, plus one warm `evaluate_all` sweep. It is the one row that
//! times the paper's claim that convolution overhead "can be negligible if
//! task execution times are sufficiently long"; end-to-end timings come
//! from `perfbench`.
//!
//! `cargo bench -p ecds-bench --bench micro` passes `--bench` and writes
//! the file. Without that flag (`cargo test --bench micro`) every measured
//! closure runs once so the path can't bit-rot, and nothing is written.

use std::hint::black_box;
use std::time::Instant;

use ecds_core::CandidateEvaluator;
use ecds_pmf::{Gamma, Pmf, PmfScratch, ReductionPolicy};
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLES: usize = 30;

fn gamma_pmf(mean: f64, impulses: usize) -> Pmf {
    let gamma = Gamma::from_mean_cv(mean, 0.2);
    let mut rng = StdRng::seed_from_u64(7);
    ecds_pmf::empirical_pmf(
        &mut rng,
        ecds_pmf::SamplePmfConfig::new(impulses * 10, impulses),
        |r| gamma.sample(r),
    )
}

/// Every core executing one task with `depth` more queued behind it
/// (burst-time telemetry shows per-core depths of this order).
fn busy_view_fixture(depth: usize) -> (Scenario, Vec<CoreState>) {
    let scenario = Scenario::small_for_tests(3);
    let mut cores = vec![CoreState::new(); scenario.cluster().total_cores()];
    for (i, core) in cores.iter_mut().enumerate() {
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(i % 10),
            pstate: ecds_cluster::PState::P1,
            start: 0.0,
            deadline: 4000.0,
        });
        for q in 0..depth {
            core.enqueue(QueuedTask {
                task: TaskId(100 + i * depth + q),
                type_id: TaskTypeId((i + 3 + q) % 10),
                pstate: ecds_cluster::PState::P2,
                deadline: 6000.0,
            });
        }
    }
    (scenario, cores)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median ns/op over [`SAMPLES`] batches of `iters` calls (one warm-up
/// batch first). In smoke mode runs `f` once and returns 0.
// Bench harness: timing is the point (clippy.toml bans the wall clock).
#[allow(clippy::disallowed_methods)]
fn measure(mut f: impl FnMut(), iters: u32, bench_mode: bool) -> f64 {
    if !bench_mode {
        f();
        return 0.0;
    }
    for _ in 0..iters {
        f();
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}

fn main() {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let policy = ReductionPolicy::default_cap();
    let mut kernel_rows = String::new();
    for (i, impulses) in [8usize, 24, 64].into_iter().enumerate() {
        let a = gamma_pmf(750.0, impulses);
        let b = gamma_pmf(900.0, impulses);
        let legacy = measure(|| drop(black_box(a.convolve(&b, policy))), 2000, bench_mode);
        let mut scratch = PmfScratch::new();
        let fused_warm = measure(
            || {
                let out = scratch.convolve_reduced(black_box(&a), black_box(&b), policy);
                black_box(out.expectation());
            },
            2000,
            bench_mode,
        );
        let fused_cold = measure(
            || {
                let mut fresh = PmfScratch::new();
                let out = fresh.convolve_reduced(black_box(&a), black_box(&b), policy);
                black_box(out.expectation());
            },
            2000,
            bench_mode,
        );
        if i > 0 {
            kernel_rows.push_str(",\n");
        }
        kernel_rows.push_str(&format!(
            "    {{\"impulses\": {impulses}, \"cap\": {cap}, \
             \"legacy_ns\": {legacy:.1}, \"fused_warm_ns\": {fused_warm:.1}, \
             \"fused_cold_ns\": {fused_cold:.1}, \"speedup_warm\": {speedup:.2}}}",
            cap = policy.max_impulses,
            speedup = if fused_warm > 0.0 {
                legacy / fused_warm
            } else {
                0.0
            },
        ));
    }

    let (scenario, cores) = busy_view_fixture(4);
    let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 500.0, 10, 60);
    let task = Task {
        id: TaskId(50),
        type_id: TaskTypeId(5),
        arrival: 500.0,
        deadline: 3000.0,
        quantile: 0.5,
    };
    let evaluator = CandidateEvaluator::default();
    let _ = evaluator.evaluate_all(&view, &task);
    let eval_fused = measure(
        || drop(black_box(evaluator.evaluate_all(&view, &task))),
        200,
        bench_mode,
    );

    if !bench_mode {
        println!("BENCH_kernel.json: ok (smoke, not written)");
        return;
    }
    let json = format!(
        "{{\n  \"units\": \"median ns per op, {SAMPLES} samples\",\n  \
         \"kernel\": [\n{kernel_rows}\n  ],\n  \
         \"evaluate_all\": {{\"queue_depth\": 4, \"warm_prefix_cache\": true, \
         \"fused_ns\": {eval_fused:.1}}}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_kernel.json"
    );
    std::fs::write(path, &json).expect("write BENCH_kernel.json");
    println!("wrote {path}:\n{json}");
}
