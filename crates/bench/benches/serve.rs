//! Continuous-serving benchmarks: sustained throughput of the
//! `ecds_sim::serve` loop over a 100k-arrival infinite stream under
//! bounded retention, plus the per-snapshot cost of checkpoint/restore.
//!
//! Two mappers bound the measurement: the paper's LL scheduler (real
//! decision cost — the "decisions/sec" number) and a trivial modulo
//! mapper (serving-loop overhead alone). `results/BENCH_serve.json`
//! records both, with the peak resident-task count proving the stream ran
//! in bounded memory.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use ecds_core::{build_scheduler, FilterVariant, HeuristicKind};
use ecds_sim::{
    Assignment, Discipline, ImmediateDiscipline, Mapper, Scenario, ServeConfig, ServeSession,
    SimConfig, SystemView,
};
use ecds_workload::{BurstyArrivalSource, Task};

/// The cheapest possible mapper: measures the serving loop itself.
struct ModuloMapper {
    cores: usize,
}

impl Mapper for ModuloMapper {
    fn assign(&mut self, task: &Task, _view: &SystemView<'_>) -> Option<Assignment> {
        Some(Assignment {
            core: task.id.0 % self.cores,
            pstate: ecds_cluster::PState::P0,
        })
    }
}

/// Bounded retention forbids an energy budget, so the streaming scenario
/// is the small test cluster with the budget lifted.
fn streaming_scenario() -> Scenario {
    Scenario::small_for_tests(7).with_sim_config(SimConfig::unconstrained())
}

fn bursty_source(scenario: &Scenario) -> BurstyArrivalSource {
    BurstyArrivalSource::new(
        scenario.workload().arrivals.clone(),
        scenario.workload(),
        scenario.table(),
        scenario.seeds(),
        0,
    )
}

fn streaming_config(max_arrivals: u64) -> ServeConfig {
    ServeConfig::streaming(8, 64, max_arrivals)
}

/// Drives a fresh streaming session to completion and returns
/// `(events, peak_resident, retired, checkpoint_bytes)`.
fn drive(
    scenario: &Scenario,
    discipline: &mut dyn Discipline,
    max_arrivals: u64,
) -> (u64, usize, u64, usize) {
    let mut source = bursty_source(scenario);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        streaming_config(max_arrivals),
        &mut source,
        discipline,
    );
    let mut peak_resident = 0;
    while session.step(&mut source, discipline) {
        peak_resident = peak_resident.max(session.resident_tasks());
    }
    let checkpoint_bytes = session.checkpoint(&source, &*discipline).len();
    let events = session.events_processed();
    let summary = session.finish_summary(&*discipline);
    (
        events,
        peak_resident,
        summary.tally.retired,
        checkpoint_bytes,
    )
}

/// Criterion arm: per-snapshot checkpoint and restore cost on a session
/// paused mid-burst with the LL scheduler's full evaluator state.
fn bench_checkpoint_roundtrip(c: &mut Criterion) {
    let scenario = streaming_scenario();
    let mut scheduler = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = bursty_source(&scenario);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        streaming_config(10_000),
        &mut source,
        &mut discipline,
    );
    session.run_events(2_000, &mut source, &mut discipline);
    let bytes = session.checkpoint(&source, &discipline);

    let mut group = c.benchmark_group("serve_checkpoint");
    group.bench_function("save", |b| {
        b.iter(|| black_box(session.checkpoint(&source, &discipline)))
    });
    group.bench_function("restore", |b| {
        b.iter(|| {
            let mut scheduler = build_scheduler(
                HeuristicKind::LightestLoad,
                FilterVariant::None,
                &scenario,
                0,
            );
            let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
            let mut source = bursty_source(&scenario);
            let restored = ServeSession::restore(
                scenario.cluster(),
                scenario.table(),
                scenario.sim_config(),
                black_box(&bytes),
                &mut source,
                &mut discipline,
            )
            .expect("bench checkpoint restores");
            black_box(restored.events_processed())
        })
    });
    group.finish();
}

/// Wall-clock throughput measurement feeding `results/BENCH_serve.json`.
/// In smoke mode (no `--bench` flag, i.e. `cargo test --benches`) each arm
/// streams a short prefix once so the path can't bit-rot, but no file is
/// written.
mod serve_json {
    use super::*;
    use std::time::Instant;

    const STREAM_ARRIVALS: u64 = 100_000;
    const SMOKE_ARRIVALS: u64 = 2_000;

    struct Arm {
        mapper: &'static str,
        arrivals: u64,
        decisions_per_sec: f64,
        events_per_sec: f64,
        elapsed_s: f64,
        peak_resident_tasks: usize,
        retired: u64,
        checkpoint_bytes: usize,
    }

    // Bench harness: timing is the point (clippy.toml bans the wall clock).
    #[allow(clippy::disallowed_methods)]
    fn run_arm(
        mapper: &'static str,
        scenario: &Scenario,
        discipline: &mut dyn Discipline,
        bench_mode: bool,
    ) -> Arm {
        let arrivals = if bench_mode {
            STREAM_ARRIVALS
        } else {
            SMOKE_ARRIVALS
        };
        let start = Instant::now();
        let (events, peak_resident, retired, checkpoint_bytes) =
            drive(scenario, discipline, arrivals);
        let elapsed = start.elapsed().as_secs_f64();
        Arm {
            mapper,
            arrivals,
            decisions_per_sec: arrivals as f64 / elapsed,
            events_per_sec: events as f64 / elapsed,
            elapsed_s: elapsed,
            peak_resident_tasks: peak_resident,
            retired,
            checkpoint_bytes,
        }
    }

    fn render(arm: &Arm) -> String {
        format!(
            "    {{\"mapper\": \"{}\", \"arrivals\": {}, \"decisions_per_sec\": {:.0}, \
             \"events_per_sec\": {:.0}, \"elapsed_s\": {:.3}, \"peak_resident_tasks\": {}, \
             \"retired\": {}, \"checkpoint_bytes\": {}}}",
            arm.mapper,
            arm.arrivals,
            arm.decisions_per_sec,
            arm.events_per_sec,
            arm.elapsed_s,
            arm.peak_resident_tasks,
            arm.retired,
            arm.checkpoint_bytes,
        )
    }

    pub fn emit() {
        let bench_mode = std::env::args().any(|a| a == "--bench");
        let scenario = streaming_scenario();

        let mut scheduler = build_scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::None,
            &scenario,
            0,
        );
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let scheduler_arm = run_arm("lightest-load", &scenario, &mut discipline, bench_mode);

        let mut modulo = ModuloMapper {
            cores: scenario.cluster().total_cores(),
        };
        let mut discipline = ImmediateDiscipline::new(&mut modulo);
        let modulo_arm = run_arm(
            "modulo (loop overhead)",
            &scenario,
            &mut discipline,
            bench_mode,
        );

        if !bench_mode {
            println!("BENCH_serve.json: ok (smoke, not written)");
            return;
        }
        let json = format!(
            "{{\n  \"units\": \"sustained throughput over one streamed trial\",\n  \
             \"stream\": {{\"source\": \"bursty (scaled paper pattern, cycled)\", \
             \"horizon\": \"rolling lookahead 8\", \"retention_flush_every\": 64}},\n  \
             \"serve\": [\n{},\n{}\n  ]\n}}\n",
            render(&scheduler_arm),
            render(&modulo_arm),
        );
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_serve.json"
        );
        std::fs::write(path, &json).expect("write BENCH_serve.json");
        println!("wrote {path}:\n{json}");
    }
}

criterion_group!(serve, bench_checkpoint_roundtrip);

fn main() {
    serve();
    serve_json::emit();
}
