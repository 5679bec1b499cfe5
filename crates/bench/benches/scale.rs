//! The mega-scale scaling study: sustained decisions/sec and
//! missed-deadline rate of the shard-indexed LL scheduler as the cluster
//! grows 40 → 40,000 cores, with the arrival rate λ scaled so every size
//! sees the paper's subscription level. Feeds
//! `results/BENCH_scale.json`.
//!
//! Per-arrival decision cost on the indexed path is O(active classes +
//! log cores), not O(cores × P-states): idle cores collapse to one class
//! per node template, so a lightly loaded mega-cluster decides nearly as
//! fast as the paper cluster, while a saturated one pays for its busy
//! cores only. The three sizes chart exactly that transition.
//!
//! In smoke mode (no `--bench` flag, i.e. `cargo test --benches`) each
//! size streams a short prefix once so the path can't bit-rot, but no
//! file is written.

use std::hint::black_box;
use std::time::Instant;

use ecds_cluster::ClusterGenConfig;
use ecds_core::{build_scheduler, FilterVariant, HeuristicKind};
use ecds_sim::{ImmediateDiscipline, Scenario, ServeConfig, ServeSession, SimConfig};
use ecds_workload::{BurstPattern, BurstyArrivalSource, WorkloadConfig};

/// One cluster size of the study: `nodes` templated nodes (8 templates,
/// ≈6.25 cores/node expected) streaming `arrivals` tasks in bench mode.
struct Size {
    label: &'static str,
    nodes: usize,
    arrivals: u64,
    smoke_arrivals: u64,
}

/// 40 → 40,000 cores in decade steps. Arrival counts shrink with size so
/// every arm's wall clock stays in the tens of seconds: the largest
/// cluster's per-decision cost is dominated by its (busy) active classes.
const SIZES: [Size; 3] = [
    Size {
        label: "paper-scale",
        nodes: 8,
        arrivals: 20_000,
        smoke_arrivals: 400,
    },
    Size {
        label: "mid-scale",
        nodes: 768,
        arrivals: 2_000,
        smoke_arrivals: 60,
    },
    Size {
        label: "mega-scale",
        nodes: 6_400,
        arrivals: 1_000,
        smoke_arrivals: 20,
    },
];

struct Arm {
    label: &'static str,
    nodes: usize,
    total_cores: usize,
    arrivals: u64,
    decisions_per_sec: f64,
    events_per_sec: f64,
    elapsed_s: f64,
    missed_deadline_rate: f64,
    discard_rate: f64,
    peak_resident_tasks: usize,
}

// Bench harness: timing is the point (clippy.toml bans the wall clock).
#[allow(clippy::disallowed_methods)]
fn run_size(size: &Size, bench_mode: bool) -> Arm {
    // Bounded retention forbids an energy budget, so the scaling scenario
    // lifts it; the λ-scaled bursty source keeps the subscription level at
    // the paper's regardless of cluster size.
    let scenario = Scenario::with_configs(
        7,
        ClusterGenConfig::scaled(size.nodes, 8),
        WorkloadConfig::small_for_tests(),
    )
    .with_sim_config(SimConfig::unconstrained());
    let total_cores = scenario.cluster().total_cores();
    let pattern = BurstPattern::scaled_to_cluster(1_000, total_cores);
    let mut source = BurstyArrivalSource::new(
        pattern,
        scenario.workload(),
        scenario.table(),
        scenario.seeds(),
        0,
    );
    let mut scheduler = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let arrivals = if bench_mode {
        size.arrivals
    } else {
        size.smoke_arrivals
    };

    let start = Instant::now();
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        ServeConfig::streaming(8, 64, arrivals),
        &mut source,
        &mut discipline,
    );
    let mut peak_resident = 0;
    while session.step(&mut source, &mut discipline) {
        peak_resident = peak_resident.max(session.resident_tasks());
    }
    let events = session.events_processed();
    let summary = session.finish_summary(&discipline);
    let elapsed = start.elapsed().as_secs_f64();

    assert_eq!(summary.arrivals, arrivals);
    let completed = summary.tally.completed.max(1);
    Arm {
        label: size.label,
        nodes: size.nodes,
        total_cores,
        arrivals,
        decisions_per_sec: arrivals as f64 / elapsed,
        events_per_sec: events as f64 / elapsed,
        elapsed_s: elapsed,
        missed_deadline_rate: 1.0 - summary.tally.on_time as f64 / completed as f64,
        discard_rate: summary.tally.discarded as f64 / summary.tally.retired.max(1) as f64,
        peak_resident_tasks: peak_resident,
    }
}

fn render(arm: &Arm) -> String {
    format!(
        "    {{\"size\": \"{}\", \"nodes\": {}, \"total_cores\": {}, \"arrivals\": {}, \
         \"decisions_per_sec\": {:.1}, \"events_per_sec\": {:.1}, \"elapsed_s\": {:.3}, \
         \"missed_deadline_rate\": {:.4}, \"discard_rate\": {:.4}, \
         \"peak_resident_tasks\": {}}}",
        arm.label,
        arm.nodes,
        arm.total_cores,
        arm.arrivals,
        arm.decisions_per_sec,
        arm.events_per_sec,
        arm.elapsed_s,
        arm.missed_deadline_rate,
        arm.discard_rate,
        arm.peak_resident_tasks,
    )
}

fn main() {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let arms: Vec<Arm> = SIZES
        .iter()
        .map(|size| black_box(run_size(size, bench_mode)))
        .collect();

    if !bench_mode {
        println!("BENCH_scale.json: ok (smoke, not written)");
        return;
    }
    let body: Vec<String> = arms.iter().map(render).collect();
    let json = format!(
        "{{\n  \"units\": \"sustained serve throughput, one streamed trial per cluster size\",\n  \
         \"scheduler\": \"lightest-load, shard-indexed evaluator (default)\",\n  \
         \"stream\": {{\"source\": \"bursty, rates scaled to cluster size\", \
         \"horizon\": \"rolling lookahead 8\", \"retention_flush_every\": 64}},\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_scale.json"
    );
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}:\n{json}");
}
