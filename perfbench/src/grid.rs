//! `paper-grid`: the paper's own experiment through the classic engine.
//!
//! One trial of each heuristic {SQ, MECT, LL, Random} × filter chain
//! {none, en+rob} on the paper's scenario, each a fixed-window
//! `Simulation::run` under the paper's energy budget ζ_max. The scenario
//! (cluster, pmf table, budget) is `Scenario::paper(1353)`, the operating
//! point `results/` was produced at; the workload seed picks the trial,
//! i.e. the arrival trace and Random's stream. Drawing a new cluster per
//! seed instead would move the missed share from 0.25 to 0.47 between seeds
//! and bury every code change under the cluster's variance. Every cell
//! starts from an empty cluster, as in the paper, so there is no warm-up
//! to discard: the whole trial is the measured work.

use std::time::Instant;

use ecds_core::{FilterVariant, HeuristicKind};
use ecds_sim::{Scenario, Simulation, TrialResult};
use ecds_workload::WorkloadTrace;

use crate::layers::{per_layer, LayerInputs, PersistFigures, StatCounts};
use crate::probe::{MapperProbe, Recorder};
use crate::report::{median, metric, peak_rss_mb, percentile, ratio, Checks, Metric};
use crate::{Args, SETUP_PER_BREAK, SETUP_UPFRONT};

/// The eight cells, kind-major as in `results/grid.csv`.
const CELLS: [(HeuristicKind, FilterVariant); 8] = [
    (HeuristicKind::ShortestQueue, FilterVariant::None),
    (
        HeuristicKind::ShortestQueue,
        FilterVariant::EnergyAndRobustness,
    ),
    (HeuristicKind::Mect, FilterVariant::None),
    (HeuristicKind::Mect, FilterVariant::EnergyAndRobustness),
    (HeuristicKind::LightestLoad, FilterVariant::None),
    (
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
    ),
    (HeuristicKind::Random, FilterVariant::None),
    (HeuristicKind::Random, FilterVariant::EnergyAndRobustness),
];

/// Host seconds one pass over the grid takes on the reference host
/// (2 vCPUs). `--seconds` buys `round(seconds / GRID_SECONDS)` passes, at
/// least one, each over the next trial, so the work done is a function of
/// the arguments alone.
const GRID_SECONDS: f64 = 17.0;

/// The master seed of the paper's scenario, as in `results/grid.csv`.
const PAPER_SEED: u64 = 1353;

/// Trials `results/grid.csv` holds; those below it are checked against
/// their rows.
const GRID_CSV_TRIALS: u64 = 50;

pub fn config(args: &Args) -> String {
    let cells: Vec<String> = CELLS.iter().map(|(k, v)| format!("{k}/{v}")).collect();
    format!(
        "paper-grid scenario=Scenario::paper({PAPER_SEED}) trials={:?} cells=[{}]",
        trials(args),
        cells.join(","),
    )
}

/// The trials a run passes over: the seed's and the ones after it.
fn trials(args: &Args) -> Vec<u64> {
    let passes = ((args.seconds / GRID_SECONDS).round() as u64).max(1);
    (0..passes).map(|p| args.seed.wrapping_add(p)).collect()
}

struct Setup {
    scenario: Scenario,
    traces: Vec<(u64, WorkloadTrace)>,
}

/// Builds the scenario, each trial's trace and every cell's scheduler.
fn build(trials: &[u64]) -> Setup {
    let scenario = Scenario::paper(PAPER_SEED);
    let traces: Vec<(u64, WorkloadTrace)> = trials
        .iter()
        .map(|&trial| (trial, scenario.trace(trial)))
        .collect();
    let rec = Recorder::untraced(0);
    for &(trial, _) in &traces {
        for (kind, variant) in CELLS {
            std::hint::black_box(rec.scheduler(kind, variant, &scenario, trial));
        }
    }
    Setup { scenario, traces }
}

/// Every cell of every trial, trial-major.
struct Pass {
    results: Vec<TrialResult>,
    /// Host time inside `Simulation::run`, summed over cells.
    run_ns: u64,
}

/// Runs every cell; `on_break` runs after each, off the measured clock.
fn run_pass(setup: &Setup, rec: &Recorder, on_break: &mut dyn FnMut()) -> Pass {
    let mut results = Vec::with_capacity(CELLS.len() * setup.traces.len());
    let mut run_ns = 0;
    for (trial, trace) in &setup.traces {
        for (kind, variant) in CELLS {
            let mut scheduler = rec.scheduler(kind, variant, &setup.scenario, *trial);
            let mut mapper = MapperProbe::new(scheduler.as_mut(), rec, true);
            let sim = Simulation::new(&setup.scenario, trace);
            let start = Instant::now();
            let result = sim.run(&mut mapper);
            run_ns += start.elapsed().as_nanos() as u64;
            results.push(result);
            on_break();
        }
    }
    Pass { results, run_ns }
}

/// Bit-level identity of two trials: every outcome, the energy and the
/// mapper's counters.
fn same_trial(a: &TrialResult, b: &TrialResult) -> bool {
    a.outcomes() == b.outcomes()
        && a.total_energy().to_bits() == b.total_energy().to_bits()
        && a.telemetry().mapper == b.telemetry().mapper
}

/// `(missed, energy, discarded)` of one cell's row for `trial` in
/// `results/grid.csv`.
fn grid_csv_row(trial: u64, kind: HeuristicKind, variant: FilterVariant) -> Option<[String; 3]> {
    let text = std::fs::read_to_string("results/grid.csv").ok()?;
    let trial = trial.to_string();
    text.lines().skip(1).find_map(|line| {
        let f: Vec<&str> = line.split(',').collect();
        (f.len() == 6 && f[0] == kind.label() && f[1] == variant.label() && f[2] == trial)
            .then(|| [f[3].to_string(), f[4].to_string(), f[5].to_string()])
    })
}

/// The output checks every cell must meet.
fn check_pass(setup: &Setup, pass: &Pass, checks: &mut Checks) {
    let window = setup.scenario.workload().window;
    let cells = setup
        .traces
        .iter()
        .flat_map(|(trial, _)| CELLS.iter().map(move |cell| (*trial, cell)));
    for ((trial, (kind, variant)), result) in cells.zip(&pass.results) {
        let cell = format!("trial {trial} {kind}/{variant}");
        checks.expect(
            result.window() == window && result.outcomes().len() == window,
            &format!("{cell}: every task of the window was decided"),
        );
        checks.expect(
            result.missed() + result.completed() == window,
            &format!("{cell}: missed + completed = window"),
        );
        if *variant == FilterVariant::None {
            checks.expect(
                result.discarded() == 0,
                &format!("{cell}: no filter, no discard"),
            );
        }
        println!(
            "cell {cell} missed={} energy={:.3} discarded={}",
            result.missed(),
            result.total_energy(),
            result.discarded()
        );
        if trial < GRID_CSV_TRIALS {
            let got = [
                result.missed().to_string(),
                format!("{:.3}", result.total_energy()),
                result.discarded().to_string(),
            ];
            let want = grid_csv_row(trial, *kind, *variant);
            checks.expect(
                want.as_ref() == Some(&got),
                &format!(
                    "{cell}: (missed, energy, discarded) = {got:?} vs results/grid.csv {want:?}"
                ),
            );
        }
    }
}

pub fn run(args: &Args, checks: &mut Checks) -> (u64, Vec<Metric>) {
    let mut setup_s = Vec::new();
    let mut sample_setup = |n: usize| {
        for _ in 0..n {
            let start = Instant::now();
            std::hint::black_box(build(&trials(args)));
            setup_s.push(start.elapsed().as_secs_f64());
        }
    };
    sample_setup(SETUP_UPFRONT);
    let setup = build(&trials(args));
    let window = setup.scenario.workload().window as u64;
    let cells = CELLS.len() * setup.traces.len();

    let rec = Recorder::untraced(cells * window as usize);
    rec.set_recording(true);
    let pass = run_pass(&setup, &rec, &mut || sample_setup(SETUP_PER_BREAK));
    check_pass(&setup, &pass, checks);
    let decisions = rec.decisions();
    let decisions_per_s = decisions as f64 / (pass.run_ns as f64 / 1e9);

    if args.trace {
        let traced = Recorder::traced(cells * window as usize);
        traced.set_recording(true);
        // The workload layer's work on this path: generating the traces.
        let gen_start = Instant::now();
        let regenerated: Vec<WorkloadTrace> = setup
            .traces
            .iter()
            .map(|(trial, _)| setup.scenario.trace(*trial))
            .collect();
        let gen_ns = gen_start.elapsed().as_nanos() as u64;
        let traced_pass = run_pass(&setup, &traced, &mut || {});
        let traced_dps = traced.decisions() as f64 / (traced_pass.run_ns as f64 / 1e9);
        checks.expect(
            traced.path_mismatches() == 0,
            "every decorator reports its layer's supports_indexed",
        );
        checks.expect(
            pass.results
                .iter()
                .zip(&traced_pass.results)
                .all(|(a, b)| same_trial(a, b)),
            "traced outcomes and MapperStats equal the untraced run's",
        );
        let mut stats = StatCounts::default();
        let mut depth_sum = 0.0;
        let mut depth_n = 0usize;
        let mut events = 0u64;
        for r in &traced_pass.results {
            stats.add(&StatCounts::of(&r.telemetry().mapper));
            depth_sum += r.telemetry().queue_depth.iter().map(|s| s.1).sum::<f64>();
            depth_n += r.telemetry().queue_depth.len();
            let completions = r
                .outcomes()
                .iter()
                .filter(|o| o.completion.is_some())
                .count();
            events += (r.window() + completions) as u64;
        }
        let metrics = per_layer(&LayerInputs {
            totals: traced.totals(),
            stats,
            cores: setup.scenario.cluster().total_cores(),
            events,
            loop_ns: traced_pass.run_ns,
            pulls: regenerated.iter().map(|t| t.len() as u64).sum(),
            pull_ns: gen_ns,
            pulls_in_loop: false,
            queue_depth_mean: ratio(depth_sum, depth_n as f64),
            persist: PersistFigures::default(),
            dps_ratio: traced_dps / decisions_per_s,
        });
        return (decisions + traced.decisions(), metrics);
    }

    let mut lat = rec.take_latencies();
    lat.sort_unstable();
    let on_time: usize = pass.results.iter().map(|r| r.completed()).sum();
    let metrics = vec![
        metric("setup_s", median(&mut setup_s), "s"),
        metric("decisions_per_s", decisions_per_s, "1/s"),
        metric("decision_p50_us", percentile(&lat, 0.50) as f64 / 1e3, "us"),
        metric("decision_p99_us", percentile(&lat, 0.99) as f64 / 1e3, "us"),
        metric(
            "on_time_frac",
            on_time as f64 / (cells as u64 * window) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    println!("samples {} decisions", lat.len());
    (decisions, metrics)
}
