//! `serve-wide` and `serve-failover`: the streaming daemon on a 4,512-core
//! templated cluster.
//!
//! Both stream the bursty source through `ServeSession` with bounded
//! retention and map with LL, no filters. Bounded retention cannot honour
//! an energy budget, so both run `SimConfig::unconstrained()`; the energy
//! constraint is exercised by `paper-grid` alone. `serve-failover`
//! additionally checkpoints after every decision and, every
//! [`RESTORE_EVERY`]-th checkpoint, restores into a freshly built
//! scheduler, discipline and source and carries on.
//!
//! The cluster and pmf table are fixed (`Scenario::with_configs(1353, ..)`);
//! the workload seed picks the stream, i.e. the source's trial.
//!
//! The stream cycles the paper's burst/lull/burst pattern; the first
//! [`WARMUP_CYCLES`] whole cycles fill the cluster and are discarded, and
//! only whole cycles after them are measured.

use std::time::Instant;

use ecds_cluster::ClusterGenConfig;
use ecds_core::{FilterVariant, HeuristicKind};
use ecds_sim::{
    Discipline, ImmediateDiscipline, Scenario, ServeConfig, ServeSession, ServeSummary, SimConfig,
};
use ecds_workload::{
    ArrivalSource, BurstPattern, BurstyArrivalSource, WorkloadConfig, PAPER_REFERENCE_CORES,
};

use crate::layers::{per_layer, LayerInputs, PersistFigures, StatCounts};
use crate::probe::{MapperProbe, Recorder, SourceProbe, Totals};
use crate::report::{median, metric, peak_rss_mb, percentile, ratio, Checks, Metric};
use crate::{Args, SETUP_PER_BREAK, SETUP_UPFRONT};

const SCENARIO_SEED: u64 = 1353;
const NODES: usize = 768;
const TEMPLATES: usize = 8;
/// Arrivals per burst cycle (20% burst, 60% lull, 20% burst).
const CYCLE: u64 = 1_000;
/// The stream runs at 1/20 of `BurstPattern::scaled_to_cluster`'s rates:
/// at the full rates the backlog of this cluster grows without bound.
const RATE_DIVISOR: f64 = 20.0;
const WARMUP_CYCLES: u64 = 1;
const LOOKAHEAD: u64 = 8;
const FLUSH_EVERY: u64 = 64;
/// Checkpoints between two restores in `serve-failover`.
const RESTORE_EVERY: u64 = 8;
/// Host seconds one measured cycle of `serve-wide` and of `serve-failover`
/// takes on the reference host (2 vCPUs); `--seconds` buys
/// `round(seconds / cycle seconds)` measured cycles, at least two, so the
/// work done is a function of the arguments alone.
const CYCLE_SECONDS: [f64; 2] = [3.5, 6.0];
/// A backlog that grows by more than this share from the first measured
/// cycle to the last, through every cycle in between, fails the run.
const GROWTH_LIMIT: f64 = 0.25;

fn measured_cycles(args: &Args, failover: bool) -> u64 {
    let per_cycle = CYCLE_SECONDS[usize::from(failover)];
    ((args.seconds / per_cycle).round() as u64).max(2)
}

pub fn config(args: &Args, failover: bool) -> String {
    format!(
        "{} scenario_seed={SCENARIO_SEED} trial={} cluster={:?} workload={:?} rate_divisor={RATE_DIVISOR} cycle={CYCLE} \
         warmup_cycles={WARMUP_CYCLES} measured_cycles={} serve={:?} mapper=LL/none \
         checkpoint_every_decision={failover} restore_every={RESTORE_EVERY}",
        if failover {
            "serve-failover"
        } else {
            "serve-wide"
        },
        args.seed,
        ClusterGenConfig::scaled(NODES, TEMPLATES),
        WorkloadConfig::small_for_tests(),
        measured_cycles(args, failover),
        serve_config(arrivals(args, failover)),
    )
}

fn arrivals(args: &Args, failover: bool) -> u64 {
    (WARMUP_CYCLES + measured_cycles(args, failover)) * CYCLE
}

fn serve_config(arrivals: u64) -> ServeConfig {
    ServeConfig::streaming(LOOKAHEAD, FLUSH_EVERY, arrivals)
}

struct Setup {
    scenario: Scenario,
    pattern: BurstPattern,
    trial: u64,
}

impl Setup {
    fn new(trial: u64) -> Self {
        let scenario = Scenario::with_configs(
            SCENARIO_SEED,
            ClusterGenConfig::scaled(NODES, TEMPLATES),
            WorkloadConfig::small_for_tests(),
        )
        .with_sim_config(SimConfig::unconstrained());
        let factor = scenario.cluster().total_cores() as f64 / PAPER_REFERENCE_CORES as f64;
        let fast = ecds_workload::arrivals::LAMBDA_FAST * factor / RATE_DIVISOR;
        let slow = ecds_workload::arrivals::LAMBDA_SLOW * factor / RATE_DIVISOR;
        let pattern = BurstPattern::scaled_with_rates(CYCLE as usize, fast, slow);
        Self {
            scenario,
            pattern,
            trial,
        }
    }

    fn source(&self) -> BurstyArrivalSource {
        let s = &self.scenario;
        BurstyArrivalSource::new(
            self.pattern.clone(),
            s.workload(),
            s.table(),
            s.seeds(),
            self.trial,
        )
    }
}

/// Times one complete set-up: scenario, source, scheduler and an opened
/// session.
fn timed_setup(seed: u64, arrivals: u64) -> (f64, Setup) {
    let start = Instant::now();
    let setup = Setup::new(seed);
    {
        let s = &setup.scenario;
        let mut source = setup.source();
        let rec = Recorder::untraced(0);
        let mut scheduler = rec.scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::None,
            s,
            setup.trial,
        );
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let session = ServeSession::new(
            s.cluster(),
            s.table(),
            s.sim_config(),
            serve_config(arrivals),
            &mut source,
            &mut discipline,
        );
        std::hint::black_box(session.events_processed());
    }
    (start.elapsed().as_secs_f64(), setup)
}

/// One measured cycle's backlog.
#[derive(Debug, Clone, Copy)]
struct CycleStat {
    resident_end: usize,
    resident_mean: f64,
    resident_peak: usize,
    seconds: f64,
}

/// What one streamed run produced.
struct RunOut {
    summary: ServeSummary,
    stats: ecds_sim::MapperStats,
    /// Counter growth over the measured window.
    window: Totals,
    stats_window: StatCounts,
    /// Host time from the first measured decision to the drained queue,
    /// less the breaks between cycles.
    measured_ns: u64,
    /// Host time inside `ServeSession::step` over the same window.
    step_ns: u64,
    events_measured: u64,
    cycles: Vec<CycleStat>,
    /// `(retired, on_time)` at the start of the measured window.
    tally_start: (u64, u64),
    checkpoints: u64,
    restores: u64,
    restores_failed: u64,
    /// Per checkpoint and restore of the measured window.
    save_ns: Vec<u64>,
    restore_ns: Vec<u64>,
    checkpoint_bytes: Vec<u64>,
    /// Resident tasks at each measured checkpoint.
    checkpoint_resident: Vec<u64>,
}

/// Streams `arrivals` tasks; with `failover`, checkpoints after every
/// decision and restores into fresh collaborators every
/// [`RESTORE_EVERY`]-th checkpoint. `on_break` runs at every cycle
/// boundary, off the measured clock.
fn stream(
    setup: &Setup,
    arrivals: u64,
    failover: bool,
    rec: &Recorder,
    on_break: &mut dyn FnMut(),
) -> RunOut {
    let s = &setup.scenario;
    let mut out = RunOut {
        summary: ServeSummary {
            tally: Default::default(),
            fold: Default::default(),
            total_energy: 0.0,
            makespan: 0.0,
            events: 0,
            arrivals: 0,
        },
        stats: Default::default(),
        window: Totals::default(),
        stats_window: StatCounts::default(),
        measured_ns: 0,
        step_ns: 0,
        events_measured: 0,
        cycles: Vec::new(),
        tally_start: (0, 0),
        checkpoints: 0,
        restores: 0,
        restores_failed: 0,
        save_ns: Vec::new(),
        restore_ns: Vec::new(),
        checkpoint_bytes: Vec::new(),
        checkpoint_resident: Vec::new(),
    };
    let warmup = WARMUP_CYCLES * CYCLE;
    let mut carry: Option<Vec<u8>> = None;
    let mut measure_start: Option<(Instant, Totals, StatCounts)> = None;
    let mut cycle_start = (Instant::now(), rec.totals());
    let mut cycle_peak = 0usize;
    let mut paused_ns = 0;
    loop {
        let mut scheduler = rec.scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::None,
            s,
            setup.trial,
        );
        let mut bursty = setup.source();
        let mut probed;
        let source: &mut dyn ArrivalSource = if rec.is_traced() {
            probed = SourceProbe::new(&mut bursty, rec);
            &mut probed
        } else {
            &mut bursty
        };
        let mut mapper = MapperProbe::new(scheduler.as_mut(), rec, false);
        let mut discipline = ImmediateDiscipline::new(&mut mapper);
        let mut session = match carry.take() {
            None => ServeSession::new(
                s.cluster(),
                s.table(),
                s.sim_config(),
                serve_config(arrivals),
                source,
                &mut discipline,
            ),
            Some(bytes) => {
                let start = Instant::now();
                let restored = ServeSession::restore(
                    s.cluster(),
                    s.table(),
                    s.sim_config(),
                    &bytes,
                    source,
                    &mut discipline,
                );
                out.restores += 1;
                if measure_start.is_some() {
                    out.restore_ns.push(start.elapsed().as_nanos() as u64);
                }
                match restored {
                    Ok(session) => session,
                    Err(err) => {
                        println!("restore failed: {err:?}");
                        out.restores_failed += 1;
                        return out;
                    }
                }
            }
        };
        loop {
            let before = rec.decisions();
            let start = Instant::now();
            let more = session.step(source, &mut discipline);
            let step_ns = start.elapsed().as_nanos() as u64;
            if !more {
                break;
            }
            let resident = session.resident_tasks();
            rec.note_resident(resident as u64);
            cycle_peak = cycle_peak.max(resident);
            if measure_start.is_some() {
                out.step_ns += step_ns;
                out.events_measured += 1;
            }
            let decided = rec.decisions();
            if decided == before {
                continue;
            }
            if decided.is_multiple_of(CYCLE) {
                let totals = rec.totals();
                let d = totals.since(&cycle_start.1);
                if decided > warmup {
                    out.cycles.push(CycleStat {
                        resident_end: resident,
                        resident_mean: ratio(d.resident_sum as f64, d.resident_samples as f64),
                        resident_peak: cycle_peak,
                        seconds: cycle_start.0.elapsed().as_secs_f64(),
                    });
                }
                let paused = Instant::now();
                on_break();
                if measure_start.is_some() {
                    paused_ns += paused.elapsed().as_nanos() as u64;
                }
                if decided == warmup {
                    rec.set_recording(true);
                    let tally = session.tally();
                    out.tally_start = (tally.retired, tally.on_time);
                    let stats = StatCounts::of(&discipline.stats());
                    measure_start = Some((Instant::now(), totals, stats));
                }
                cycle_start = (Instant::now(), totals);
                cycle_peak = 0;
            }
            if failover {
                let start = Instant::now();
                let bytes = session.checkpoint(&*source, &discipline);
                let save_ns = start.elapsed().as_nanos() as u64;
                if measure_start.is_some() {
                    out.save_ns.push(save_ns);
                    out.checkpoint_bytes.push(bytes.len() as u64);
                    out.checkpoint_resident.push(resident as u64);
                }
                out.checkpoints += 1;
                if out.checkpoints.is_multiple_of(RESTORE_EVERY) {
                    carry = Some(bytes);
                    break;
                }
            }
        }
        if carry.is_none() {
            out.stats = discipline.stats();
            out.summary = session.finish_summary(&discipline);
            break;
        }
    }
    if let Some((start, totals, stats)) = measure_start {
        out.measured_ns = start.elapsed().as_nanos() as u64 - paused_ns;
        out.window = rec.totals().since(&totals);
        out.stats_window = StatCounts::of(&out.stats).since(&stats);
    }
    out
}

/// Bit-level identity of two streamed summaries.
fn same_summary(a: &ServeSummary, b: &ServeSummary) -> bool {
    a == b
        && a.total_energy.to_bits() == b.total_energy.to_bits()
        && a.makespan.to_bits() == b.makespan.to_bits()
}

fn check_run(out: &RunOut, arrivals: u64, label: &str, checks: &mut Checks) {
    checks.expect(
        out.restores_failed == 0,
        &format!("{label}: every restore succeeds"),
    );
    checks.expect(
        out.summary.arrivals == arrivals && out.summary.tally.retired == arrivals,
        &format!(
            "{label}: pulled {} and retired {} of the {arrivals} arrivals requested",
            out.summary.arrivals, out.summary.tally.retired
        ),
    );
}

/// Fails a backlog that grows through every measured cycle and ends more
/// than [`GROWTH_LIMIT`] above where it started.
fn check_steady(cycles: &[CycleStat], checks: &mut Checks) {
    for (i, c) in cycles.iter().enumerate() {
        println!(
            "cycle {} resident_end={} resident_mean={:.1} resident_peak={} seconds={:.3}",
            i + 1,
            c.resident_end,
            c.resident_mean,
            c.resident_peak,
            c.seconds
        );
    }
    let means: Vec<f64> = cycles.iter().map(|c| c.resident_mean).collect();
    let growing = means.len() >= 2
        && means.windows(2).all(|w| w[1] > w[0])
        && means[means.len() - 1] > means[0] * (1.0 + GROWTH_LIMIT);
    checks.expect(
        !growing,
        &format!("backlog does not grow cycle over cycle (per-cycle mean resident {means:?})"),
    );
}

pub fn run(args: &Args, failover: bool, checks: &mut Checks) -> (u64, Vec<Metric>) {
    let arrivals = arrivals(args, failover);
    let mut setup_s = Vec::new();
    let mut sample_setup = |n: usize| {
        for _ in 0..n {
            setup_s.push(timed_setup(args.seed, arrivals).0);
        }
    };
    sample_setup(SETUP_UPFRONT);
    let setup = Setup::new(args.seed);
    let label = if failover {
        "serve-failover"
    } else {
        "serve-wide"
    };

    let rec = Recorder::untraced(arrivals as usize);
    let out = stream(&setup, arrivals, failover, &rec, &mut || {
        sample_setup(SETUP_PER_BREAK)
    });
    check_run(&out, arrivals, label, checks);
    check_steady(&out.cycles, checks);
    let mut attempted = arrivals + out.checkpoints + out.restores;
    let decisions_per_s = out.window.decisions as f64 / (out.measured_ns as f64 / 1e9);

    if failover {
        let reference = stream(&setup, arrivals, false, &Recorder::untraced(0), &mut || {});
        checks.expect(
            same_summary(&out.summary, &reference.summary),
            "serve-failover's final ServeSummary equals the uninterrupted run's",
        );
        println!(
            "checkpoints {} restores {} (uninterrupted reference run matched: {})",
            out.checkpoints,
            out.restores,
            same_summary(&out.summary, &reference.summary)
        );
    }

    if args.trace {
        let traced = Recorder::traced(arrivals as usize);
        let t = stream(&setup, arrivals, failover, &traced, &mut || {});
        attempted += arrivals + t.checkpoints + t.restores;
        check_run(&t, arrivals, label, checks);
        checks.expect(
            traced.path_mismatches() == 0,
            "every decorator reports its layer's supports_indexed",
        );
        checks.expect(
            same_summary(&t.summary, &out.summary) && t.stats == out.stats,
            "traced ServeSummary and MapperStats equal the untraced run's",
        );
        let traced_dps = t.window.decisions as f64 / (t.measured_ns as f64 / 1e9);
        let persist = if failover {
            let mut save: Vec<f64> = t.save_ns.iter().map(|&n| n as f64).collect();
            let mut restore: Vec<f64> = t.restore_ns.iter().map(|&n| n as f64).collect();
            let bytes: u64 = t.checkpoint_bytes.iter().sum();
            let resident: u64 = t.checkpoint_resident.iter().sum();
            PersistFigures {
                save_p50_ns: median(&mut save),
                restore_p50_ns: median(&mut restore),
                bytes_mean: ratio(bytes as f64, t.checkpoint_bytes.len() as f64),
                bytes_per_resident_task: ratio(bytes as f64, resident as f64),
            }
        } else {
            PersistFigures::default()
        };
        let metrics = per_layer(&LayerInputs {
            totals: t.window,
            stats: t.stats_window,
            cores: setup.scenario.cluster().total_cores(),
            events: t.events_measured,
            loop_ns: t.step_ns,
            pulls: t.window.pulls,
            pull_ns: t.window.pull_ns,
            pulls_in_loop: true,
            queue_depth_mean: t.summary.fold.mean_queue_depth().unwrap_or(0.0),
            persist,
            dps_ratio: traced_dps / decisions_per_s,
        });
        return (attempted, metrics);
    }

    let mut lat = rec.take_latencies();
    lat.sort_unstable();
    let retired = out.summary.tally.retired - out.tally_start.0;
    let on_time = out.summary.tally.on_time - out.tally_start.1;
    println!(
        "samples {} decisions over {} measured cycles",
        lat.len(),
        out.cycles.len()
    );
    let metrics = vec![
        metric("setup_s", median(&mut setup_s), "s"),
        metric("decisions_per_s", decisions_per_s, "1/s"),
        metric("decision_p50_us", percentile(&lat, 0.50) as f64 / 1e3, "us"),
        metric("decision_p99_us", percentile(&lat, 0.99) as f64 / 1e3, "us"),
        metric(
            "on_time_frac",
            ratio(on_time as f64, retired as f64),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    (attempted, metrics)
}
