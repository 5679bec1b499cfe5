//! The per-layer table of a traced run.
//!
//! Every number is measured from outside the library: host time from the
//! decorators' spans, work counts from the decorators and from the public
//! `MapperStats`. A layer's self time is its span minus the spans of the
//! layers it calls (the evaluator's is `assign - filters - heuristic`).

use ecds_cluster::NUM_PSTATES;
use ecds_sim::MapperStats;

use crate::probe::Totals;
use crate::report::{metric, ratio, Metric};

/// `MapperStats` as plain counters, so a measured window is a difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatCounts {
    pub prefix_hits: u64,
    pub prefix_misses: u64,
    pub kernel_calls: u64,
    pub classes: u64,
    pub class_events: u64,
    pub skipped: u64,
}

impl StatCounts {
    pub fn of(s: &MapperStats) -> Self {
        let (classes, class_events) = s.candidate_classes.unwrap_or((0, 0));
        Self {
            prefix_hits: s.prefix_cache_hits(),
            prefix_misses: s.prefix_cache_misses(),
            kernel_calls: s.fused_kernel_calls,
            classes,
            class_events,
            skipped: s.dedup_skipped_evaluations,
        }
    }

    pub fn since(&self, start: &StatCounts) -> Self {
        Self {
            prefix_hits: self.prefix_hits - start.prefix_hits,
            prefix_misses: self.prefix_misses - start.prefix_misses,
            kernel_calls: self.kernel_calls - start.kernel_calls,
            classes: self.classes - start.classes,
            class_events: self.class_events - start.class_events,
            skipped: self.skipped - start.skipped,
        }
    }

    pub fn add(&mut self, other: &StatCounts) {
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.kernel_calls += other.kernel_calls;
        self.classes += other.classes;
        self.class_events += other.class_events;
        self.skipped += other.skipped;
    }
}

/// Checkpoint codec figures of a traced serve-failover run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistFigures {
    pub save_p50_ns: f64,
    pub restore_p50_ns: f64,
    pub bytes_mean: f64,
    pub bytes_per_resident_task: f64,
}

/// Everything a traced run measured over its measured window.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    pub totals: Totals,
    pub stats: StatCounts,
    pub cores: usize,
    /// Engine events processed.
    pub events: u64,
    /// Host time inside `Simulation::run` / `ServeSession::step`.
    pub loop_ns: u64,
    /// Tasks the workload layer produced and the host time it took: source
    /// pulls for the serve loop, trace generation for the paper grid.
    pub pulls: u64,
    pub pull_ns: u64,
    /// Whether those pulls ran inside `loop_ns` (serve) or before it (grid).
    pub pulls_in_loop: bool,
    /// Mean per-core queue depth over arrivals (engine telemetry).
    pub queue_depth_mean: f64,
    pub persist: PersistFigures,
    /// Traced `decisions_per_s` over the untraced run's.
    pub dps_ratio: f64,
}

/// Prints the per-layer table with every ratio's base and returns the
/// metrics in `BENCHMARK.json`'s order.
pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let t = &x.totals;
    let s = &x.stats;
    let decisions = t.decisions as f64;
    let heuristic_calls = t.heuristic_scan_calls + t.heuristic_indexed_calls;
    let evaluator_ns = t
        .assign_ns
        .saturating_sub(t.filters_ns())
        .saturating_sub(t.heuristic_ns) as f64;
    let pairs = decisions * (x.cores * NUM_PSTATES) as f64;
    let lookups = s.prefix_hits + s.prefix_misses;
    let in_loop_pull_ns = if x.pulls_in_loop { x.pull_ns } else { 0 };
    let sim_self_ns = x
        .loop_ns
        .saturating_sub(t.assign_ns)
        .saturating_sub(in_loop_pull_ns) as f64;

    println!("layer table (measured window; base in brackets)");
    let rows: [(&str, String); 12] = [
        (
            "decisions",
            format!("{} [{} discarded]", t.decisions, t.discarded),
        ),
        (
            "evaluator",
            format!(
                "{:.1} ms self [{} classes / {} class events; {} skipped / {pairs:.0} pairs]",
                evaluator_ns / 1e6,
                s.classes,
                s.class_events,
                s.skipped
            ),
        ),
        (
            "prefix cache",
            format!("[{} hits / {lookups} lookups]", s.prefix_hits),
        ),
        (
            "pmf kernel",
            format!("[{} calls / {} decisions]", s.kernel_calls, t.decisions),
        ),
        (
            "heuristic",
            format!(
                "{:.1} ms [{} indexed + {} full-scan calls]",
                t.heuristic_ns as f64 / 1e6,
                t.heuristic_indexed_calls,
                t.heuristic_scan_calls
            ),
        ),
        (
            "filter en",
            format!(
                "{:.1} ms [{} calls; {} kept / {} pairs]",
                t.filter_ns[0] as f64 / 1e6,
                t.filter_calls[0],
                t.filter_kept[0],
                t.filter_considered[0]
            ),
        ),
        (
            "filter rob",
            format!(
                "{:.1} ms [{} calls; {} kept / {} pairs]",
                t.filter_ns[1] as f64 / 1e6,
                t.filter_calls[1],
                t.filter_kept[1],
                t.filter_considered[1]
            ),
        ),
        (
            "sim",
            format!(
                "{:.1} ms self [{} events / {} decisions]",
                sim_self_ns / 1e6,
                x.events,
                t.decisions
            ),
        ),
        (
            "resident",
            format!(
                "[{} summed / {} samples; peak {}]",
                t.resident_sum, t.resident_samples, t.resident_peak
            ),
        ),
        (
            "source",
            format!("{:.1} ms [{} pulls]", x.pull_ns as f64 / 1e6, x.pulls),
        ),
        (
            "persist",
            format!(
                "save p50 {:.1} us, restore p50 {:.1} us, {:.0} B mean",
                x.persist.save_p50_ns / 1e3,
                x.persist.restore_p50_ns / 1e3,
                x.persist.bytes_mean
            ),
        ),
        (
            "tracing overhead",
            format!("traced/untraced decisions_per_s = {:.4}", x.dps_ratio),
        ),
    ];
    for (layer, text) in rows {
        println!("  {layer:<17} {text}");
    }

    vec![
        metric(
            "core.evaluator.self_us_per_decision",
            ratio(evaluator_ns / 1e3, decisions),
            "us",
        ),
        metric(
            "core.evaluator.classes_per_decision",
            ratio(s.classes as f64, s.class_events as f64),
            "count",
        ),
        metric(
            "core.evaluator.skipped_frac",
            ratio(s.skipped as f64, pairs),
            "ratio",
        ),
        metric(
            "core.evaluator.prefix_hit_ratio",
            ratio(s.prefix_hits as f64, lookups as f64),
            "ratio",
        ),
        metric(
            "core.evaluator.indexed_frac",
            ratio(t.heuristic_indexed_calls as f64, heuristic_calls as f64),
            "ratio",
        ),
        metric(
            "pmf.kernel_calls_per_decision",
            ratio(s.kernel_calls as f64, decisions),
            "count",
        ),
        metric(
            "pmf.evaluator_ns_per_kernel_call",
            ratio(evaluator_ns, s.kernel_calls as f64),
            "ns",
        ),
        metric(
            "core.filters.en.us_per_call",
            ratio(t.filter_ns[0] as f64 / 1e3, t.filter_calls[0] as f64),
            "us",
        ),
        metric(
            "core.filters.rob.us_per_call",
            ratio(t.filter_ns[1] as f64 / 1e3, t.filter_calls[1] as f64),
            "us",
        ),
        metric(
            "core.filters.en.kept_frac",
            ratio(t.filter_kept[0] as f64, t.filter_considered[0] as f64),
            "ratio",
        ),
        metric(
            "core.filters.rob.kept_frac",
            ratio(t.filter_kept[1] as f64, t.filter_considered[1] as f64),
            "ratio",
        ),
        metric(
            "core.discard_frac",
            ratio(t.discarded as f64, decisions),
            "ratio",
        ),
        metric(
            "core.heuristic.us_per_call",
            ratio(t.heuristic_ns as f64 / 1e3, heuristic_calls as f64),
            "us",
        ),
        metric(
            "core.heuristic.indexed_calls",
            t.heuristic_indexed_calls as f64,
            "count",
        ),
        metric(
            "sim.events_per_decision",
            ratio(x.events as f64, decisions),
            "count",
        ),
        metric(
            "sim.self_us_per_event",
            ratio(sim_self_ns / 1e3, x.events as f64),
            "us",
        ),
        metric(
            "sim.resident_mean",
            ratio(t.resident_sum as f64, t.resident_samples as f64),
            "count",
        ),
        metric("sim.resident_peak", t.resident_peak as f64, "count"),
        metric("sim.queue_depth_mean", x.queue_depth_mean, "count"),
        metric(
            "workload.next_task_ns",
            ratio(x.pull_ns as f64, x.pulls as f64),
            "ns",
        ),
        metric("workload.pulls", x.pulls as f64, "count"),
        metric("persist.save_us", x.persist.save_p50_ns / 1e3, "us"),
        metric("persist.restore_us", x.persist.restore_p50_ns / 1e3, "us"),
        metric("persist.bytes", x.persist.bytes_mean, "B"),
        metric(
            "persist.bytes_per_resident_task",
            x.persist.bytes_per_resident_task,
            "B",
        ),
        metric("trace.dps_ratio", x.dps_ratio, "ratio"),
    ]
}
