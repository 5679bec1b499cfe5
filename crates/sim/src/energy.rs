//! Energy accounting per the paper's Eqs. 1–2.
//!
//! Each core's consumption is fully determined by its list of P-state
//! transitions ν(i,j,k): between consecutive transitions the core draws the
//! constant power μ(i, π) of its current state, so core energy is
//! `η(i,j,k) = Σ μ(i, pstate(ν_n)) × Δt_n` (Eq. 1), and cluster energy is
//! `ζ = Σ η(i,j,k) / ε(i)` (Eq. 2 — supply losses).
//!
//! Because total cluster power is piecewise constant between transitions,
//! the instant cumulative energy crosses a budget is computed *exactly* by
//! walking the merged transition timeline — no numerical integration.

use ecds_cluster::{Cluster, PState};
use ecds_pmf::Time;

/// One core's P-state transition log.
///
/// The first entry is the mandatory transition at workload start; the log is
/// closed by [`TransitionLog::finalize`] at workload end (the paper assumes
/// "each core makes at least two P-state transitions, one at the start of
/// workload execution and one at the end").
///
/// ```
/// use ecds_cluster::PState;
/// use ecds_sim::TransitionLog;
///
/// // A core parked at P4 (20 W) runs one task at P0 (100 W) from t=5 to
/// // the workload end at t=8: Eq. 1 gives 5·20 + 3·100 = 400.
/// let mut log = TransitionLog::new(0.0, PState::P4);
/// log.record(5.0, PState::P0);
/// log.finalize(8.0);
/// let watts = |s: PState| if s == PState::P0 { 100.0 } else { 20.0 };
/// assert_eq!(log.core_energy(watts), 400.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionLog {
    /// Energy of transitions already folded away by
    /// `TransitionLog::compact`, accumulated in the same left-to-right
    /// `+=` order [`TransitionLog::core_energy`] would have used, so
    /// compaction never changes the final sum's bit pattern.
    folded: f64,
    /// `(time, state entered)`, strictly ordered by time; consecutive
    /// entries always change state (same-state records are coalesced).
    entries: Vec<(Time, PState)>,
    end: Option<Time>,
}

impl TransitionLog {
    /// Opens the log with the initial state at `start` (usually 0).
    pub fn new(start: Time, initial: PState) -> Self {
        assert!(start.is_finite(), "start time must be finite");
        Self {
            folded: 0.0,
            entries: vec![(start, initial)],
            end: None,
        }
    }

    /// Rebuilds a log from checkpointed parts (associated constructor for
    /// the restore path).
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty (a log always holds the transition
    /// at workload start).
    pub(crate) fn from_checkpoint_parts(
        folded: f64,
        entries: Vec<(Time, PState)>,
        end: Option<Time>,
    ) -> Self {
        assert!(!entries.is_empty(), "log never empty");
        Self {
            folded,
            entries,
            end,
        }
    }

    /// Energy already folded out of the entry list by
    /// `TransitionLog::compact` (zero until the first compaction).
    pub fn folded(&self) -> f64 {
        self.folded
    }

    /// Folds every completed segment into [`TransitionLog::folded`] and
    /// drops all entries but the last, bounding the log's memory by the
    /// transition rate between compactions instead of the run length.
    ///
    /// The fold performs exactly the `+=` sequence
    /// [`TransitionLog::core_energy`] would have performed over the
    /// dropped prefix, so the eventual total is bit-identical to an
    /// uncompacted run. Only valid before [`TransitionLog::finalize`];
    /// note [`EnergyAccountant::power_timeline`] and
    /// [`EnergyAccountant::exhaustion_time`] only see transitions that
    /// survive compaction, so compacting callers must not rely on them.
    pub(crate) fn compact(&mut self, watts: impl Fn(PState) -> f64) {
        assert!(self.end.is_none(), "cannot compact a finalized log");
        for w in self.entries.windows(2) {
            let (t0, s0) = w[0];
            let (t1, _) = w[1];
            self.folded += watts(s0) * (t1 - t0);
        }
        #[expect(
            clippy::expect_used,
            reason = "TransitionLog::new seeds entries with the initial state and nothing ever removes entries; last() is always Some"
        )]
        let last = *self.entries.last().expect("log never empty");
        self.entries.clear();
        self.entries.push(last);
    }

    /// Records a transition to `state` at `time`. Out-of-order records are
    /// rejected; re-entering the current state is a no-op (the core never
    /// physically transitioned).
    pub fn record(&mut self, time: Time, state: PState) {
        assert!(self.end.is_none(), "log already finalized");
        #[expect(
            clippy::expect_used,
            reason = "TransitionLog::new seeds entries with the initial state and nothing ever removes entries; last() is always Some"
        )]
        let (last_t, last_s) = *self.entries.last().expect("log never empty");
        assert!(
            time >= last_t,
            "transitions must be recorded in time order ({time} < {last_t})"
        );
        if state != last_s {
            self.entries.push((time, state));
        }
    }

    /// Closes the log at `end` (the workload-end transition).
    pub fn finalize(&mut self, end: Time) {
        assert!(self.end.is_none(), "log already finalized");
        #[expect(
            clippy::expect_used,
            reason = "TransitionLog::new seeds entries with the initial state and nothing ever removes entries; last() is always Some"
        )]
        let (last_t, _) = *self.entries.last().expect("log never empty");
        assert!(end >= last_t, "end must not precede the last transition");
        self.end = Some(end);
    }

    /// The transitions recorded so far.
    pub fn entries(&self) -> &[(Time, PState)] {
        &self.entries
    }

    /// Whether [`TransitionLog::finalize`] has been called.
    pub fn is_finalized(&self) -> bool {
        self.end.is_some()
    }

    /// The workload-end time, once finalized.
    pub fn end_time(&self) -> Option<Time> {
        self.end
    }

    /// Eq. 1: this core's internal (pre-supply-loss) energy, given its
    /// node's per-state power `watts`.
    ///
    /// # Panics
    ///
    /// Panics when the log is not finalized.
    pub fn core_energy(&self, watts: impl Fn(PState) -> f64) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract (`# Panics` on core_energy): integrating an unfinalized log is a caller bug"
        )]
        let end = self.end.expect("finalize the log before integrating");
        // `folded` is 0.0 unless compaction ran, so the uncompacted f64 op
        // sequence is unchanged.
        let mut total = self.folded;
        for w in self.entries.windows(2) {
            let (t0, s0) = w[0];
            let (t1, _) = w[1];
            total += watts(s0) * (t1 - t0);
        }
        #[expect(
            clippy::expect_used,
            reason = "TransitionLog::new seeds entries with the initial state and nothing ever removes entries; last() is always Some"
        )]
        let (t_last, s_last) = *self.entries.last().expect("log never empty");
        total += watts(s_last) * (end - t_last);
        total
    }
}

/// Cluster-wide energy accountant: one [`TransitionLog`] per core (flat
/// indexing matching [`Cluster::cores`]).
#[derive(Debug, Clone)]
pub struct EnergyAccountant {
    logs: Vec<TransitionLog>,
}

impl EnergyAccountant {
    /// Opens one log per core of `cluster`, all starting at `start` in
    /// `initial`.
    pub fn new(cluster: &Cluster, start: Time, initial: PState) -> Self {
        Self {
            logs: (0..cluster.total_cores())
                .map(|_| TransitionLog::new(start, initial))
                .collect(),
        }
    }

    /// Rebuilds an accountant from checkpointed per-core logs (associated
    /// constructor for the restore path).
    pub(crate) fn from_logs(logs: Vec<TransitionLog>) -> Self {
        Self { logs }
    }

    /// Records a transition on the core with flat index `core`.
    pub fn record(&mut self, core: usize, time: Time, state: PState) {
        self.logs[core].record(time, state);
    }

    /// Compacts every core's log (see `TransitionLog::compact`),
    /// bounding accountant memory for long-running serving loops. Total
    /// energy stays bit-identical; the power timeline and exhaustion
    /// query lose the folded prefix, so compaction is only used on the
    /// unconstrained serving path.
    pub(crate) fn compact(&mut self, cluster: &Cluster) {
        for (core, log) in self.logs.iter_mut().enumerate() {
            let node = cluster.node_of(cluster.core(core));
            log.compact(|s| node.power.watts(s));
        }
    }

    /// Closes every log at `end`.
    pub fn finalize(&mut self, end: Time) {
        for log in &mut self.logs {
            log.finalize(end);
        }
    }

    /// Access to a core's log.
    pub fn log(&self, core: usize) -> &TransitionLog {
        &self.logs[core]
    }

    /// Eq. 2: total wall energy `ζ` of the cluster (supply losses applied
    /// per node).
    pub fn total_energy(&self, cluster: &Cluster) -> f64 {
        self.logs
            .iter()
            .zip(cluster.cores())
            .map(|(log, core)| {
                let node = cluster.node_of(*core);
                log.core_energy(|s| node.power.watts(s)) / node.efficiency
            })
            .sum()
    }

    /// The total cluster wall-power timeline: `(time, watts)` pairs where
    /// `watts` is the piecewise-constant power drawn from each `time` until
    /// the next entry (the last entry holds until workload end). Requires
    /// finalized logs.
    pub fn power_timeline(&self, cluster: &Cluster) -> Vec<(Time, f64)> {
        let mut changes: Vec<(Time, usize, PState)> = Vec::new();
        for (core, log) in self.logs.iter().enumerate() {
            assert!(log.is_finalized(), "finalize before querying the timeline");
            for &(time, state) in log.entries() {
                changes.push((time, core, state));
            }
        }
        changes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut per_core = vec![0.0f64; self.logs.len()];
        let mut total = 0.0f64;
        let mut out: Vec<(Time, f64)> = Vec::new();
        let mut idx = 0;
        while idx < changes.len() {
            let t = changes[idx].0;
            #[expect(
                clippy::float_cmp,
                reason = "groups transitions recorded at one instant: t is copied from a stored transition time, so this is bit equality of stored times, not a tolerance check"
            )]
            while idx < changes.len() && changes[idx].0 == t {
                let (_, core, state) = changes[idx];
                let node = cluster.node_of(cluster.core(core));
                total -= per_core[core];
                per_core[core] = node.power.watts(state) / node.efficiency;
                total += per_core[core];
                idx += 1;
            }
            #[expect(
                clippy::float_cmp,
                reason = "merges a timeline point into the previous one only when both carry the same stored transition time; distinct recorded times stay distinct points"
            )]
            match out.last_mut() {
                Some(last) if last.0 == t => last.1 = total,
                _ => out.push((t, total)),
            }
        }
        out
    }

    /// The exact instant cumulative wall energy reaches `budget`, or `None`
    /// if the budget outlasts the workload.
    ///
    /// Walks the merged transition timeline maintaining total cluster wall
    /// power (piecewise constant), so the crossing point is solved in closed
    /// form within the segment where it occurs.
    pub fn exhaustion_time(&self, cluster: &Cluster, budget: f64) -> Option<Time> {
        assert!(budget >= 0.0, "budget must be non-negative");
        // Merge per-core transitions into one ordered change list.
        #[derive(Clone, Copy)]
        struct Change {
            time: Time,
            core: usize,
            state: PState,
        }
        let mut changes: Vec<Change> = Vec::new();
        let mut end_time: Time = f64::NEG_INFINITY;
        for (core, log) in self.logs.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "documented panic contract: exhaustion_time requires finalize(); querying earlier is a caller bug"
            )]
            let end = log
                .end
                .expect("finalize the accountant before querying exhaustion");
            end_time = end_time.max(end);
            for &(time, state) in log.entries() {
                changes.push(Change { time, core, state });
            }
        }
        changes.sort_by(|a, b| a.time.total_cmp(&b.time));
        if changes.is_empty() {
            return None;
        }
        if budget == 0.0 {
            return Some(changes[0].time);
        }

        let wall_watts = |core: usize, state: PState| -> f64 {
            let node = cluster.node_of(cluster.core(core));
            node.power.watts(state) / node.efficiency
        };

        let mut per_core_power = vec![0.0f64; self.logs.len()];
        let mut total_power = 0.0f64;
        let mut consumed = 0.0f64;
        let mut now = changes[0].time;
        let mut idx = 0;
        while idx < changes.len() {
            // Apply all changes at this instant.
            let t = changes[idx].time;
            // Integrate the segment [now, t).
            let dt = t - now;
            if dt > 0.0 {
                let segment = total_power * dt;
                if consumed + segment >= budget {
                    return Some(now + (budget - consumed) / total_power);
                }
                consumed += segment;
                now = t;
            }
            #[expect(
                clippy::float_cmp,
                reason = "groups transitions recorded at one instant: t is copied from a stored transition time, so this is bit equality of stored times, not a tolerance check"
            )]
            while idx < changes.len() && changes[idx].time == t {
                let c = changes[idx];
                total_power -= per_core_power[c.core];
                per_core_power[c.core] = wall_watts(c.core, c.state);
                total_power += per_core_power[c.core];
                idx += 1;
            }
        }
        // Final segment up to the workload end.
        let dt = end_time - now;
        if dt > 0.0 {
            let segment = total_power * dt;
            if consumed + segment >= budget {
                return Some(now + (budget - consumed) / total_power);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_cluster::{NodeSpec, PStateLadder, PowerProfile};

    fn flat_power_node(cores: usize, watts: [f64; 5], eff: f64) -> NodeSpec {
        NodeSpec::new(
            1,
            cores,
            PStateLadder::from_relative_performance([2.0, 1.7, 1.4, 1.2, 1.0]),
            PowerProfile::from_watts(watts),
            eff,
        )
    }

    fn one_core_cluster() -> Cluster {
        Cluster::new(vec![flat_power_node(
            1,
            [100.0, 80.0, 60.0, 40.0, 20.0],
            1.0,
        )])
    }

    #[test]
    fn single_state_energy_is_power_times_time() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.finalize(10.0);
        let e = log.core_energy(|s| if s == PState::P4 { 20.0 } else { 0.0 });
        assert!((e - 200.0).abs() < 1e-9);
    }

    #[test]
    fn multi_segment_energy_sums_segments() {
        let mut log = TransitionLog::new(0.0, PState::P4); // 20 W
        log.record(5.0, PState::P0); // 100 W
        log.record(8.0, PState::P2); // 60 W
        log.finalize(10.0);
        let watts = |s: PState| [100.0, 80.0, 60.0, 40.0, 20.0][s.index()];
        // 5·20 + 3·100 + 2·60 = 100 + 300 + 120 = 520.
        assert!((log.core_energy(watts) - 520.0).abs() < 1e-9);
    }

    #[test]
    fn same_state_records_coalesce() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.record(3.0, PState::P4);
        assert_eq!(log.entries().len(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_panics() {
        let mut log = TransitionLog::new(5.0, PState::P4);
        log.record(3.0, PState::P0);
    }

    #[test]
    #[should_panic(expected = "finalize the log")]
    fn unfinalized_energy_panics() {
        let log = TransitionLog::new(0.0, PState::P4);
        let _ = log.core_energy(|_| 1.0);
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn record_after_finalize_panics() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.finalize(1.0);
        log.record(2.0, PState::P0);
    }

    #[test]
    fn accountant_total_applies_efficiency() {
        let cluster = Cluster::new(vec![flat_power_node(
            2,
            [100.0, 80.0, 60.0, 40.0, 20.0],
            0.5,
        )]);
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.finalize(10.0);
        // Two cores × 20 W × 10 / 0.5 efficiency = 800.
        assert!((acc.total_energy(&cluster) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustion_time_exact_single_core() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.record(0, 10.0, PState::P0); // 100 W afterwards
        acc.finalize(20.0);
        // Energy: 200 by t=10, then 100 W. Budget 500 → t = 10 + 300/100 = 13.
        let t = acc.exhaustion_time(&cluster, 500.0).unwrap();
        assert!((t - 13.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustion_in_first_segment() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.finalize(100.0);
        let t = acc.exhaustion_time(&cluster, 1000.0).unwrap();
        assert!((t - 50.0).abs() < 1e-9);
    }

    #[test]
    fn budget_outlasting_workload_returns_none() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.finalize(10.0);
        assert_eq!(acc.exhaustion_time(&cluster, 1e9), None);
    }

    #[test]
    fn exhaustion_exactly_at_end_is_reported() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.finalize(10.0);
        // Total energy = 200 exactly.
        let t = acc.exhaustion_time(&cluster, 200.0).unwrap();
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_exhausts_at_start() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.finalize(10.0);
        assert_eq!(acc.exhaustion_time(&cluster, 0.0), Some(0.0));
    }

    #[test]
    fn power_timeline_tracks_transitions() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.record(0, 5.0, PState::P0); // 100 W
        acc.record(0, 9.0, PState::P2); // 60 W
        acc.finalize(12.0);
        let timeline = acc.power_timeline(&cluster);
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0], (0.0, 20.0));
        assert_eq!(timeline[1], (5.0, 100.0));
        assert_eq!(timeline[2], (9.0, 60.0));
    }

    #[test]
    fn power_timeline_sums_cores_and_applies_efficiency() {
        let cluster = Cluster::new(vec![flat_power_node(
            2,
            [100.0, 80.0, 60.0, 40.0, 20.0],
            0.5,
        )]);
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.record(1, 3.0, PState::P0);
        acc.finalize(10.0);
        let timeline = acc.power_timeline(&cluster);
        // t=0: 2 cores × 20/0.5 = 80 W; t=3: 40 + 200 = 240 W.
        assert_eq!(timeline[0], (0.0, 80.0));
        assert!((timeline[1].1 - 240.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustion_matches_total_energy_consistency() {
        // The budget equal to total energy must exhaust at or before the
        // end; any larger budget must not exhaust.
        let cluster = Cluster::new(vec![
            flat_power_node(2, [100.0, 80.0, 60.0, 40.0, 20.0], 0.9),
            flat_power_node(1, [130.0, 100.0, 70.0, 50.0, 30.0], 0.95),
        ]);
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.record(0, 2.0, PState::P0);
        acc.record(1, 4.0, PState::P2);
        acc.record(2, 5.0, PState::P1);
        acc.record(0, 7.0, PState::P3);
        acc.finalize(12.0);
        let total = acc.total_energy(&cluster);
        let t = acc.exhaustion_time(&cluster, total).unwrap();
        assert!((t - 12.0).abs() < 1e-6);
        assert_eq!(acc.exhaustion_time(&cluster, total * 1.001), None);
    }
}
