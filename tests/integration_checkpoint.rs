//! Differential checkpoint/restore suite.
//!
//! A serving session checkpointed at an arbitrary event boundary and
//! restored into *freshly constructed* collaborators (source, discipline,
//! scheduler) must finish the trial bit-identically to an uninterrupted
//! run — same outcomes, energy, telemetry, and RNG consumption. Identity
//! is asserted through `f64::to_bits`, never float `==`, so `-0.0`/`0.0`
//! masking and NaN-hostility cannot hide a divergence.

use ecds::ext::{BatchDiscipline, BatchEdf, BatchMaxRho, BatchPolicy};
use ecds::persist::DecodeError;
use ecds::prelude::*;
use ecds::sim::{ServeConfig, ServeSession};
use ecds::workload::TraceArrivalSource;

// ---------------------------------------------------------------------------
// Bit-identity helpers.
// ---------------------------------------------------------------------------

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn series_bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
}

fn assert_bit_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(
        a.outcomes().len(),
        b.outcomes().len(),
        "{label}: outcome count diverged"
    );
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(x.task, y.task, "{label}: task id order diverged");
        assert_eq!(
            x.assignment, y.assignment,
            "{label}: assignment of {:?} diverged",
            x.task
        );
        assert_eq!(
            opt_bits(x.start),
            opt_bits(y.start),
            "{label}: start of {:?} diverged",
            x.task
        );
        assert_eq!(
            opt_bits(x.completion),
            opt_bits(y.completion),
            "{label}: completion of {:?} diverged",
            x.task
        );
        assert_eq!(
            x.cancelled, y.cancelled,
            "{label}: cancellation of {:?} diverged",
            x.task
        );
    }
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}: energy diverged"
    );
    assert_eq!(
        opt_bits(a.exhausted_at()),
        opt_bits(b.exhausted_at()),
        "{label}: exhaustion diverged"
    );
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{label}: makespan diverged"
    );
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert_eq!(
        series_bits(&ta.queue_depth),
        series_bits(&tb.queue_depth),
        "{label}: queue-depth series diverged"
    );
    assert_eq!(
        ta.busy_cores
            .iter()
            .map(|&(t, n)| (t.to_bits(), n))
            .collect::<Vec<_>>(),
        tb.busy_cores
            .iter()
            .map(|&(t, n)| (t.to_bits(), n))
            .collect::<Vec<_>>(),
        "{label}: busy-core series diverged"
    );
    assert_eq!(
        series_bits(&ta.power),
        series_bits(&tb.power),
        "{label}: power timeline diverged"
    );
    assert_eq!(ta.mapper, tb.mapper, "{label}: mapper stats diverged");
}

// ---------------------------------------------------------------------------
// Immediate mode.
// ---------------------------------------------------------------------------

fn serve_immediate(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    kind: HeuristicKind,
    variant: FilterVariant,
    checkpoint_at: Option<u64>,
) -> TrialResult {
    let cfg = ServeConfig::finite(trace.len());
    let Some(at) = checkpoint_at else {
        // Uninterrupted reference run.
        let mut scheduler = build_scheduler(kind, variant, scenario, 0);
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run(&mut source, &mut discipline);
        return session.finish(&mut discipline);
    };
    // Drive `at` events, checkpoint, and drop every live object.
    let bytes = {
        let mut scheduler = build_scheduler(kind, variant, scenario, 0);
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run_events(at, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    // Resume into brand-new collaborators.
    let mut scheduler = build_scheduler(kind, variant, scenario, 0);
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(trace);
    let mut session = ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        &bytes,
        &mut source,
        &mut discipline,
    )
    .expect("restore of a freshly sealed checkpoint");
    session.run(&mut source, &mut discipline);
    session.finish(&mut discipline)
}

/// The acceptance grid: three seeds, every heuristic, snapshots at the very
/// start (event 0), mid-burst, and deep into the trial.
#[test]
fn immediate_restore_is_bit_identical_across_the_grid() {
    for master in [3, 11, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        for kind in HeuristicKind::ALL {
            let variant = FilterVariant::EnergyAndRobustness;
            let reference = serve_immediate(&scenario, &trace, kind, variant, None);
            for at in [0, 37, 93] {
                let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
                assert_bit_identical(
                    &reference,
                    &resumed,
                    &format!("seed {master} / {kind} / checkpoint@{at}"),
                );
            }
        }
    }
}

/// A dense snapshot sweep on one configuration: every part of the trial —
/// the primed-but-unstarted state, the first burst, queue drain — must be a
/// valid checkpoint boundary. The Random heuristic makes this also a test
/// of exact RNG stream positioning.
#[test]
fn immediate_restore_holds_at_every_probed_boundary() {
    let scenario = Scenario::small_for_tests(11);
    let trace = scenario.trace(1);
    let kind = HeuristicKind::Random;
    let variant = FilterVariant::Energy;
    let reference = serve_immediate(&scenario, &trace, kind, variant, None);
    for at in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 110, 200] {
        let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
        assert_bit_identical(&reference, &resumed, &format!("boundary {at}"));
    }
}

/// Cancel-overdue adds the chained-cancellation path to the restored state
/// machine (queued tasks cancelled at completion events).
#[test]
fn immediate_restore_survives_cancel_overdue() {
    let base = Scenario::small_for_tests(29);
    let scenario = base.with_sim_config({
        let mut c = *base.sim_config();
        c.cancel_overdue = true;
        c
    });
    let trace = scenario.trace(0);
    let kind = HeuristicKind::Mect;
    let variant = FilterVariant::None;
    let reference = serve_immediate(&scenario, &trace, kind, variant, None);
    assert!(
        reference.cancelled() > 0 || reference.completed() > 0,
        "scenario must exercise the engine"
    );
    for at in [17, 61] {
        let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
        assert_bit_identical(&reference, &resumed, &format!("cancel_overdue@{at}"));
    }
}

/// A templated cluster large enough that loaded decisions cross the
/// fan-out floor (the scenario of `integration_candidate_dedup`'s fan-out
/// differential): 24 nodes from 4 templates, arrivals scaled to its cores.
fn fan_out_scenario(master: u64) -> Scenario {
    let cluster = ClusterGenConfig::scaled(24, 4);
    let probe = Scenario::with_configs(master, cluster.clone(), WorkloadConfig::small_for_tests());
    let window = probe.workload().window;
    let workload = WorkloadConfig {
        arrivals: BurstPattern::scaled_to_cluster(window, probe.cluster().total_cores()),
        ..WorkloadConfig::small_for_tests()
    };
    Scenario::with_configs(master, cluster, workload)
}

/// Checkpoint continuity under fan-out: a session whose decisions share
/// their kernel calls with the evaluator's helper thread, checkpointed
/// mid-stream and restored into a freshly built scheduler (whose evaluator
/// spawns a helper of its own), finishes bit-identically to the
/// uninterrupted run — including the fused-kernel counter, which must
/// carry the helper's calls across the boundary exactly once.
#[test]
fn immediate_restore_is_bit_identical_under_fan_out() {
    for master in [5, 17] {
        let scenario = fan_out_scenario(master);
        let trace = scenario.trace(0);
        for kind in [HeuristicKind::LightestLoad, HeuristicKind::Random] {
            let variant = FilterVariant::EnergyAndRobustness;
            let reference = serve_immediate(&scenario, &trace, kind, variant, None);
            assert!(reference.telemetry().mapper.fused_kernel_calls > 0);
            for at in [41, 97] {
                let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
                assert_bit_identical(
                    &reference,
                    &resumed,
                    &format!("fan-out seed {master} / {kind} / checkpoint@{at}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch mode.
// ---------------------------------------------------------------------------

fn serve_batch(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    policy: &mut dyn BatchPolicy,
    checkpoint_at: Option<u64>,
) -> TrialResult {
    let cfg = ServeConfig::finite(trace.len());
    let Some(at) = checkpoint_at else {
        let mut discipline = BatchDiscipline::new(policy);
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run(&mut source, &mut discipline);
        return session.finish(&mut discipline);
    };
    let bytes = {
        let mut discipline = BatchDiscipline::new(policy);
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run_events(at, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    let mut discipline = BatchDiscipline::new(policy);
    let mut source = TraceArrivalSource::new(trace);
    let mut session = ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        &bytes,
        &mut source,
        &mut discipline,
    )
    .expect("restore of a freshly sealed batch checkpoint");
    session.run(&mut source, &mut discipline);
    session.finish(&mut discipline)
}

/// Batch mode checkpoints the central pending bag and the energy ledger in
/// the discipline itself — restoring mid-trial must keep dispatch decisions
/// identical for both bundled policies.
#[test]
fn batch_restore_is_bit_identical() {
    for master in [3, 11, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        let reference = serve_batch(&scenario, &trace, &mut BatchMaxRho::default(), None);
        for at in [0, 37, 93] {
            let resumed = serve_batch(&scenario, &trace, &mut BatchMaxRho::default(), Some(at));
            assert_bit_identical(
                &reference,
                &resumed,
                &format!("max-rho seed {master} / checkpoint@{at}"),
            );
        }
        let reference = serve_batch(&scenario, &trace, &mut BatchEdf, None);
        for at in [0, 37, 93] {
            let resumed = serve_batch(&scenario, &trace, &mut BatchEdf, Some(at));
            assert_bit_identical(
                &reference,
                &resumed,
                &format!("edf seed {master} / checkpoint@{at}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness of the restore path itself.
// ---------------------------------------------------------------------------

/// A checkpoint taken after the queue drained restores to a finished
/// session.
#[test]
fn restore_of_a_drained_session_finishes_directly() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let reference = serve_immediate(
        &scenario,
        &trace,
        HeuristicKind::ShortestQueue,
        FilterVariant::None,
        None,
    );
    // Far beyond the event count: run_events drains, checkpoint captures
    // the terminal state.
    let resumed = serve_immediate(
        &scenario,
        &trace,
        HeuristicKind::ShortestQueue,
        FilterVariant::None,
        Some(1_000_000),
    );
    assert_bit_identical(&reference, &resumed, "drained checkpoint");
}

/// Restoring under a different simulator configuration must fail with the
/// typed mismatch error, not silently diverge.
#[test]
fn restore_rejects_config_mismatch() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let bytes = {
        let mut scheduler = build_scheduler(
            HeuristicKind::ShortestQueue,
            FilterVariant::None,
            &scenario,
            0,
        );
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(&trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            ServeConfig::finite(trace.len()),
            &mut source,
            &mut discipline,
        );
        session.run_events(10, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    let mut other_cfg = *scenario.sim_config();
    other_cfg.cancel_overdue = !other_cfg.cancel_overdue;
    let mut scheduler = build_scheduler(
        HeuristicKind::ShortestQueue,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(&trace);
    let err = ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        &other_cfg,
        &bytes,
        &mut source,
        &mut discipline,
    )
    .expect_err("config digest must be verified");
    assert!(
        matches!(
            err,
            DecodeError::Corrupt("checkpoint simulator config mismatch")
        ),
        "unexpected error: {err:?}"
    );
}

/// The LL + energy/robustness session behind the refusal tests below.
fn refusal_scheduler(scenario: &Scenario) -> Box<dyn Mapper> {
    build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
        scenario,
        0,
    )
}

/// A checkpoint of [`refusal_scheduler`]'s session after `events` events.
fn checkpoint_after(scenario: &Scenario, trace: &WorkloadTrace, events: u64) -> Vec<u8> {
    let mut scheduler = refusal_scheduler(scenario);
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(trace);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        ServeConfig::finite(trace.len()),
        &mut source,
        &mut discipline,
    );
    session.run_events(events, &mut source, &mut discipline);
    session.checkpoint(&source, &discipline)
}

/// Restores `bytes` into fresh collaborators and returns the refusal.
fn restore_error(scenario: &Scenario, trace: &WorkloadTrace, bytes: &[u8]) -> DecodeError {
    let mut scheduler = refusal_scheduler(scenario);
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(trace);
    match ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        bytes,
        &mut source,
        &mut discipline,
    ) {
        Ok(_) => panic!("a refused checkpoint restored"),
        Err(err) => err,
    }
}

/// A checkpoint sealed with an older wire-format version is rejected with a
/// typed error before any body field is read: version 1 bodies carried the
/// evaluator's configuration flags, which version 2 dropped, and version 3
/// bodies carried an epoch per cached prefix fingerprint, which version 4
/// dropped. Both are sealed here in the current envelope.
#[test]
fn restore_rejects_a_version_1_checkpoint() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let bytes = checkpoint_after(&scenario, &trace, 10);
    let body = ecds::persist::open(&bytes, ecds::sim::CHECKPOINT_VERSION)
        .expect("a fresh checkpoint opens");
    for version in [1, 3] {
        let old = ecds::persist::seal(version, body);
        let err = restore_error(&scenario, &trace, &old);
        assert!(
            matches!(err, DecodeError::UnsupportedVersion { found } if found == version),
            "version {version}: unexpected error: {err:?}"
        );
    }
}

/// Byte-serial FNV-1a-64, the envelope checksum of versions 1 and 2.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A version 2 envelope, built by hand with its own FNV-1a-64 checksum,
/// is refused by its version number: version 3 changed only the checksum,
/// and an old checkpoint must say so rather than look like bit rot.
#[test]
fn restore_rejects_a_version_2_checkpoint() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let bytes = checkpoint_after(&scenario, &trace, 10);
    let body = ecds::persist::open(&bytes, ecds::sim::CHECKPOINT_VERSION)
        .expect("a fresh checkpoint opens");
    let mut old = Vec::with_capacity(bytes.len());
    old.extend_from_slice(&ecds::persist::MAGIC.to_le_bytes());
    old.extend_from_slice(&2u32.to_le_bytes());
    old.extend_from_slice(body);
    let checksum = fnv1a_64(&old);
    old.extend_from_slice(&checksum.to_le_bytes());
    let err = restore_error(&scenario, &trace, &old);
    assert!(
        matches!(err, DecodeError::UnsupportedVersion { found: 2 }),
        "unexpected error: {err:?}"
    );
}

/// Every single-bit corruption of a real mid-burst checkpoint — header,
/// body or checksum — is refused with a typed error; none restores and
/// none panics.
#[test]
fn restore_refuses_every_single_bit_flip_of_a_real_checkpoint() {
    let scenario = Scenario::small_for_tests(11);
    let trace = scenario.trace(0);
    let mut bytes = checkpoint_after(&scenario, &trace, 37);
    assert!(bytes.len() > 1_000, "checkpoint of {} bytes", bytes.len());
    // Every refusal happens in the envelope, before the collaborators are
    // touched, so one set serves every flip.
    let mut scheduler = refusal_scheduler(&scenario);
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(&trace);
    for idx in 0..bytes.len() {
        for bit in 0..8 {
            bytes[idx] ^= 1 << bit;
            let restored = ServeSession::restore(
                scenario.cluster(),
                scenario.table(),
                scenario.sim_config(),
                &bytes,
                &mut source,
                &mut discipline,
            );
            let err = restored.err();
            assert!(
                matches!(
                    err,
                    Some(
                        DecodeError::BadMagic
                            | DecodeError::UnsupportedVersion { .. }
                            | DecodeError::ChecksumMismatch
                    )
                ),
                "flip at byte {idx} bit {bit}: {err:?}"
            );
            bytes[idx] ^= 1 << bit;
        }
    }
}
