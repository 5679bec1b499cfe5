//! Arbitrary mutation streams over a cluster's cores: starts, completions
//! and queue pushes, each step advancing time unevenly and marking the
//! touched cores (plus one untouched core) in a dirty-core mailbox.
//!
//! Names only the library crates, so the facade's integration tests and
//! the property tests of `ecds-core` (`#[path]`) share this one copy.

#![allow(dead_code)]

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_sim::{CoreState, DirtyCores, ExecutingTask, QueuedTask};
use ecds_workload::{TaskId, TaskTypeId};
use proptest::prelude::*;

/// One mutation against one core. Ops that do not apply to the core's
/// current state (completing an idle core, starting a busy one) degrade to
/// the legal neighbour so every drawn sequence is executable.
#[derive(Debug, Clone)]
pub enum Op {
    /// Start executing (or enqueue, if already busy).
    Start { type_id: usize },
    /// Enqueue behind the executing task.
    Enqueue { type_id: usize, pstate: usize },
    /// Complete the executing task, auto-starting the next queued one.
    Complete,
}

/// One step of a mutation stream: `(core pick, op)` pairs, the time
/// advance, and one extra core to over-mark.
pub type Step = (Vec<(usize, Op)>, f64, usize);

pub fn arb_step() -> impl Strategy<Value = Step> {
    let op =
        (0usize..3, 0usize..10, 0usize..NUM_PSTATES).prop_map(
            |(which, type_id, pstate)| match which {
                0 => Op::Start { type_id },
                1 => Op::Enqueue { type_id, pstate },
                _ => Op::Complete,
            },
        );
    (
        prop::collection::vec((0usize..64, op), 0..6),
        0.1f64..300.0,
        // Extra unmutated core to over-mark (always legal).
        0usize..64,
    )
}

pub fn apply(core: &mut CoreState, op: &Op, id: usize, now: f64) {
    match op {
        Op::Start { type_id } => {
            let exec = ExecutingTask {
                task: TaskId(id),
                type_id: TaskTypeId(*type_id),
                pstate: PState::P1,
                start: now,
                deadline: now + 5_000.0,
            };
            if core.executing().is_none() {
                core.start(exec);
            } else {
                core.enqueue(QueuedTask {
                    task: exec.task,
                    type_id: exec.type_id,
                    pstate: PState::P2,
                    deadline: exec.deadline,
                });
            }
        }
        Op::Enqueue { type_id, pstate } => {
            if core.executing().is_some() {
                core.enqueue(QueuedTask {
                    task: TaskId(id),
                    type_id: TaskTypeId(*type_id),
                    pstate: PState::from_index(*pstate),
                    deadline: now + 6_000.0,
                });
            }
        }
        Op::Complete => {
            if core.executing().is_some() {
                let (_, next) = core.complete();
                if let Some(q) = next {
                    core.start(ExecutingTask {
                        task: q.task,
                        type_id: q.type_id,
                        pstate: q.pstate,
                        start: now,
                        deadline: q.deadline,
                    });
                }
            }
        }
    }
}

/// Advances `now` by the step's time advance, applies its ops (picks taken
/// modulo the core count, fresh task ids from `next_id`) and marks every
/// touched core — plus the step's extra core, which over-marking must
/// leave harmless — in `dirty`.
pub fn apply_step(
    cores: &mut [CoreState],
    dirty: &mut DirtyCores,
    (ops, dt, extra_mark): &Step,
    now: &mut f64,
    next_id: &mut usize,
) {
    let n = cores.len();
    *now += dt;
    for (pick, op) in ops {
        let core = pick % n;
        apply(&mut cores[core], op, *next_id, *now);
        *next_id += 1;
        dirty.mark(core);
    }
    dirty.mark(extra_mark % n);
}
