//! Extensions from the paper's future-work section (Sec. VIII).
//!
//! The paper closes with a list of model extensions; this crate implements
//! them against the same substrates so the ablation harness can measure
//! their effect:
//!
//! * **Task priorities** ([`priority`]) — "we intend to expand our model to
//!   consider tasks with varying priorities": a deterministic synthetic
//!   priority assignment, a priority-differentiated energy filter (high
//!   priority gets a larger fair share), and weighted miss metrics.
//! * **Cancellation** ([`cancel`]) — "a system with the ability to cancel
//!   and/or reschedule tasks": analysis helpers for the simulator's
//!   `cancel_overdue` mode (drop tasks that already missed instead of
//!   running them).
//! * **Batch-mode rescheduling** ([`batch`]) — the "reschedule" half of the
//!   same future-work item, after the paper's \[SmA10\] lineage: tasks wait
//!   in a central bag and are committed only when a core frees up, so every
//!   mapping event re-decides over everything not yet started.
//! * **Stochastic power** ([`power_pmf`]) — "use full probability
//!   distributions to represent power consumption, instead of ... a
//!   constant representing an average value": per-(node, P-state) power
//!   distributions and the induced uncertainty on total trial energy.
//! * **Arrival-pattern variety** ([`arrivals2`]) — "include a variety of
//!   arrival rates and patterns": sinusoidal (piecewise-constant
//!   approximation), multi-burst, and ramp patterns compatible with the
//!   workload generator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]

pub mod arrivals2;
pub mod batch;
pub mod cancel;
pub mod power_pmf;
pub mod priority;

pub use arrivals2::{multi_burst, ramp, sinusoidal};
pub use batch::{
    run_batch, BatchDiscipline, BatchEdf, BatchMaxRho, BatchPolicy, BatchView, Dispatch,
};
pub use cancel::CancellationReport;
pub use power_pmf::{EnergyUncertainty, StochasticPowerModel};
pub use priority::{assign_priorities, PriorityClass, PriorityEnergyFilter, PriorityReport};
