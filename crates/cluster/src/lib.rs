//! Heterogeneous cluster model (paper Sec. III-A and VI).
//!
//! A cluster is `N` compute nodes; node `i` holds `n(i)` multicore
//! processors of `c(i)` cores each (Fig. 1 of the paper). All cores within a
//! node are identical; nodes differ in:
//!
//! * processor/core counts (`n(i)`, `c(i)` ∈ 1..=4),
//! * the ACPI P-state ladder `P0..P4` — per-state execution-time multipliers
//!   generated by stepping performance up 15–25% per state,
//! * the per-P-state power draw `μ(i, π)`, from the CMOS dynamic-power
//!   formula `P = A·C_L·V²·f` (Eq. 7) calibrated so P0 draws the node's
//!   drawn peak wattage,
//! * the power-supply efficiency `ε(i)` ∈ [0.90, 0.98].
//!
//! The model is inconsistent-heterogeneous in the \[AlS00\] sense: node A
//! being faster than node B for one task type implies nothing about other
//! task types (the execution-time side of that lives in `ecds-workload`;
//! this crate provides the machine side).
//!
//! # Example
//!
//! ```
//! use ecds_cluster::{ClusterGenConfig, generate_cluster};
//! use ecds_pmf::SeedDerive;
//!
//! let cluster = generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(42));
//! assert_eq!(cluster.num_nodes(), 8);
//! assert!(cluster.total_cores() >= 8);
//! // Eq. 8: average per-core power over all nodes and P-states.
//! assert!(cluster.average_power() > 0.0);
//! ```

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

pub mod generate;
pub mod node;
pub mod power;
pub mod pstate;
pub mod topology;

pub use generate::{generate_cluster, ClusterGenConfig};
pub use node::NodeSpec;
pub use power::{PowerProfile, VoltageRange};
pub use pstate::{PState, PStateLadder, NUM_PSTATES};
pub use topology::{Cluster, CoreId};
