//! # `tolerance-core`
//!
//! The paper's primary contribution: the TOLERANCE two-level feedback control
//! architecture for intrusion-tolerant systems (Hammar & Stadler, DSN 2024).
//!
//! * **Local level** ([`node_model`], [`observation`], [`recovery`],
//!   [`controller::NodeController`]) — each node runs a controller that
//!   tracks a belief about whether its replica is compromised (Eq. 4,
//!   Appendix A) from weighted IDS-alert counts and recovers the replica when
//!   the belief exceeds a threshold (Theorem 1). The underlying control
//!   problem is the machine replacement POMDP of Problem 1, solved with the
//!   parametric threshold optimization of Algorithm 1 ([`algorithms::Alg1`])
//!   or exactly with incremental pruning.
//! * **Global level** ([`replication`], [`controller::SystemController`]) —
//!   a system controller receives the node beliefs and adjusts the
//!   replication factor `N_t ≥ 2f + 1 + k` (Proposition 1). The underlying
//!   problem is the inventory replenishment CMDP of Problem 2, solved exactly
//!   with the occupation-measure LP of Algorithm 2
//!   ([`replication::ReplicationProblem::solve`]).
//! * **Control plane** ([`controlplane`]) — the online runtime that closes
//!   both loops on a *running* cluster: the [`controlplane::ClusterActuator`]
//!   actuation interface (recovery, JOIN/EVICT) implemented by the simulated
//!   and the threaded MinBFT cluster, the shared
//!   [`controlplane::ControlPlane::tick`], and the controlled service
//!   ([`controlplane::run_controlled_service`]) with a live intrusion-burst
//!   workload.
//! * **Baselines** ([`baselines`]) — the NO-RECOVERY, PERIODIC and
//!   PERIODIC-ADAPTIVE strategies of state-of-the-art intrusion-tolerant
//!   systems that the paper compares against (Section VIII-B).
//! * **Metrics** ([`metrics`]) — average availability `T(A)`, average
//!   time-to-recovery `T(R)` and recovery frequency `F(R)` (Section III-C),
//!   plus the reliability/MTTF analysis of Fig. 6 (`reliability`).
//! * **Fault-injection harness** ([`simnet`]) — deterministic simulation
//!   testing of the full stack: seeded chaos schedules (partitions, storms,
//!   crashes, Byzantine flips, intrusion bursts, membership churn) executed
//!   against MinBFT plus both control levels, with invariant oracles,
//!   greedy counterexample shrinking and one-command replay — including the
//!   multi-shard fleet harness ([`simnet::sharded`]) with per-shard chaos
//!   from split RNG streams, the cross-shard routing/atomicity oracles and
//!   the fleet control plane (`controlplane::fleet`).
//! * **Scenario runtime** ([`runtime`]) — the shared experiment engine: a
//!   [`runtime::Scenario`] abstraction, a parallel [`runtime::Runner`]
//!   executing seed/parameter grids deterministically, cross-seed
//!   [`runtime::MetricSummary`] aggregation, and the shared strategy
//!   factories ([`runtime::StrategyKind`] / [`runtime::NodeStrategy`]). A
//!   scenario is a value handed to [`runtime::Runner::run_seeds`] or
//!   [`runtime::Runner::run_cells`]; that is the one way to run one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod baselines;
pub mod controller;
pub mod controlplane;
pub mod error;
pub mod metrics;
pub mod node_model;
pub mod observation;
pub mod recovery;
mod reliability;
pub mod replication;
pub mod runtime;
pub mod simnet;

pub use error::{CoreError, Result};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::algorithms::{Alg1, Alg1Config, OptimizerKind};
    pub use crate::baselines::BaselineKind;
    pub use crate::controller::NodeController;
    pub use crate::error::Result;
    pub use crate::metrics::EvaluationMetrics;
    pub use crate::node_model::{NodeModel, NodeParameters, NodeState};
    pub use crate::observation::ObservationModel;
    pub use crate::recovery::{RecoveryConfig, RecoveryProblem, ThresholdStrategy};
    pub use crate::reliability::ReliabilityAnalysis;
    pub use crate::replication::{ReplicationConfig, ReplicationProblem};
    pub use crate::runtime::{FnScenario, Runner, StrategyKind};
    pub use crate::simnet::{
        FaultSchedule, ScheduleConfig, ShardedCounterexample, ShardedFaultSchedule,
        ShardedScheduleConfig,
    };
}
