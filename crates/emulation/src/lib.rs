//! # `tolerance-emulation`
//!
//! The emulated testbed of the TOLERANCE reproduction.
//!
//! The paper evaluates TOLERANCE on a 13-server testbed running 10 types of
//! real network intrusions against containerized replicas, with the Snort
//! IDS producing the alert streams consumed by the node controllers
//! (Section VII–VIII). This crate substitutes a faithful simulation of that
//! environment (see DESIGN.md for the substitution argument):
//!
//! * `containers` — the replica container catalogue of Table 4, their
//!   background services (Table 5) and intrusion playbooks (Table 6).
//! * `ids` — per-container IDS alert distributions shaped like Fig. 11,
//!   an intrusion-trace generator (the analogue of the paper's 6 400-trace
//!   dataset), and the additional infrastructure metrics of Fig. 18.
//! * `attacker` — the multi-step attacker that works through each
//!   container's intrusion playbook and then behaves arbitrarily.
//! * `chaos` — [`AttackerCampaignScenario`]: attacker-driven fault
//!   schedules for the simnet harness (`tolerance_core::simnet`), whose
//!   intrusion timing follows the container playbooks instead of uniform
//!   sampling.
//! * [`emulation`] — the closed-loop emulation: a testbed of nodes and
//!   attackers steered as a plant by the control plane of
//!   `tolerance-core` (optionally mirrored into a MinBFT cluster),
//!   producing the `T(A)`, `T(R)`, `F(R)` metrics. There is no background-client module:
//!   the testbed's client load is part of the estimated `Ẑ` the `ids`
//!   models reproduce, not a process the loop steps.
//! * [`eval`] — the Table 7 / Fig. 12 comparison harness (TOLERANCE vs the
//!   NO-RECOVERY, PERIODIC and PERIODIC-ADAPTIVE baselines over seeds),
//!   executed through the shared scenario runtime of `tolerance-core`.
//! * [`scenarios`] — emulation workloads beyond the paper's grid (bursty
//!   attacker campaigns, heterogeneous fleets), run as
//!   [`EmulationScenario`]s like the grid's cells.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod attacker;
mod chaos;
mod containers;
pub mod emulation;
pub mod eval;
mod ids;
pub mod scenarios;

pub use attacker::{AttackProfile, Attacker};
pub use chaos::AttackerCampaignScenario;
pub use containers::{ContainerCatalog, ContainerConfig};
pub use emulation::{Emulation, EmulationConfig, EmulationOutcome, StrategyKind};
pub use eval::{EmulationScenario, EvaluationGrid};
pub use ids::{IdsModel, MetricKind, TraceDataset};
