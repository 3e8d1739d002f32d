//! # TOLERANCE — intrusion tolerance through two-level feedback control
//!
//! This facade crate re-exports the full workspace of the TOLERANCE
//! reproduction (Hammar & Stadler, DSN 2024):
//!
//! * [`markov`] — probability distributions, finite Markov chains,
//!   reliability/MTTF analysis, and small dense linear algebra.
//! * [`optim`] — black-box optimizers (SPSA, CEM, DE, Bayesian
//!   optimization, PPO) and a simplex LP solver.
//! * [`pomdp`] — the two-state node POMDP of Problem 1, its exact solver
//!   (value iteration with incremental pruning) and the structural checks
//!   of Theorems 1–2.
//! * [`consensus`] — a discrete-event network simulator and the
//!   reconfigurable MinBFT protocol.
//! * [`core`] — the paper's contribution: the node-recovery POMDP
//!   (Problem 1), the replication CMDP (Problem 2), Algorithms 1–2,
//!   node/system controllers, the baseline strategies, and the unified
//!   scenario runtime (`core::runtime`) that executes seed/parameter
//!   grids in parallel with deterministic replay.
//! * [`emulation`] — the emulated testbed (containers, IDS alerts,
//!   attackers), the closed-loop evaluation harness and the scenario
//!   catalogue (`emulation::scenarios`). Background clients are not
//!   simulated: the alert distributions `Ẑ` are the marginals under the
//!   testbed's client load.
//!
//! ## Quickstart
//!
//! ```
//! use tolerance::core::prelude::*;
//!
//! // Configure a node with the paper's default parameters (Appendix E).
//! let params = NodeParameters::default();
//! let observations = ObservationModel::paper_default();
//! let model = NodeModel::new(params, observations).expect("valid parameters");
//!
//! // Compute a near-optimal recovery threshold (Algorithm 1, CEM optimizer).
//! let problem = RecoveryProblem::new(model, RecoveryConfig::default()).expect("valid problem");
//! let config = Alg1Config {
//!     evaluation_episodes: 5,
//!     horizon: 40,
//!     iterations: 3,
//!     population: 8,
//!     ..Alg1Config::default()
//! };
//! let strategy = problem.solve_with_cem(&config).expect("solver succeeds");
//! assert!(strategy.threshold_at(0) > 0.0 && strategy.threshold_at(0) <= 1.0);
//! ```

pub use tolerance_consensus as consensus;
pub use tolerance_core as core;
pub use tolerance_emulation as emulation;
pub use tolerance_markov as markov;
pub use tolerance_optim as optim;
pub use tolerance_pomdp as pomdp;
