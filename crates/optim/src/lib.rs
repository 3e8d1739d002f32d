//! # `tolerance-optim`
//!
//! Optimization substrate for the TOLERANCE reproduction.
//!
//! The paper solves the node-recovery problem (Problem 1) by parameterizing
//! the policy with recovery thresholds (Theorem 1) and minimizing the
//! resulting stochastic objective with standard black-box optimizers
//! (Algorithm 1). It compares four such optimizers — SPSA, the Cross-Entropy
//! Method, Differential Evolution and Bayesian Optimization — against the
//! reinforcement-learning baseline PPO and the exact dynamic-programming
//! baseline Incremental Pruning (Table 2, Figs. 7–8). The replication problem
//! (Problem 2) is solved exactly by a linear program (Algorithm 2, Fig. 9).
//!
//! This crate provides, from scratch:
//!
//! * a common [`objective::Objective`]/[`optimizer::Optimizer`] interface over
//!   the unit hypercube; an evaluation is a pure function of its point and a
//!   seed, and the optimizers hand over every set of independent evaluations
//!   as one [`objective::Objective::evaluate_batch`], which a caller's
//!   objective may run on threads this crate never starts,
//! * [`spsa::Spsa`] — simultaneous perturbation stochastic approximation,
//! * [`cem::CrossEntropyMethod`] — the CEM with truncated-Gaussian proposals,
//! * [`de::DifferentialEvolution`] — DE/rand/1/bin,
//! * [`bayesian::BayesianOptimization`] — a Gaussian-process surrogate with a
//!   Matérn-5/2 kernel and a lower-confidence-bound acquisition function,
//! * [`ppo::Ppo`] — proximal policy optimization with a small pure-Rust MLP,
//!   generalized advantage estimation and the clipped surrogate objective,
//! * [`simplex::LinearProgram`] — a two-phase primal simplex solver used by
//!   the constrained-MDP formulation of Algorithm 2.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use tolerance_optim::cem::{CemConfig, CrossEntropyMethod};
//! use tolerance_optim::objective::Objective;
//! use tolerance_optim::optimizer::Optimizer;
//!
//! // Minimize a quadratic over [0, 1]^2 with the cross-entropy method.
//! struct Quadratic;
//! impl Objective for Quadratic {
//!     fn dimension(&self) -> usize {
//!         2
//!     }
//!     fn evaluate(&self, x: &[f64], _seed: u64) -> f64 {
//!         (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2)
//!     }
//! }
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = CemConfig { population: 50, elite_fraction: 0.2, iterations: 30, ..CemConfig::default() };
//! let result = CrossEntropyMethod::new(config).minimize(&Quadratic, &mut rng).unwrap();
//! assert!((result.best_point[0] - 0.3).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bayesian;
pub mod cem;
pub mod de;
pub mod error;
mod nn;
pub mod objective;
pub mod optimizer;
pub mod ppo;
pub mod simplex;
pub mod spsa;

pub use error::OptimError;
