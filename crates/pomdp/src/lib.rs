//! # `tolerance-pomdp`
//!
//! Finite Markov decision models and solvers for the TOLERANCE reproduction.
//!
//! The paper formalizes its two control problems as classical operations
//! research problems:
//!
//! * Problem 1 (optimal intrusion recovery) is a partially observed MDP — the
//!   *machine replacement problem* — whose exact solution is obtained with
//!   dynamic programming over alpha-vector value functions
//!   ([`solvers::IncrementalPruning`], the paper's IP baseline, Table 2) and
//!   whose structure (Theorem 1) is a belief threshold.
//! * Problem 2 (optimal replication factor) is a constrained MDP — the
//!   *inventory replenishment problem* — solved exactly through the
//!   occupation-measure linear program of Algorithm 2 ([`cmdp::Cmdp`]).
//!
//! This crate provides the model types ([`pomdp::Pomdp`], the two-state node
//! POMDP over the belief `b = P[C]`; [`mdp::Mdp`] and [`cmdp::Cmdp`], general
//! finite models), alpha-vector value functions (`alpha`: lines over
//! `b ∈ [0, 1]`), the exact solvers ([`solvers`]), and structural checks used
//! to verify the assumptions of Theorems 1–2 ([`structure`]). The node
//! controllers run their own scalar belief filter in `tolerance-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alpha;
pub mod cmdp;
pub mod error;
pub mod mdp;
pub mod pomdp;
pub mod solvers;
pub mod structure;

pub use alpha::{AlphaVector, ValueFunction};
pub use error::PomdpError;
pub use pomdp::Pomdp;
pub use solvers::IncrementalPruning;
