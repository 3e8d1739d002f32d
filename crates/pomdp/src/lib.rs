//! # `tolerance-pomdp`
//!
//! The node-level POMDP of the TOLERANCE reproduction and its exact solver.
//!
//! Problem 1 of the paper (optimal intrusion recovery) is a partially
//! observed MDP — the *machine replacement problem* — whose exact solution
//! is obtained with dynamic programming over alpha-vector value functions
//! ([`solvers::IncrementalPruning`], the paper's IP baseline, Table 2) and
//! whose structure (Theorem 1) is a belief threshold. Problem 2 (optimal
//! replication factor) is a constrained MDP whose occupation-measure LP
//! (Algorithm 2) `tolerance-core` writes itself.
//!
//! This crate provides the model type ([`pomdp::Pomdp`], the two-state node
//! POMDP over the belief `b = P[C]`), alpha-vector value functions (`alpha`:
//! lines over `b ∈ [0, 1]`), the exact solver ([`solvers`]), and structural
//! checks used to verify the assumptions of Theorems 1–2 ([`structure`]).
//! The node controllers run their own scalar belief filter in
//! `tolerance-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alpha;
pub mod error;
pub mod pomdp;
pub mod solvers;
pub mod structure;

pub use alpha::{AlphaVector, ValueFunction};
pub use error::PomdpError;
pub use pomdp::Pomdp;
pub use solvers::IncrementalPruning;
