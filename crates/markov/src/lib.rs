//! # `tolerance-markov`
//!
//! Mathematical substrate for the TOLERANCE reproduction: probability
//! distributions, finite Markov chains, reliability/MTTF analysis, and the
//! small dense linear algebra they require.
//!
//! The paper (Hammar & Stadler, DSN 2024) relies on the following primitives,
//! all implemented here from scratch:
//!
//! * Beta-binomial observation models `Z_i(· | s)` (Appendix E) and the
//!   categorical ones estimated from traces (Fig. 11),
//! * the binomial node-survival law the replication CMDP builds its
//!   transition kernel from (Eq. 8), the Poisson alert-count model and the
//!   Poisson-binomial sum of independent Bernoulli indicators,
//! * mean-time-to-failure and reliability curves `R(t)` via hitting times and
//!   the Chapman–Kolmogorov equation (Appendix F, Fig. 6),
//! * Kullback–Leibler divergences between alert distributions (Fig. 14, 18),
//! * mean ± Student-t 95 % half-width summaries used in every table of the
//!   evaluation.
//!
//! # Example
//!
//! ```
//! use tolerance_markov::chain::MarkovChain;
//!
//! // A two-state chain: state 0 is "up", state 1 is "failed" (absorbing).
//! let chain = MarkovChain::new(vec![vec![0.9, 0.1], vec![0.0, 1.0]]).unwrap();
//! let mttf = chain.mean_hitting_time(&[1]).unwrap();
//! assert!((mttf[0] - 10.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chain;
pub mod dist;
pub mod error;
pub mod linalg;
mod special;
pub mod stats;

pub use error::MarkovError;
