//! Error types for the `tolerance-core` crate.

use std::fmt;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced by the TOLERANCE models, algorithms and controllers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model parameter violated its admissible range (e.g. probabilities
    /// outside `(0, 1)`, assumptions A–C of Theorem 1).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The replication problem is infeasible for the requested availability
    /// bound (assumption A of Theorem 2 does not hold).
    Infeasible,
    /// A solver failed; the inner string carries the underlying reason.
    Solver(String),
    /// An error bubbled up from the probability/Markov layer.
    Markov(String),
    /// A fault-injection run violated one of the invariant oracles of
    /// [`simnet`](crate::simnet); the string describes the violated
    /// invariant and the step at which it broke.
    Invariant(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            CoreError::Infeasible => write!(
                f,
                "replication problem is infeasible for the requested availability"
            ),
            CoreError::Solver(why) => write!(f, "solver failure: {why}"),
            CoreError::Markov(why) => write!(f, "probability computation failed: {why}"),
            CoreError::Invariant(detail) => {
                write!(f, "invariant violation: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<tolerance_markov::MarkovError> for CoreError {
    fn from(err: tolerance_markov::MarkovError) -> Self {
        CoreError::Markov(err.to_string())
    }
}

impl From<tolerance_optim::OptimError> for CoreError {
    fn from(err: tolerance_optim::OptimError) -> Self {
        match err {
            tolerance_optim::OptimError::Infeasible => CoreError::Infeasible,
            other => CoreError::Solver(other.to_string()),
        }
    }
}

impl From<tolerance_pomdp::PomdpError> for CoreError {
    fn from(err: tolerance_pomdp::PomdpError) -> Self {
        CoreError::Solver(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = CoreError::InvalidParameter {
            name: "p_a",
            reason: "must be in (0,1)".into(),
        };
        assert!(e.to_string().contains("p_a"));
        assert!(CoreError::Infeasible.to_string().contains("infeasible"));
        assert!(CoreError::Solver("x".into()).to_string().contains("x"));
        assert!(CoreError::Markov("y".into()).to_string().contains("y"));

        let from_markov: CoreError = tolerance_markov::MarkovError::EmptyInput("samples").into();
        assert!(matches!(from_markov, CoreError::Markov(_)));
        let from_optim: CoreError = tolerance_optim::OptimError::Infeasible.into();
        assert_eq!(from_optim, CoreError::Infeasible);
        let from_pomdp: CoreError = tolerance_pomdp::PomdpError::DidNotConverge("vi").into();
        assert!(matches!(from_pomdp, CoreError::Solver(_)));
    }
}
