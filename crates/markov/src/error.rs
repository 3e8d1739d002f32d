//! Error types for the `tolerance-markov` crate.

use std::fmt;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MarkovError>;

/// Errors produced by distribution constructors, Markov-chain analysis and
/// the linear-algebra helpers.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A parameter was outside of its admissible range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A probability vector or matrix row did not sum to one (within tolerance)
    /// or contained negative entries.
    NotStochastic {
        /// Index of the offending row (or 0 for vectors).
        row: usize,
        /// The sum that was observed.
        sum: f64,
    },
    /// Matrix dimensions were incompatible with the requested operation.
    DimensionMismatch {
        /// Description of the expected shape.
        expected: String,
        /// Description of the shape that was provided.
        found: String,
    },
    /// A linear system was singular (or numerically close to singular).
    SingularMatrix,
    /// The requested quantity does not exist (e.g. hitting time of an
    /// unreachable set).
    NoSolution(String),
    /// An empty input was provided where at least one element is required.
    EmptyInput(&'static str),
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            MarkovError::NotStochastic { row, sum } => {
                write!(
                    f,
                    "row {row} is not a probability distribution (sum = {sum})"
                )
            }
            MarkovError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MarkovError::SingularMatrix => write!(f, "matrix is singular or nearly singular"),
            MarkovError::NoSolution(why) => write!(f, "no solution: {why}"),
            MarkovError::EmptyInput(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for MarkovError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = MarkovError::InvalidParameter {
            name: "alpha",
            reason: "must be positive".to_string(),
        };
        assert_eq!(
            err.to_string(),
            "invalid parameter `alpha`: must be positive"
        );

        let err = MarkovError::NotStochastic { row: 3, sum: 0.5 };
        assert!(err.to_string().contains("row 3"));

        let err = MarkovError::DimensionMismatch {
            expected: "3x3".into(),
            found: "2x3".into(),
        };
        assert!(err.to_string().contains("expected 3x3"));

        assert_eq!(
            MarkovError::SingularMatrix.to_string(),
            "matrix is singular or nearly singular"
        );
        assert!(MarkovError::NoSolution("unreachable".into())
            .to_string()
            .contains("unreachable"));
        assert!(MarkovError::EmptyInput("samples")
            .to_string()
            .contains("samples"));
    }

    #[test]
    fn error_is_send_sync_and_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<MarkovError>();
    }
}
