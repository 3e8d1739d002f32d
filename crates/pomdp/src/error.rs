//! Error types for the `tolerance-pomdp` crate.

use std::fmt;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PomdpError>;

/// Errors produced by model constructors and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum PomdpError {
    /// A model component (transition matrix, observation matrix, cost
    /// matrix) had an inconsistent shape.
    InvalidModel(String),
    /// A probability row did not sum to one or contained negative entries.
    NotStochastic {
        /// Which component was invalid ("transition", "observation", ...).
        component: &'static str,
        /// Index context (e.g. "action 1, state 2").
        context: String,
        /// The observed row sum.
        sum: f64,
    },
    /// A solver parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A solver failed to converge within its iteration budget.
    DidNotConverge(&'static str),
}

impl fmt::Display for PomdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PomdpError::InvalidModel(why) => write!(f, "invalid model: {why}"),
            PomdpError::NotStochastic {
                component,
                context,
                sum,
            } => {
                write!(
                    f,
                    "{component} row ({context}) is not a probability distribution (sum = {sum})"
                )
            }
            PomdpError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            PomdpError::DidNotConverge(what) => write!(f, "{what} did not converge"),
        }
    }
}

impl std::error::Error for PomdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PomdpError::InvalidModel("bad".into())
            .to_string()
            .contains("bad"));
        assert!(PomdpError::DidNotConverge("value iteration")
            .to_string()
            .contains("value iteration"));
        let ns = PomdpError::NotStochastic {
            component: "transition",
            context: "action 0".into(),
            sum: 0.9,
        };
        assert!(ns.to_string().contains("transition"));
        let ip = PomdpError::InvalidParameter {
            name: "discount",
            reason: "must be in (0,1)".into(),
        };
        assert!(ip.to_string().contains("discount"));
    }
}
