//! Finite fully observed Markov decision processes.
//!
//! The underlying model of the replication CMDP (Problem 2,
//! [`Cmdp`](crate::cmdp::Cmdp)). Costs are minimized throughout, matching
//! the paper's cost-based objectives (Eqs. 5 and 9).

use crate::error::{PomdpError, Result};

/// Tolerance used when validating probability rows.
const STOCHASTIC_TOLERANCE: f64 = 1e-7;

/// A finite MDP with cost minimization.
///
/// * `transition[a][s][s']` — probability of moving from `s` to `s'` under
///   action `a`.
/// * `cost[s][a]` — immediate cost of taking action `a` in state `s`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mdp {
    num_states: usize,
    num_actions: usize,
    transition: Vec<Vec<Vec<f64>>>,
    cost: Vec<Vec<f64>>,
}

impl Mdp {
    /// Creates an MDP after validating shapes and stochasticity.
    ///
    /// # Errors
    ///
    /// Returns [`PomdpError::InvalidModel`] for inconsistent shapes and
    /// [`PomdpError::NotStochastic`] for invalid probability rows.
    pub fn new(transition: Vec<Vec<Vec<f64>>>, cost: Vec<Vec<f64>>) -> Result<Self> {
        let num_actions = transition.len();
        if num_actions == 0 {
            return Err(PomdpError::InvalidModel("no actions".into()));
        }
        let num_states = transition[0].len();
        if num_states == 0 {
            return Err(PomdpError::InvalidModel("no states".into()));
        }
        for (a, per_action) in transition.iter().enumerate() {
            if per_action.len() != num_states {
                return Err(PomdpError::InvalidModel(format!(
                    "action {a} has {} state rows, expected {num_states}",
                    per_action.len()
                )));
            }
            for (s, row) in per_action.iter().enumerate() {
                if row.len() != num_states {
                    return Err(PomdpError::InvalidModel(format!(
                        "transition row for action {a}, state {s} has length {}, expected {num_states}",
                        row.len()
                    )));
                }
                if row.iter().any(|&p| p < -STOCHASTIC_TOLERANCE) {
                    return Err(PomdpError::NotStochastic {
                        component: "transition",
                        context: format!("action {a}, state {s}"),
                        sum: f64::NAN,
                    });
                }
                let sum: f64 = row.iter().sum();
                if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                    return Err(PomdpError::NotStochastic {
                        component: "transition",
                        context: format!("action {a}, state {s}"),
                        sum,
                    });
                }
            }
        }
        if cost.len() != num_states || cost.iter().any(|row| row.len() != num_actions) {
            return Err(PomdpError::InvalidModel(
                "cost matrix must have shape [states][actions]".into(),
            ));
        }
        Ok(Mdp {
            num_states,
            num_actions,
            transition,
            cost,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Transition probability `P[s' | s, a]`.
    pub fn transition_probability(&self, state: usize, action: usize, next: usize) -> f64 {
        self.transition[action][state][next]
    }

    /// Immediate cost `c(s, a)`.
    pub fn cost(&self, state: usize, action: usize) -> f64 {
        self.cost[state][action]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    /// A two-state machine-repair MDP: state 0 = working, state 1 = broken.
    /// Action 0 = wait (free), action 1 = repair (cost 1, returns to working).
    /// Being broken costs 2 per step.
    fn repair_mdp(p_break: f64) -> Mdp {
        let transition = vec![
            // action 0: wait
            vec![vec![1.0 - p_break, p_break], vec![0.0, 1.0]],
            // action 1: repair
            vec![vec![1.0 - p_break, p_break], vec![1.0 - p_break, p_break]],
        ];
        let cost = vec![vec![0.0, 1.0], vec![2.0, 1.0 + 2.0]];
        Mdp::new(transition, cost).unwrap()
    }

    #[test]
    fn validation_rejects_bad_models() {
        assert!(Mdp::new(vec![], vec![]).is_err());
        // Non-stochastic row.
        let bad = Mdp::new(
            vec![vec![vec![0.5, 0.4], vec![0.0, 1.0]]],
            vec![vec![0.0], vec![0.0]],
        );
        assert!(bad.is_err());
        // Wrong cost shape.
        let bad = Mdp::new(
            vec![vec![vec![1.0, 0.0], vec![0.0, 1.0]]],
            vec![vec![0.0, 1.0], vec![0.0, 1.0]],
        );
        assert!(bad.is_err());
        // Ragged transition.
        let bad = Mdp::new(vec![vec![vec![1.0, 0.0]]], vec![vec![0.0], vec![0.0]]);
        assert!(bad.is_err());
    }

    #[test]
    fn accessors() {
        let mdp = repair_mdp(0.3);
        assert_eq!(mdp.num_states(), 2);
        assert_eq!(mdp.num_actions(), 2);
        assert_close(mdp.transition_probability(0, 0, 1), 0.3, 1e-12);
        assert_close(mdp.cost(1, 0), 2.0, 1e-12);
    }
}
