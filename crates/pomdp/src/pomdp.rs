//! The node POMDP: two hidden states, finitely many actions and
//! observations.
//!
//! Theorem 1 of the paper makes intrusion recovery a POMDP over the hidden
//! states healthy (H, index 0) and compromised (C, index 1), so a belief is
//! the scalar `b = P[C]`. The observation model follows the paper's
//! convention `Z(o | s)` — the observation depends only on the *current*
//! state (Eq. 3), not on the action. Costs are minimized.

use crate::error::{PomdpError, Result};

/// Tolerance used when validating probability rows.
const STOCHASTIC_TOLERANCE: f64 = 1e-7;

/// The number of hidden states: healthy and compromised.
const STATES: usize = 2;

/// A two-state POMDP with state-dependent observations and cost
/// minimization.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Pomdp {
    num_actions: usize,
    num_observations: usize,
    /// `transition[a][s][s']`
    transition: Vec<Vec<Vec<f64>>>,
    /// `observation[s][o]` = `Z(o | s)`
    observation: Vec<Vec<f64>>,
    /// `cost[s][a]`
    cost: Vec<Vec<f64>>,
    /// Discount factor in `(0, 1]` (1 is allowed for finite-horizon use).
    discount: f64,
}

impl Pomdp {
    /// Creates a POMDP after validating shapes and stochasticity.
    ///
    /// # Errors
    ///
    /// Returns [`PomdpError::InvalidModel`] for a model whose state count is
    /// not 2 or whose shapes disagree, and [`PomdpError::NotStochastic`] or
    /// [`PomdpError::InvalidParameter`] for inconsistent inputs.
    pub fn new(
        transition: Vec<Vec<Vec<f64>>>,
        observation: Vec<Vec<f64>>,
        cost: Vec<Vec<f64>>,
        discount: f64,
    ) -> Result<Self> {
        let num_actions = transition.len();
        if num_actions == 0 {
            return Err(PomdpError::InvalidModel("no actions".into()));
        }
        for (a, per_action) in transition.iter().enumerate() {
            if per_action.len() != STATES {
                return Err(PomdpError::InvalidModel(format!(
                    "action {a} has {} state rows; the node POMDP has {STATES} states",
                    per_action.len()
                )));
            }
            for (s, row) in per_action.iter().enumerate() {
                if row.len() != STATES {
                    return Err(PomdpError::InvalidModel(format!(
                        "transition row (action {a}, state {s}) has length {}",
                        row.len()
                    )));
                }
                let sum: f64 = row.iter().sum();
                if row.iter().any(|&p| p < -STOCHASTIC_TOLERANCE)
                    || (sum - 1.0).abs() > STOCHASTIC_TOLERANCE
                {
                    return Err(PomdpError::NotStochastic {
                        component: "transition",
                        context: format!("action {a}, state {s}"),
                        sum,
                    });
                }
            }
        }
        if observation.len() != STATES {
            return Err(PomdpError::InvalidModel(format!(
                "observation matrix has {} state rows, expected {STATES}",
                observation.len()
            )));
        }
        let num_observations = observation[0].len();
        if num_observations == 0 {
            return Err(PomdpError::InvalidModel("no observations".into()));
        }
        for (s, row) in observation.iter().enumerate() {
            if row.len() != num_observations {
                return Err(PomdpError::InvalidModel(format!(
                    "observation row for state {s} has length {}, expected {num_observations}",
                    row.len()
                )));
            }
            let sum: f64 = row.iter().sum();
            if row.iter().any(|&p| p < -STOCHASTIC_TOLERANCE)
                || (sum - 1.0).abs() > STOCHASTIC_TOLERANCE
            {
                return Err(PomdpError::NotStochastic {
                    component: "observation",
                    context: format!("state {s}"),
                    sum,
                });
            }
        }
        if cost.len() != STATES || cost.iter().any(|row| row.len() != num_actions) {
            return Err(PomdpError::InvalidModel(
                "cost matrix must have shape [states][actions]".into(),
            ));
        }
        if !(0.0 < discount && discount <= 1.0) {
            return Err(PomdpError::InvalidParameter {
                name: "discount",
                reason: format!("must lie in (0, 1], got {discount}"),
            });
        }
        Ok(Pomdp {
            num_actions,
            num_observations,
            transition,
            observation,
            cost,
            discount,
        })
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of observations.
    pub fn num_observations(&self) -> usize {
        self.num_observations
    }

    /// Discount factor.
    pub(crate) fn discount(&self) -> f64 {
        self.discount
    }

    /// Transition probability `P[s' | s, a]`.
    pub fn transition_probability(&self, state: usize, action: usize, next: usize) -> f64 {
        self.transition[action][state][next]
    }

    /// Observation probability `Z(o | s)`.
    pub fn observation_probability(&self, state: usize, observation: usize) -> f64 {
        self.observation[state][observation]
    }

    /// Immediate cost `c(s, a)`.
    pub fn cost(&self, state: usize, action: usize) -> f64 {
        self.cost[state][action]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pomdp() -> Pomdp {
        Pomdp::new(
            vec![
                vec![vec![0.7, 0.3], vec![0.0, 1.0]],
                vec![vec![0.7, 0.3], vec![0.7, 0.3]],
            ],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![vec![0.0, 1.0], vec![2.0, 1.0]],
            0.9,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let m = small_pomdp();
        assert_eq!(m.num_actions(), 2);
        assert_eq!(m.num_observations(), 2);
        assert_eq!(m.discount(), 0.9);
        assert_eq!(m.transition_probability(0, 0, 1), 0.3);
        assert_eq!(m.observation_probability(1, 1), 0.8);
        assert_eq!(m.cost(1, 0), 2.0);
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let identity = || vec![vec![vec![1.0, 0.0], vec![0.0, 1.0]]];
        let observation = || vec![vec![1.0], vec![1.0]];
        let cost = || vec![vec![0.0], vec![0.0]];
        assert!(Pomdp::new(identity(), observation(), cost(), 0.9).is_ok());
        // Bad discount.
        assert!(Pomdp::new(identity(), observation(), cost(), 1.5).is_err());
        // Non-stochastic observation row.
        assert!(Pomdp::new(identity(), vec![vec![1.0], vec![0.5]], cost(), 0.9).is_err());
        // Non-stochastic transition row.
        let leaky = vec![vec![vec![1.0, 0.0], vec![0.0, 0.9]]];
        assert!(Pomdp::new(leaky, observation(), cost(), 0.9).is_err());
        // Ragged observation matrix.
        let ragged = vec![vec![1.0, 0.0], vec![1.0]];
        assert!(Pomdp::new(identity(), ragged, cost(), 0.9).is_err());
        // Wrong cost shape.
        assert!(Pomdp::new(identity(), observation(), vec![vec![0.0, 1.0]], 0.9).is_err());
        // Empty model.
        assert!(Pomdp::new(vec![], vec![], vec![], 0.9).is_err());
    }

    #[test]
    fn a_model_without_two_states_is_rejected() {
        let three = vec![vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]];
        let result = Pomdp::new(three, vec![vec![1.0]; 3], vec![vec![0.0]; 3], 0.9);
        assert!(
            matches!(result, Err(PomdpError::InvalidModel(_))),
            "{result:?}"
        );
        let one = Pomdp::new(vec![vec![vec![1.0]]], vec![vec![1.0]], vec![vec![0.0]], 0.9);
        assert!(matches!(one, Err(PomdpError::InvalidModel(_))), "{one:?}");
    }
}
