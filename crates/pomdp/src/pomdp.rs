//! Finite partially observed Markov decision processes.
//!
//! The observation model follows the paper's convention `Z(o | s)` — the
//! observation depends only on the *current* state (Eq. 3), not on the
//! action. Costs are minimized.

use crate::error::{PomdpError, Result};
use rand::Rng;

/// Tolerance used when validating probability rows.
const STOCHASTIC_TOLERANCE: f64 = 1e-7;

/// A finite POMDP with state-dependent observations and cost minimization.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Pomdp {
    num_states: usize,
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
    /// Returns [`PomdpError::InvalidModel`], [`PomdpError::NotStochastic`] or
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
        if observation.len() != num_states {
            return Err(PomdpError::InvalidModel(format!(
                "observation matrix has {} state rows, expected {num_states}",
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
        if cost.len() != num_states || cost.iter().any(|row| row.len() != num_actions) {
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
            num_states,
            num_actions,
            num_observations,
            transition,
            observation,
            cost,
            discount,
        })
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.num_states
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

    /// Expected immediate cost of an action under a belief vector.
    ///
    /// # Panics
    ///
    /// Panics if `belief` has the wrong length or `action` is out of range.
    pub fn expected_cost(&self, belief: &[f64], action: usize) -> f64 {
        assert_eq!(belief.len(), self.num_states, "belief length mismatch");
        belief
            .iter()
            .enumerate()
            .map(|(s, &b)| b * self.cost[s][action])
            .sum()
    }

    /// Samples the next state from `P[· | state, action]`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn sample_transition<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        state: usize,
        action: usize,
    ) -> usize {
        sample_row(&self.transition[action][state], rng)
    }
}

fn sample_row<R: Rng + ?Sized>(row: &[f64], rng: &mut R) -> usize {
    let mut u = rng.random::<f64>();
    for (i, &p) in row.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    row.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn accessors_and_expected_cost() {
        let m = small_pomdp();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_actions(), 2);
        assert_eq!(m.num_observations(), 2);
        assert_eq!(m.discount(), 0.9);
        assert_eq!(m.transition_probability(0, 0, 1), 0.3);
        assert_eq!(m.observation_probability(1, 1), 0.8);
        assert_eq!(m.cost(1, 0), 2.0);
        let c = m.expected_cost(&[0.5, 0.5], 0);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        // Bad discount.
        assert!(Pomdp::new(vec![vec![vec![1.0]]], vec![vec![1.0]], vec![vec![0.0]], 1.5).is_err());
        // Non-stochastic observation row.
        assert!(Pomdp::new(vec![vec![vec![1.0]]], vec![vec![0.5]], vec![vec![0.0]], 0.9).is_err());
        // Ragged observation matrix.
        assert!(Pomdp::new(
            vec![vec![vec![1.0, 0.0], vec![0.0, 1.0]]],
            vec![vec![1.0, 0.0], vec![1.0]],
            vec![vec![0.0], vec![0.0]],
            0.9
        )
        .is_err());
        // Wrong cost shape.
        assert!(Pomdp::new(
            vec![vec![vec![1.0]]],
            vec![vec![1.0]],
            vec![vec![0.0, 1.0]],
            0.9
        )
        .is_err());
        // Empty model.
        assert!(Pomdp::new(vec![], vec![], vec![], 0.9).is_err());
    }

    #[test]
    fn sampling_matches_probabilities() {
        let m = small_pomdp();
        let mut rng = StdRng::seed_from_u64(5);
        let transitions_to_1 = (0..5000)
            .filter(|_| m.sample_transition(&mut rng, 0, 0) == 1)
            .count();
        let fraction = transitions_to_1 as f64 / 5000.0;
        assert!((fraction - 0.3).abs() < 0.05);
    }
}
