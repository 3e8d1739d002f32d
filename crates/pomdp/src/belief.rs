//! Belief states and the Bayesian belief update of Appendix A.
//!
//! A belief is a probability distribution over the hidden states of a POMDP.
//! The paper's node controllers track the scalar belief `b_{i,t} = P[S = C]`,
//! which is the second component of the general belief vector maintained
//! here; the general recursion (Appendix A, steps (a)–(e)) is
//! `b'(s') ∝ Z(o | s') Σ_s f(s' | s, a) b(s)`.

use crate::error::{PomdpError, Result};
use crate::pomdp::Pomdp;
use rand::Rng;

/// A probability distribution over hidden states.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Belief {
    probabilities: Vec<f64>,
}

impl Belief {
    /// Creates a belief from a probability vector.
    ///
    /// # Errors
    ///
    /// Returns [`PomdpError::NotStochastic`] if the vector has negative
    /// entries or does not sum to one, and [`PomdpError::InvalidModel`] if it
    /// is empty.
    pub fn new(probabilities: Vec<f64>) -> Result<Self> {
        if probabilities.is_empty() {
            return Err(PomdpError::InvalidModel("belief must not be empty".into()));
        }
        let sum: f64 = probabilities.iter().sum();
        if probabilities.iter().any(|&p| p < -1e-9) || (sum - 1.0).abs() > 1e-7 {
            return Err(PomdpError::NotStochastic {
                component: "belief",
                context: "initial belief".into(),
                sum,
            });
        }
        Ok(Belief { probabilities })
    }

    /// A belief concentrated on a single state.
    ///
    /// # Panics
    ///
    /// Panics if `state >= num_states` or `num_states == 0`.
    pub(crate) fn degenerate(num_states: usize, state: usize) -> Self {
        assert!(state < num_states, "state {state} out of range");
        let mut probabilities = vec![0.0; num_states];
        probabilities[state] = 1.0;
        Belief { probabilities }
    }

    /// The uniform belief.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`.
    pub fn uniform(num_states: usize) -> Self {
        assert!(num_states > 0, "a belief needs at least one state");
        Belief {
            probabilities: vec![1.0 / num_states as f64; num_states],
        }
    }

    /// The probability assigned to `state` (0 if out of range).
    pub fn probability(&self, state: usize) -> f64 {
        self.probabilities.get(state).copied().unwrap_or(0.0)
    }

    /// The underlying probability vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.probabilities
    }

    /// Number of states the belief ranges over.
    pub fn num_states(&self) -> usize {
        self.probabilities.len()
    }

    /// Samples a state from the belief.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u = rng.random::<f64>();
        for (s, &p) in self.probabilities.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return s;
            }
        }
        self.probabilities.len() - 1
    }

    /// The Bayesian belief update of Appendix A:
    /// `b'(s') ∝ Z(o | s') Σ_s f(s' | s, a) b(s)`.
    ///
    /// # Errors
    ///
    /// * [`PomdpError::InvalidParameter`] if the belief dimension does not
    ///   match the model or the action/observation indices are out of range.
    /// * [`PomdpError::ImpossibleObservation`] if the observation has zero
    ///   probability under the predicted belief (the caller typically treats
    ///   this as a modeling error or falls back to the prior).
    pub fn update(&self, model: &Pomdp, action: usize, observation: usize) -> Result<Belief> {
        if self.probabilities.len() != model.num_states() {
            return Err(PomdpError::InvalidParameter {
                name: "belief",
                reason: format!(
                    "belief has {} states but the model has {}",
                    self.probabilities.len(),
                    model.num_states()
                ),
            });
        }
        if action >= model.num_actions() {
            return Err(PomdpError::InvalidParameter {
                name: "action",
                reason: format!("action {action} out of range"),
            });
        }
        if observation >= model.num_observations() {
            return Err(PomdpError::InvalidParameter {
                name: "observation",
                reason: format!("observation {observation} out of range"),
            });
        }
        let n = model.num_states();
        let mut unnormalized = vec![0.0; n];
        for (s_next, value) in unnormalized.iter_mut().enumerate() {
            let mut predicted = 0.0;
            for (s, &b) in self.probabilities.iter().enumerate() {
                if b > 0.0 {
                    predicted += b * model.transition_probability(s, action, s_next);
                }
            }
            *value = model.observation_probability(s_next, observation) * predicted;
        }
        let normalizer: f64 = unnormalized.iter().sum();
        if normalizer <= 1e-300 {
            return Err(PomdpError::ImpossibleObservation { observation });
        }
        Ok(Belief {
            probabilities: unnormalized.iter().map(|p| p / normalizer).collect(),
        })
    }

    /// Probability of observing `observation` after taking `action` from this
    /// belief (the normalizer of the belief update).
    ///
    /// # Errors
    ///
    /// Same index-validation errors as [`Belief::update`].
    pub fn observation_probability(
        &self,
        model: &Pomdp,
        action: usize,
        observation: usize,
    ) -> Result<f64> {
        if action >= model.num_actions() || observation >= model.num_observations() {
            return Err(PomdpError::InvalidParameter {
                name: "action/observation",
                reason: "index out of range".into(),
            });
        }
        let n = model.num_states();
        let mut probability = 0.0;
        for s_next in 0..n {
            let mut predicted = 0.0;
            for (s, &b) in self.probabilities.iter().enumerate() {
                predicted += b * model.transition_probability(s, action, s_next);
            }
            probability += model.observation_probability(s_next, observation) * predicted;
        }
        Ok(probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pomdp::Pomdp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    /// A two-state, two-action, two-observation POMDP resembling the node
    /// model: state 0 = healthy, state 1 = compromised. Action 1 ("recover")
    /// resets to healthy; observation 1 ("alerts") is more likely when
    /// compromised.
    fn tiger_like() -> Pomdp {
        Pomdp::new(
            vec![
                vec![vec![0.9, 0.1], vec![0.0, 1.0]], // wait
                vec![vec![0.9, 0.1], vec![0.9, 0.1]], // recover
            ],
            vec![vec![0.8, 0.2], vec![0.3, 0.7]],
            vec![vec![0.0, 1.0], vec![2.0, 1.0]],
            0.95,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let b = Belief::new(vec![0.25, 0.75]).unwrap();
        assert_close(b.probability(1), 0.75, 1e-12);
        assert_eq!(b.probability(5), 0.0);
        assert_eq!(b.num_states(), 2);
        assert!(Belief::new(vec![]).is_err());
        assert!(Belief::new(vec![0.5, 0.6]).is_err());
        assert!(Belief::new(vec![-0.1, 1.1]).is_err());
        let d = Belief::degenerate(3, 2);
        assert_close(d.probability(2), 1.0, 1e-12);
        let u = Belief::uniform(4);
        assert_close(u.probability(0), 0.25, 1e-12);
    }

    #[test]
    fn update_increases_compromise_belief_after_alert() {
        let model = tiger_like();
        let prior = Belief::new(vec![0.9, 0.1]).unwrap();
        let posterior = prior.update(&model, 0, 1).unwrap();
        assert!(
            posterior.probability(1) > prior.probability(1),
            "an alert observation should increase the compromise belief"
        );
        let posterior_quiet = prior.update(&model, 0, 0).unwrap();
        assert!(posterior_quiet.probability(1) < posterior.probability(1));
        // Posterior is a distribution.
        assert_close(posterior.as_slice().iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn update_matches_hand_computed_bayes_rule() {
        let model = tiger_like();
        let prior = Belief::new(vec![1.0, 0.0]).unwrap();
        // Predicted: (0.9, 0.1). Observation 1 likelihoods: (0.2, 0.7).
        // Posterior ∝ (0.18, 0.07) => (0.72, 0.28).
        let posterior = prior.update(&model, 0, 1).unwrap();
        assert_close(posterior.probability(0), 0.18 / 0.25, 1e-10);
        assert_close(posterior.probability(1), 0.07 / 0.25, 1e-10);
        // Normalizer matches observation_probability.
        let z = prior.observation_probability(&model, 0, 1).unwrap();
        assert_close(z, 0.25, 1e-10);
    }

    #[test]
    fn observation_probabilities_sum_to_one() {
        let model = tiger_like();
        let belief = Belief::new(vec![0.4, 0.6]).unwrap();
        for a in 0..2 {
            let total: f64 = (0..2)
                .map(|o| belief.observation_probability(&model, a, o).unwrap())
                .sum();
            assert_close(total, 1.0, 1e-10);
        }
    }

    #[test]
    fn recovery_action_resets_belief_towards_healthy() {
        let model = tiger_like();
        let compromised = Belief::new(vec![0.0, 1.0]).unwrap();
        let after_recover = compromised.update(&model, 1, 0).unwrap();
        assert!(after_recover.probability(0) > 0.9);
    }

    #[test]
    fn update_validates_indices_and_dimensions() {
        let model = tiger_like();
        let b = Belief::new(vec![0.5, 0.5]).unwrap();
        assert!(b.update(&model, 5, 0).is_err());
        assert!(b.update(&model, 0, 5).is_err());
        let wrong_dim = Belief::uniform(3);
        assert!(wrong_dim.update(&model, 0, 0).is_err());
        assert!(b.observation_probability(&model, 9, 0).is_err());
    }

    #[test]
    fn impossible_observation_is_reported() {
        // Observation 1 has probability zero in every state.
        let model = Pomdp::new(
            vec![vec![vec![1.0, 0.0], vec![0.0, 1.0]]],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]],
            vec![vec![0.0], vec![0.0]],
            0.9,
        )
        .unwrap();
        let b = Belief::uniform(2);
        assert_eq!(
            b.update(&model, 0, 1),
            Err(PomdpError::ImpossibleObservation { observation: 1 })
        );
    }

    #[test]
    fn sampling_follows_the_distribution() {
        let b = Belief::new(vec![0.2, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..5000).filter(|_| b.sample(&mut rng) == 1).count();
        let fraction = hits as f64 / 5000.0;
        assert!((fraction - 0.8).abs() < 0.05);
    }
}
