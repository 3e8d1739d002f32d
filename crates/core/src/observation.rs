//! The IDS-alert observation model `Z_i(o | s)` of Eq. (3).
//!
//! The node controller observes the number of IDS alerts weighted by priority
//! during each time-step. The paper's numeric experiments (Appendix E) model
//! the observation with Beta-binomial distributions —
//! `Z(· | H) = BetaBin(10, 0.7, 3)` and `Z(· | C) = BetaBin(10, 1, 0.7)` —
//! while the testbed evaluation estimates `Ẑ_i` empirically from 25 000
//! samples per container (Fig. 11). Both constructions are supported here,
//! together with the assumption checks of Theorem 1 (positivity, TP-2) and
//! the Kullback–Leibler diagnostics of Figs. 14 and 18.

use crate::error::{CoreError, Result};
use crate::node_model::NodeState;
use rand::Rng;
use tolerance_markov::dist::{BetaBinomial, Categorical};
use tolerance_markov::stats::kl_divergence;
use tolerance_pomdp::structure::is_tp2;

/// Inverse-CDF sampling by a cumulative scan: the first index at which the
/// uniform draw `u`, less the probabilities so far, is used up; the last
/// index when rounding leaves the row short of `u`. Alert counts (Eq. 3) and
/// next states (Eq. 2) are both drawn this way, and the draw-for-draw
/// determinism of every seeded run rests on this exact order of subtractions.
#[inline]
pub(crate) fn sample_index(row: &[f64], mut u: f64) -> usize {
    for (index, &p) in row.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return index;
        }
    }
    row.len() - 1
}

/// The observation model: one distribution over alert counts per operational
/// state (healthy / compromised).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObservationModel {
    healthy: Vec<f64>,
    compromised: Vec<f64>,
}

impl ObservationModel {
    /// The Beta-binomial observation model of Appendix E:
    /// `Z(·|H) = BetaBin(10, 0.7, 3)`, `Z(·|C) = BetaBin(10, 1, 0.7)`.
    pub fn paper_default() -> Self {
        let healthy = BetaBinomial::new(10, 0.7, 3.0)
            .expect("valid parameters")
            .pmf_vector();
        let compromised = BetaBinomial::new(10, 1.0, 0.7)
            .expect("valid parameters")
            .pmf_vector();
        ObservationModel {
            healthy,
            compromised,
        }
    }

    /// Builds a model from explicit per-state probability vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the vectors have different
    /// lengths, are empty, contain negative values or do not sum to one.
    pub fn from_distributions(healthy: Vec<f64>, compromised: Vec<f64>) -> Result<Self> {
        if healthy.is_empty() || healthy.len() != compromised.len() {
            return Err(CoreError::InvalidParameter {
                name: "observation distributions",
                reason: "healthy and compromised distributions must be non-empty and equally long"
                    .into(),
            });
        }
        for (name, dist) in [("healthy", &healthy), ("compromised", &compromised)] {
            let sum: f64 = dist.iter().sum();
            if dist.iter().any(|&p| p < 0.0) || (sum - 1.0).abs() > 1e-6 {
                return Err(CoreError::InvalidParameter {
                    name: "observation distributions",
                    reason: format!("{name} distribution is not a probability vector (sum {sum})"),
                });
            }
        }
        Ok(ObservationModel {
            healthy,
            compromised,
        })
    }

    /// Estimates the model from alert-count samples collected while healthy
    /// and while under intrusion (the `Ẑ_i` of Section VIII-A / Fig. 11),
    /// with Laplace smoothing so assumption D of Theorem 1 holds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Markov`] if either sample set is empty.
    pub fn from_samples(
        healthy_samples: &[u64],
        compromised_samples: &[u64],
        support_size: usize,
        smoothing: f64,
    ) -> Result<Self> {
        let healthy = Categorical::from_samples(healthy_samples, support_size, smoothing)?;
        let compromised = Categorical::from_samples(compromised_samples, support_size, smoothing)?;
        ObservationModel::from_distributions(
            healthy.probabilities().to_vec(),
            compromised.probabilities().to_vec(),
        )
    }

    /// The distribution of alert counts in the healthy state.
    pub fn healthy_distribution(&self) -> &[f64] {
        &self.healthy
    }

    /// The distribution of alert counts in the compromised state.
    pub fn compromised_distribution(&self) -> &[f64] {
        &self.compromised
    }

    /// `Z(o | s)` for the operational states; crashed nodes emit no alerts,
    /// so the healthy distribution is returned for [`NodeState::Crashed`]
    /// (the state is directly observable and never queried in practice).
    pub fn probability(&self, state: NodeState, alerts: u64) -> f64 {
        let dist = match state {
            NodeState::Compromised => &self.compromised,
            NodeState::Healthy | NodeState::Crashed => &self.healthy,
        };
        dist.get(alerts as usize).copied().unwrap_or(0.0)
    }

    /// Samples an alert count for a node in the given state.
    pub fn sample<R: Rng + ?Sized>(&self, state: NodeState, rng: &mut R) -> u64 {
        let dist = match state {
            NodeState::Compromised => &self.compromised,
            NodeState::Healthy | NodeState::Crashed => &self.healthy,
        };
        sample_index(dist, rng.random::<f64>()) as u64
    }

    /// Mean alert count in a state.
    pub fn mean(&self, state: NodeState) -> f64 {
        let dist = match state {
            NodeState::Compromised => &self.compromised,
            NodeState::Healthy | NodeState::Crashed => &self.healthy,
        };
        dist.iter().enumerate().map(|(o, p)| o as f64 * p).sum()
    }

    /// The Kullback–Leibler divergence `D_KL(Z(·|H) ‖ Z(·|C))`, the detection
    /// information measure of Figs. 14 and 18.
    ///
    /// # Errors
    ///
    /// Propagates divergence computation failures.
    pub fn detection_divergence(&self) -> Result<f64> {
        Ok(kl_divergence(&self.healthy, &self.compromised)?)
    }

    /// Validates assumptions D (full support) and E (TP-2) of Theorem 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if any observation has zero
    /// probability or the observation matrix is not TP-2.
    pub fn validate_theorem1(&self) -> Result<()> {
        if self
            .healthy
            .iter()
            .chain(&self.compromised)
            .any(|&p| p <= 0.0)
        {
            return Err(CoreError::InvalidParameter {
                name: "observation model",
                reason: "assumption D requires every observation to have positive probability in every state"
                    .into(),
            });
        }
        let matrix = vec![self.healthy.clone(), self.compromised.clone()];
        if !is_tp2(&matrix, 1e-9) {
            return Err(CoreError::InvalidParameter {
                name: "observation model",
                reason: "assumption E requires the observation matrix to be TP-2".into(),
            });
        }
        Ok(())
    }

    /// Returns a degraded copy of the model in which the compromised
    /// distribution is mixed towards the healthy one:
    /// `Z'(·|C) = (1 - λ) Z(·|C) + λ Z(·|H)`. Increasing `λ ∈ [0, 1]`
    /// decreases the KL divergence between the states, which is the knob
    /// behind the sensitivity analysis of Fig. 14.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `λ` is outside `[0, 1]`.
    pub fn degrade(&self, lambda: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&lambda) {
            return Err(CoreError::InvalidParameter {
                name: "lambda",
                reason: format!("must lie in [0, 1], got {lambda}"),
            });
        }
        let compromised = self
            .compromised
            .iter()
            .zip(&self.healthy)
            .map(|(&c, &h)| (1.0 - lambda) * c + lambda * h)
            .collect();
        ObservationModel::from_distributions(self.healthy.clone(), compromised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_satisfies_theorem1_assumptions() {
        let model = ObservationModel::paper_default();
        assert!(model.validate_theorem1().is_ok());
        assert_eq!(model.healthy_distribution().len(), 11);
        assert!(model.mean(NodeState::Compromised) > model.mean(NodeState::Healthy));
        assert!(model.detection_divergence().unwrap() > 0.0);
    }

    #[test]
    fn from_distributions_validates_inputs() {
        assert!(ObservationModel::from_distributions(vec![], vec![]).is_err());
        assert!(ObservationModel::from_distributions(vec![1.0], vec![0.5, 0.5]).is_err());
        assert!(ObservationModel::from_distributions(vec![0.5, 0.6], vec![0.5, 0.5]).is_err());
        assert!(ObservationModel::from_distributions(vec![-0.5, 1.5], vec![0.5, 0.5]).is_err());
        let ok = ObservationModel::from_distributions(vec![0.9, 0.1], vec![0.2, 0.8]).unwrap();
        assert_eq!(ok.probability(NodeState::Healthy, 0), 0.9);
        assert_eq!(ok.probability(NodeState::Compromised, 1), 0.8);
        assert_eq!(ok.probability(NodeState::Crashed, 0), 0.9);
        assert_eq!(ok.probability(NodeState::Healthy, 7), 0.0);
    }

    #[test]
    fn empirical_estimation_mimics_fig11() {
        let mut rng = StdRng::seed_from_u64(9);
        let reference = ObservationModel::paper_default();
        let healthy_samples: Vec<u64> = (0..25_000)
            .map(|_| reference.sample(NodeState::Healthy, &mut rng))
            .collect();
        let compromised_samples: Vec<u64> = (0..25_000)
            .map(|_| reference.sample(NodeState::Compromised, &mut rng))
            .collect();
        let estimated =
            ObservationModel::from_samples(&healthy_samples, &compromised_samples, 11, 1.0)
                .unwrap();
        // Glivenko-Cantelli: the empirical model approaches the true one.
        for o in 0..11u64 {
            assert!(
                (estimated.probability(NodeState::Healthy, o)
                    - reference.probability(NodeState::Healthy, o))
                .abs()
                    < 0.02
            );
        }
        assert!(estimated.validate_theorem1().is_ok());
        assert!(ObservationModel::from_samples(&[], &[1], 4, 1.0).is_err());
    }

    #[test]
    fn degrade_reduces_kl_divergence_monotonically() {
        let model = ObservationModel::paper_default();
        let mut previous = f64::INFINITY;
        for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let degraded = model.degrade(lambda).unwrap();
            let divergence = degraded.detection_divergence().unwrap();
            assert!(
                divergence <= previous + 1e-12,
                "divergence must shrink with lambda"
            );
            previous = divergence;
        }
        let fully_degraded = model.degrade(1.0).unwrap();
        assert!(fully_degraded.detection_divergence().unwrap() < 1e-12);
        assert!(model.degrade(1.5).is_err());
    }

    #[test]
    fn sampling_matches_distribution_means() {
        let model = ObservationModel::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let mean_healthy: f64 = (0..8000)
            .map(|_| model.sample(NodeState::Healthy, &mut rng) as f64)
            .sum::<f64>()
            / 8000.0;
        let mean_compromised: f64 = (0..8000)
            .map(|_| model.sample(NodeState::Compromised, &mut rng) as f64)
            .sum::<f64>()
            / 8000.0;
        assert!((mean_healthy - model.mean(NodeState::Healthy)).abs() < 0.15);
        assert!((mean_compromised - model.mean(NodeState::Compromised)).abs() < 0.15);
    }

    #[test]
    fn zero_probability_observations_violate_assumption_d() {
        let model = ObservationModel::from_distributions(vec![1.0, 0.0], vec![0.5, 0.5]).unwrap();
        assert!(model.validate_theorem1().is_err());
    }

    #[test]
    fn non_tp2_model_violates_assumption_e() {
        // Healthy produces more alerts than compromised: reversed ordering.
        let model = ObservationModel::from_distributions(vec![0.1, 0.9], vec![0.9, 0.1]).unwrap();
        assert!(model.validate_theorem1().is_err());
    }
}
