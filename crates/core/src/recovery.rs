//! Problem 1: optimal intrusion recovery.
//!
//! The node controller minimizes the bi-objective of Eq. (5) — a weighted sum
//! of the time-to-recovery and the recovery frequency — subject to the
//! bounded-time-to-recovery (BTR) constraint that forces a recovery at least
//! every `Δ_R` steps (Eq. 6b). Theorem 1 shows that the optimal strategy is a
//! belief threshold, and Corollary 1 that the per-step thresholds increase
//! towards the next forced recovery; [`ThresholdStrategy`] is exactly that
//! parameterization, and [`RecoveryProblem`] evaluates its long-run cost by
//! Monte-Carlo simulation of the node model (the objective that Algorithm 1
//! minimizes).

use crate::algorithms::{Alg1, Alg1Config, OptimizerKind};
use crate::error::{CoreError, Result};
use crate::node_model::{posterior, NodeAction, NodeModel, NodeState};
use crate::observation::sample_index;
use rand::Rng;

/// Configuration of the recovery problem.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryConfig {
    /// The weight `η ≥ 1` on the time-to-recovery term of Eq. (5)
    /// (paper: 2).
    pub eta: f64,
    /// The BTR constraint `Δ_R`: a recovery is forced every `Δ_R` steps.
    /// `None` means `Δ_R = ∞` (no periodic recoveries).
    pub delta_r: Option<u32>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            eta: 2.0,
            delta_r: None,
        }
    }
}

/// The belief threshold every TOLERANCE node controller runs, at every step
/// of its recovery period: the value the paper reports for its testbed
/// (Fig. 13b).
pub const PAPER_RECOVERY_THRESHOLD: f64 = 0.76;

/// A (possibly time-dependent) threshold recovery strategy (Theorem 1 /
/// Algorithm 1): recover exactly when the compromise belief reaches the
/// threshold for the current position within the recovery period.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThresholdStrategy {
    thresholds: Vec<f64>,
    delta_r: Option<u32>,
}

impl ThresholdStrategy {
    /// Creates a strategy from per-step thresholds. With `Δ_R = None` a
    /// single threshold is used at every step; with `Δ_R = d` the vector
    /// holds the thresholds for positions `0..d-1` within the period (the
    /// last step of the period recovers unconditionally, enforcing the BTR
    /// constraint).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if no thresholds are given or
    /// any threshold lies outside `[0, 1]`.
    pub fn new(thresholds: Vec<f64>, delta_r: Option<u32>) -> Result<Self> {
        if thresholds.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "thresholds",
                reason: "at least one threshold is required".into(),
            });
        }
        if thresholds.iter().any(|t| !(0.0..=1.0).contains(t)) {
            return Err(CoreError::InvalidParameter {
                name: "thresholds",
                reason: "thresholds must lie in [0, 1]".into(),
            });
        }
        Ok(ThresholdStrategy {
            thresholds,
            delta_r,
        })
    }

    /// A single time-independent threshold (the `Δ_R = ∞` case of
    /// Corollary 1).
    ///
    /// # Errors
    ///
    /// Same as [`ThresholdStrategy::new`].
    pub fn stationary(threshold: f64) -> Result<Self> {
        ThresholdStrategy::new(vec![threshold], None)
    }

    /// The BTR period this strategy was built for.
    pub(crate) fn delta_r(&self) -> Option<u32> {
        self.delta_r
    }

    /// The threshold applied at `steps_since_recovery` steps after the last
    /// recovery.
    pub fn threshold_at(&self, steps_since_recovery: u32) -> f64 {
        let index = (steps_since_recovery as usize).min(self.thresholds.len() - 1);
        self.thresholds[index]
    }

    /// The raw threshold vector.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The recovery decision (Eq. 7 plus the BTR constraint 6b).
    pub fn decide(&self, belief: f64, steps_since_recovery: u32) -> NodeAction {
        if let Some(delta_r) = self.delta_r {
            if delta_r > 0 && steps_since_recovery + 1 >= delta_r {
                return NodeAction::Recover;
            }
        }
        if belief >= self.threshold_at(steps_since_recovery) {
            NodeAction::Recover
        } else {
            NodeAction::Wait
        }
    }
}

/// The outcome of simulating one node trajectory.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpisodeOutcome {
    /// Average cost per step (the `J_i` of Eq. 5 over the episode).
    pub average_cost: f64,
    /// Number of recoveries performed.
    pub recoveries: u32,
    /// Number of steps the node spent compromised.
    pub compromised_steps: u32,
    /// Number of steps simulated before the episode ended (crash or horizon).
    pub steps: u32,
}

/// Problem 1: the intrusion-recovery POMDP of a single node.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryProblem {
    model: NodeModel,
    config: RecoveryConfig,
    /// Eq. 5 as `[state][action]` for this problem's `η`.
    costs: [[f64; 2]; 3],
}

impl RecoveryProblem {
    /// Creates the problem.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `η < 1` or `Δ_R == 0`.
    pub fn new(model: NodeModel, config: RecoveryConfig) -> Result<Self> {
        if config.eta < 1.0 {
            return Err(CoreError::InvalidParameter {
                name: "eta",
                reason: format!(
                    "the trade-off weight must be at least 1, got {}",
                    config.eta
                ),
            });
        }
        if config.delta_r == Some(0) {
            return Err(CoreError::InvalidParameter {
                name: "delta_r",
                reason: "the BTR period must be at least 1 (use None for no periodic recovery)"
                    .into(),
            });
        }
        let costs = NodeState::ALL
            .map(|state| NodeAction::ALL.map(|action| model.cost(state, action, config.eta)));
        Ok(RecoveryProblem {
            model,
            config,
            costs,
        })
    }

    /// The node model.
    pub fn model(&self) -> &NodeModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Number of threshold parameters Algorithm 1 optimizes for this problem:
    /// `Δ_R - 1` for a finite period (the last step recovers unconditionally)
    /// and 1 for `Δ_R = ∞` (Algorithm 1, line 4).
    pub(crate) fn parameter_dimension(&self) -> usize {
        match self.config.delta_r {
            Some(d) => (d as usize).saturating_sub(1).max(1),
            None => 1,
        }
    }

    /// Builds the threshold strategy encoded by a parameter vector in
    /// `[0, 1]^d` (the mapping used by Algorithm 1).
    ///
    /// # Errors
    ///
    /// Propagates threshold validation errors.
    pub(crate) fn strategy_from_parameters(&self, parameters: &[f64]) -> Result<ThresholdStrategy> {
        let clamped: Vec<f64> = parameters.iter().map(|p| p.clamp(0.0, 1.0)).collect();
        ThresholdStrategy::new(clamped, self.config.delta_r)
    }

    /// Simulates one episode under an arbitrary policy (a function of the
    /// belief and the number of steps since the last recovery).
    ///
    /// This is the only loop that steps the node POMDP: Algorithm 1's
    /// objective, the incremental-pruning and PPO scores and
    /// [`RecoveryProblem::evaluate_strategy`] all run it. State and action
    /// are table indices here; Eq. 2, Eq. 5 and the two alert distributions
    /// are read as rows, and the belief update and both draws are the
    /// functions behind [`NodeModel::belief_update`],
    /// [`NodeModel::sample_transition`] and `ObservationModel::sample`, so an
    /// episode is bit-identical to one stepped through those
    /// (`tests/properties.rs::rollout_kernel`).
    pub(crate) fn simulate_policy<R, P>(
        &self,
        policy: P,
        horizon: u32,
        rng: &mut R,
    ) -> EpisodeOutcome
    where
        R: Rng + ?Sized,
        P: Fn(f64, u32) -> NodeAction,
    {
        const HEALTHY: usize = NodeState::Healthy.index();
        const COMPROMISED: usize = NodeState::Compromised.index();
        const CRASHED: usize = NodeState::Crashed.index();
        let transitions = self.model.transitions();
        let observations = self.model.observations();
        let alert_rows = [
            observations.healthy_distribution(),
            observations.compromised_distribution(),
        ];
        let p_attack = self.model.parameters().p_attack;
        let mut state = if rng.random::<f64>() < p_attack {
            COMPROMISED
        } else {
            HEALTHY
        };
        let mut belief = p_attack;
        let mut steps_since_recovery = 0u32;
        let mut previous_action = NodeAction::Wait.index();
        let mut total_cost = 0.0;
        let mut recoveries = 0u32;
        let mut compromised_steps = 0u32;
        let mut steps = 0u32;

        for _ in 0..horizon {
            if state == CRASHED {
                break;
            }
            steps += 1;
            // Observe (Eq. 3) and update the belief (Eq. 4 / Appendix A).
            let alerts = sample_index(alert_rows[state], rng.random::<f64>());
            let likelihoods = [alert_rows[HEALTHY][alerts], alert_rows[COMPROMISED][alerts]];
            belief = posterior(&transitions[previous_action], likelihoods, belief);

            // Decide.
            let action = policy(belief, steps_since_recovery);
            total_cost += self.costs[state][action.index()];
            if state == COMPROMISED {
                compromised_steps += 1;
            }
            match action {
                NodeAction::Recover => {
                    recoveries += 1;
                    steps_since_recovery = 0;
                    belief = p_attack;
                }
                NodeAction::Wait => steps_since_recovery += 1,
            }
            // Transition (Eq. 2).
            state = sample_index(&transitions[action.index()][state], rng.random::<f64>());
            previous_action = action.index();
        }
        EpisodeOutcome {
            average_cost: if steps == 0 {
                0.0
            } else {
                total_cost / steps as f64
            },
            recoveries,
            compromised_steps,
            steps,
        }
    }

    /// Simulates one episode under a threshold strategy.
    pub fn simulate_strategy<R: Rng + ?Sized>(
        &self,
        strategy: &ThresholdStrategy,
        horizon: u32,
        rng: &mut R,
    ) -> EpisodeOutcome {
        self.simulate_policy(|belief, steps| strategy.decide(belief, steps), horizon, rng)
    }

    /// Monte-Carlo estimate of the objective `J_i` (Eq. 5) of a strategy.
    pub fn evaluate_strategy<R: Rng + ?Sized>(
        &self,
        strategy: &ThresholdStrategy,
        episodes: usize,
        horizon: u32,
        rng: &mut R,
    ) -> f64 {
        if episodes == 0 {
            return 0.0;
        }
        (0..episodes)
            .map(|_| self.simulate_strategy(strategy, horizon, rng).average_cost)
            .sum::<f64>()
            / episodes as f64
    }

    /// Solves the problem with Algorithm 1 and the cross-entropy optimizer
    /// (the paper's default choice, Appendix E).
    ///
    /// # Errors
    ///
    /// Propagates optimizer failures.
    pub fn solve_with_cem(&self, config: &Alg1Config) -> Result<ThresholdStrategy> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let result = Alg1::new(config.clone()).solve(self, OptimizerKind::Cem, &mut rng)?;
        Ok(result.strategy)
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_model::NodeParameters;
    use crate::observation::ObservationModel;
    use rand::rngs::StdRng;

    fn problem(delta_r: Option<u32>) -> RecoveryProblem {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        RecoveryProblem::new(model, RecoveryConfig { eta: 2.0, delta_r }).unwrap()
    }

    #[test]
    fn construction_validates_config() {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        assert!(RecoveryProblem::new(
            model.clone(),
            RecoveryConfig {
                eta: 0.5,
                delta_r: None
            }
        )
        .is_err());
        assert!(RecoveryProblem::new(
            model,
            RecoveryConfig {
                eta: 2.0,
                delta_r: Some(0)
            }
        )
        .is_err());
    }

    #[test]
    fn threshold_strategy_validation_and_lookup() {
        assert!(ThresholdStrategy::new(vec![], None).is_err());
        assert!(ThresholdStrategy::new(vec![1.5], None).is_err());
        let s = ThresholdStrategy::new(vec![0.2, 0.5, 0.9], Some(4)).unwrap();
        assert_eq!(s.threshold_at(0), 0.2);
        assert_eq!(s.threshold_at(2), 0.9);
        assert_eq!(s.threshold_at(10), 0.9, "clamps to the last threshold");
        assert_eq!(s.delta_r(), Some(4));
        assert_eq!(s.thresholds().len(), 3);
    }

    #[test]
    fn decide_implements_threshold_rule_and_btr_constraint() {
        let s = ThresholdStrategy::new(vec![0.6], Some(5)).unwrap();
        assert_eq!(s.decide(0.5, 0), NodeAction::Wait);
        assert_eq!(s.decide(0.7, 0), NodeAction::Recover);
        // Step 4 (the 5th step since recovery) must recover regardless of belief.
        assert_eq!(s.decide(0.0, 4), NodeAction::Recover);
        // Without a BTR period, only the belief matters.
        let s = ThresholdStrategy::stationary(0.6).unwrap();
        assert_eq!(s.decide(0.0, 1000), NodeAction::Wait);
    }

    #[test]
    fn parameter_dimension_follows_algorithm1() {
        assert_eq!(problem(None).parameter_dimension(), 1);
        assert_eq!(problem(Some(5)).parameter_dimension(), 4);
        assert_eq!(problem(Some(1)).parameter_dimension(), 1);
        let s = problem(Some(5))
            .strategy_from_parameters(&[0.1, 0.2, 0.3, 0.4])
            .unwrap();
        assert_eq!(s.thresholds().len(), 4);
    }

    #[test]
    fn never_recovering_accumulates_compromise_cost() {
        let p = problem(None);
        let never = ThresholdStrategy::stationary(1.0).unwrap();
        let always = ThresholdStrategy::stationary(0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let never_cost = p.evaluate_strategy(&never, 30, 200, &mut rng);
        let always_cost = p.evaluate_strategy(&always, 30, 200, &mut rng);
        // Never recovering leaves the node compromised (cost ~ eta = 2);
        // always recovering pays ~1 per step. A sensible threshold beats both.
        assert!(never_cost > 1.0, "never-recover cost {never_cost}");
        assert!(
            (always_cost - 1.0).abs() < 0.2,
            "always-recover cost {always_cost}"
        );
        let tuned = ThresholdStrategy::stationary(0.75).unwrap();
        let tuned_cost = p.evaluate_strategy(&tuned, 60, 200, &mut rng);
        assert!(tuned_cost < never_cost);
        assert!(tuned_cost < always_cost);
    }

    #[test]
    fn btr_constraint_bounds_time_between_recoveries() {
        let p = problem(Some(10));
        // A threshold of 1.0 would never recover voluntarily; the BTR
        // constraint still forces a recovery every 10 steps.
        let strategy = p.strategy_from_parameters(&[1.0; 9]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = p.simulate_strategy(&strategy, 200, &mut rng);
        assert!(
            outcome.recoveries >= outcome.steps / 10,
            "outcome {outcome:?}"
        );
    }

    #[test]
    fn episode_ends_at_crash() {
        let params = NodeParameters {
            p_crash_healthy: 0.5,
            p_crash_compromised: 0.6,
            ..NodeParameters::default()
        };
        let model = NodeModel::new_unchecked(params, ObservationModel::paper_default());
        let p = RecoveryProblem::new(model, RecoveryConfig::default()).unwrap();
        let strategy = ThresholdStrategy::stationary(0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = p.simulate_strategy(&strategy, 1000, &mut rng);
        assert!(
            outcome.steps < 1000,
            "with 50% crash probability the episode must end early"
        );
    }

    #[test]
    fn evaluate_strategy_zero_episodes_is_zero() {
        let p = problem(None);
        let s = ThresholdStrategy::stationary(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.evaluate_strategy(&s, 0, 100, &mut rng), 0.0);
    }
}
