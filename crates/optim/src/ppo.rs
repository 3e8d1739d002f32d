//! Proximal Policy Optimization (PPO) with a clipped surrogate objective.
//!
//! PPO is the reinforcement-learning baseline of Table 2 in the paper
//! (Appendix E: learning rate `1e-5`, batch `4·10^3` steps, 4 layers of 64
//! neurons, clip 0.2, GAE `λ = 0.95`, entropy coefficient `1e-4`). Unlike the
//! black-box optimizers it learns a policy directly from episodic interaction
//! with an environment rather than from threshold parameterizations, so it
//! uses the [`EpisodicEnvironment`] interface instead of
//! [`crate::objective::Objective`].
//!
//! The implementation minimizes *cost* (the paper's objectives are costs), so
//! internally rewards are the negated costs.

use crate::error::{OptimError, Result};
use crate::nn::{softmax, AdamOptimizer, Mlp};
use crate::optimizer::ConvergencePoint;
use rand::{Rng, RngCore};

/// The result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Observation after the step.
    pub observation: Vec<f64>,
    /// Cost incurred by the step (PPO minimizes the discounted sum of costs).
    pub cost: f64,
    /// Whether the episode terminated.
    pub done: bool,
}

/// A finite-action episodic environment, the interface PPO trains against.
pub trait EpisodicEnvironment {
    /// Dimension of the observation vector.
    fn observation_dim(&self) -> usize;

    /// Number of discrete actions.
    fn num_actions(&self) -> usize;

    /// Resets the environment and returns the initial observation.
    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Advances the environment by one step with the chosen action.
    fn step(&mut self, action: usize, rng: &mut dyn RngCore) -> StepOutcome;
}

/// Number of gradient epochs over each batch.
const EPOCHS: usize = 4;

/// GAE λ (paper: 0.95).
const GAE_LAMBDA: f64 = 0.95;

/// Entropy bonus coefficient (paper: 1e-4).
const ENTROPY_COEFFICIENT: f64 = 1e-4;

/// Configuration of the [`Ppo`] trainer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PpoConfig {
    /// Adam learning rate (paper: 1e-5; the defaults here are scaled for the
    /// smaller simulated problems).
    pub learning_rate: f64,
    /// Number of environment steps collected per policy update.
    pub batch_size: usize,
    /// Number of policy updates.
    pub iterations: usize,
    /// PPO clip parameter ε (paper: 0.2).
    pub clip: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Hidden-layer sizes of both the policy and the value network
    /// (paper: 4 layers of 64 neurons).
    pub hidden_layers: Vec<usize>,
    /// Maximum episode length before truncation.
    pub max_episode_length: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            learning_rate: 3e-3,
            batch_size: 1024,
            iterations: 30,
            clip: 0.2,
            gamma: 0.99,
            hidden_layers: vec![64, 64],
            max_episode_length: 200,
        }
    }
}

/// A trained stochastic policy over discrete actions.
#[derive(Debug, Clone)]
pub struct PpoPolicy {
    network: Mlp,
}

impl PpoPolicy {
    /// Action probabilities for an observation.
    fn action_probabilities(&self, observation: &[f64]) -> Vec<f64> {
        softmax(&self.network.predict(observation))
    }

    /// The greedy (most probable) action.
    pub fn greedy_action(&self, observation: &[f64]) -> usize {
        let probabilities = self.action_probabilities(observation);
        probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The result of a PPO training run.
#[derive(Debug, Clone)]
pub struct PpoResult {
    /// The trained policy.
    pub policy: PpoPolicy,
    /// Average undiscounted episode cost per training iteration (a
    /// convergence curve comparable to Fig. 7).
    pub history: Vec<ConvergencePoint>,
    /// Total number of environment steps consumed.
    pub environment_steps: usize,
}

struct Transition {
    observation: Vec<f64>,
    action: usize,
    log_probability: f64,
    cost: f64,
    value: f64,
    done: bool,
}

/// The PPO trainer. See [`PpoConfig`].
#[derive(Debug, Clone)]
pub struct Ppo {
    config: PpoConfig,
}

impl Ppo {
    /// Creates a PPO trainer with the given configuration.
    pub fn new(config: PpoConfig) -> Self {
        Ppo { config }
    }

    fn validate(&self, env: &dyn EpisodicEnvironment) -> Result<()> {
        if env.observation_dim() == 0 || env.num_actions() < 2 {
            return Err(OptimError::InvalidConfig {
                name: "environment",
                reason: "needs a non-empty observation and at least two actions".into(),
            });
        }
        if self.config.batch_size == 0 || self.config.iterations == 0 {
            return Err(OptimError::InvalidConfig {
                name: "batch_size/iterations",
                reason: "must all be at least 1".into(),
            });
        }
        if !(0.0 < self.config.clip && self.config.clip < 1.0) {
            return Err(OptimError::InvalidConfig {
                name: "clip",
                reason: format!("must lie in (0, 1), got {}", self.config.clip),
            });
        }
        if !(0.0 < self.config.gamma && self.config.gamma <= 1.0) {
            return Err(OptimError::InvalidConfig {
                name: "gamma",
                reason: format!("must lie in (0, 1], got {}", self.config.gamma),
            });
        }
        Ok(())
    }

    /// Trains a policy on the environment.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidConfig`] if the configuration or the
    /// environment dimensions are invalid.
    pub fn train(
        &self,
        env: &mut dyn EpisodicEnvironment,
        rng: &mut dyn RngCore,
    ) -> Result<PpoResult> {
        self.validate(env)?;
        let cfg = &self.config;
        let obs_dim = env.observation_dim();
        let num_actions = env.num_actions();

        let mut policy_sizes = vec![obs_dim];
        policy_sizes.extend(&cfg.hidden_layers);
        policy_sizes.push(num_actions);
        let mut value_sizes = vec![obs_dim];
        value_sizes.extend(&cfg.hidden_layers);
        value_sizes.push(1);

        let mut policy = Mlp::new(&policy_sizes, rng);
        let mut value = Mlp::new(&value_sizes, rng);
        let mut policy_adam = AdamOptimizer::new(&policy, cfg.learning_rate);
        let mut value_adam = AdamOptimizer::new(&value, cfg.learning_rate);

        let start = std::time::Instant::now();
        let mut history = Vec::with_capacity(cfg.iterations);
        let mut total_steps = 0usize;

        for _ in 0..cfg.iterations {
            // ---- Collect a batch of transitions. ----
            let mut transitions: Vec<Transition> = Vec::with_capacity(cfg.batch_size);
            let mut episode_costs: Vec<f64> = Vec::new();
            let mut observation = env.reset(rng);
            let mut episode_cost = 0.0;
            let mut episode_length = 0usize;

            while transitions.len() < cfg.batch_size {
                let logits = policy.predict(&observation);
                let probabilities = softmax(&logits);
                let action = sample_index(&probabilities, rng);
                let log_probability = probabilities[action].max(1e-12).ln();
                let state_value = value.predict(&observation)[0];

                let outcome = env.step(action, rng);
                episode_cost += outcome.cost;
                episode_length += 1;
                total_steps += 1;
                let truncated = episode_length >= cfg.max_episode_length;
                transitions.push(Transition {
                    observation: observation.clone(),
                    action,
                    log_probability,
                    cost: outcome.cost,
                    value: state_value,
                    done: outcome.done || truncated,
                });
                observation = outcome.observation;
                if outcome.done || truncated {
                    episode_costs.push(episode_cost / episode_length.max(1) as f64);
                    observation = env.reset(rng);
                    episode_cost = 0.0;
                    episode_length = 0;
                }
            }
            if episode_costs.is_empty() {
                episode_costs.push(episode_cost / episode_length.max(1) as f64);
            }

            // ---- Generalized advantage estimation on rewards = -costs. ----
            let bootstrap = value.predict(&observation)[0];
            let n = transitions.len();
            let mut advantages = vec![0.0; n];
            let mut returns = vec![0.0; n];
            let mut gae = 0.0;
            for t in (0..n).rev() {
                let next_value = if transitions[t].done {
                    0.0
                } else if t + 1 < n {
                    transitions[t + 1].value
                } else {
                    bootstrap
                };
                let reward = -transitions[t].cost;
                let delta = reward + cfg.gamma * next_value - transitions[t].value;
                gae = delta
                    + if transitions[t].done {
                        0.0
                    } else {
                        cfg.gamma * GAE_LAMBDA * gae
                    };
                advantages[t] = gae;
                returns[t] = advantages[t] + transitions[t].value;
            }
            // Normalize advantages.
            let adv_mean = advantages.iter().sum::<f64>() / n as f64;
            let adv_std = (advantages
                .iter()
                .map(|a| (a - adv_mean).powi(2))
                .sum::<f64>()
                / n as f64)
                .sqrt()
                .max(1e-8);
            for a in advantages.iter_mut() {
                *a = (*a - adv_mean) / adv_std;
            }

            // ---- Clipped-surrogate policy and value updates. ----
            for _ in 0..EPOCHS {
                let mut policy_gradient = policy.zero_gradient();
                let mut value_gradient = value.zero_gradient();
                for (t, transition) in transitions.iter().enumerate() {
                    let cache = policy.forward(&transition.observation);
                    let probabilities = softmax(cache.output());
                    let new_log_probability = probabilities[transition.action].max(1e-12).ln();
                    let ratio = (new_log_probability - transition.log_probability).exp();
                    let advantage = advantages[t];
                    let clipped = ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip);
                    // Surrogate objective (to maximize): min(r·A, clip(r)·A).
                    // d/d(logits) of -surrogate, with the gradient passing
                    // through the unclipped branch only when it is active.
                    let use_unclipped = ratio * advantage <= clipped * advantage + 1e-12;
                    let mut logit_gradient = vec![0.0; probabilities.len()];
                    if use_unclipped {
                        // d(ratio)/d(logit_k) = ratio * (1[k=a] - p_k).
                        for (k, &p) in probabilities.iter().enumerate() {
                            let indicator = if k == transition.action { 1.0 } else { 0.0 };
                            logit_gradient[k] = -advantage * ratio * (indicator - p);
                        }
                    }
                    // Entropy bonus: maximize H = -Σ p ln p.
                    for (k, &p) in probabilities.iter().enumerate() {
                        let mut entropy_grad = 0.0;
                        for (j, &pj) in probabilities.iter().enumerate() {
                            let indicator = if j == k { 1.0 } else { 0.0 };
                            entropy_grad += -(pj.max(1e-12).ln() + 1.0) * pj * (indicator - p);
                        }
                        logit_gradient[k] -= ENTROPY_COEFFICIENT * entropy_grad;
                    }
                    policy.backward(&cache, &logit_gradient, &mut policy_gradient);

                    // Value regression towards the GAE returns.
                    let value_cache = value.forward(&transition.observation);
                    let error = value_cache.output()[0] - returns[t];
                    value.backward(&value_cache, &[2.0 * error], &mut value_gradient);
                }
                policy_adam.apply(&mut policy, &policy_gradient);
                value_adam.apply(&mut value, &value_gradient);
            }

            let mean_cost = episode_costs.iter().sum::<f64>() / episode_costs.len() as f64;
            history.push(ConvergencePoint {
                evaluations: total_steps,
                elapsed_seconds: start.elapsed().as_secs_f64(),
                best_value: mean_cost,
            });
        }

        Ok(PpoResult {
            policy: PpoPolicy { network: policy },
            history,
            environment_steps: total_steps,
        })
    }

    /// A short name used in experiment reports.
    pub fn name(&self) -> &'static str {
        "ppo"
    }
}

fn sample_index(probabilities: &[f64], rng: &mut dyn RngCore) -> usize {
    let mut u = rng.random::<f64>();
    for (i, &p) in probabilities.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probabilities.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A two-state chain: action 1 keeps the agent in the cheap state,
    /// action 0 drifts it to an expensive state. The optimal policy is to
    /// always pick action 1.
    struct DriftEnvironment {
        state: f64,
    }

    impl EpisodicEnvironment for DriftEnvironment {
        fn observation_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self, _rng: &mut dyn RngCore) -> Vec<f64> {
            self.state = 0.5;
            vec![self.state]
        }
        fn step(&mut self, action: usize, _rng: &mut dyn RngCore) -> StepOutcome {
            if action == 1 {
                self.state = (self.state - 0.1).max(0.0);
            } else {
                self.state = (self.state + 0.1).min(1.0);
            }
            StepOutcome {
                observation: vec![self.state],
                cost: self.state,
                done: self.state >= 1.0,
            }
        }
    }

    #[test]
    fn ppo_learns_to_avoid_costly_state() {
        let mut env = DriftEnvironment { state: 0.5 };
        let config = PpoConfig {
            iterations: 15,
            batch_size: 256,
            max_episode_length: 40,
            hidden_layers: vec![16],
            learning_rate: 0.01,
            ..PpoConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let result = Ppo::new(config).train(&mut env, &mut rng).unwrap();
        // The learned policy should prefer action 1 in the high-cost region.
        let probabilities = result.policy.action_probabilities(&[0.9]);
        assert!(
            probabilities[1] > 0.6,
            "policy should prefer the cost-reducing action, got {probabilities:?}"
        );
        assert_eq!(result.policy.greedy_action(&[0.9]), 1);
        // Training cost should go down over iterations.
        let first = result.history.first().unwrap().best_value;
        let last = result.history.last().unwrap().best_value;
        assert!(
            last <= first + 0.05,
            "cost did not decrease: {first} -> {last}"
        );
        assert!(result.environment_steps >= 15 * 256);
    }

    #[test]
    fn ppo_validates_configuration() {
        let mut env = DriftEnvironment { state: 0.5 };
        let mut rng = StdRng::seed_from_u64(0);
        for config in [
            PpoConfig {
                batch_size: 0,
                ..PpoConfig::default()
            },
            PpoConfig {
                clip: 0.0,
                ..PpoConfig::default()
            },
            PpoConfig {
                gamma: 0.0,
                ..PpoConfig::default()
            },
            PpoConfig {
                iterations: 0,
                ..PpoConfig::default()
            },
        ] {
            assert!(Ppo::new(config).train(&mut env, &mut rng).is_err());
        }
    }

    #[test]
    fn policy_probabilities_sum_to_one() {
        let mut env = DriftEnvironment { state: 0.5 };
        let config = PpoConfig {
            iterations: 1,
            batch_size: 64,
            hidden_layers: vec![8],
            ..PpoConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let result = Ppo::new(config).train(&mut env, &mut rng).unwrap();
        let probabilities = result.policy.action_probabilities(&[0.5]);
        assert!((probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn name_is_ppo() {
        assert_eq!(Ppo::new(PpoConfig::default()).name(), "ppo");
    }
}
