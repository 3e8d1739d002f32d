//! Algorithms 1 and 2 of the paper.
//!
//! * [`Alg1`] — parametric optimization of threshold recovery strategies
//!   (Problem 1). Theorem 1 justifies restricting the search to threshold
//!   strategies, which turns the PSPACE-hard POMDP into a low-dimensional
//!   stochastic optimization over `[0, 1]^d` solved with any of the
//!   black-box optimizers of `tolerance-optim` (CEM, DE, BO, SPSA). The PPO
//!   and Incremental Pruning baselines of Table 2 are provided as well.
//!
//! Algorithm 2, the occupation-measure LP of the replication CMDP (Problem
//! 2), is [`crate::replication::ReplicationProblem::solve`].

use crate::error::{CoreError, Result};
use crate::node_model::NodeAction;
use crate::recovery::{RecoveryProblem, ThresholdStrategy};
use crate::runtime::WorkerPool;
use rand::RngCore;
use rand::SeedableRng;
use tolerance_optim::bayesian::{BayesianOptimization, BoConfig};
use tolerance_optim::cem::{CemConfig, CrossEntropyMethod};
use tolerance_optim::de::{DeConfig, DifferentialEvolution};
use tolerance_optim::objective::Objective;
use tolerance_optim::optimizer::{OptimizationResult, Optimizer};
use tolerance_optim::ppo::{EpisodicEnvironment, Ppo, PpoConfig, StepOutcome};
use tolerance_optim::spsa::{Spsa, SpsaConfig};
use tolerance_pomdp::solvers::IncrementalPruning;

/// Which black-box optimizer Algorithm 1 plugs in (Table 2 compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OptimizerKind {
    /// Cross-Entropy Method (the paper's default).
    Cem,
    /// Differential Evolution.
    De,
    /// Bayesian Optimization.
    Bo,
    /// Simultaneous Perturbation Stochastic Approximation.
    Spsa,
}

impl OptimizerKind {
    /// The short name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            OptimizerKind::Cem => "cem",
            OptimizerKind::De => "de",
            OptimizerKind::Bo => "bo",
            OptimizerKind::Spsa => "spsa",
        }
    }
}

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Alg1Config {
    /// Number of simulated episodes averaged per objective evaluation
    /// (the `M = 50` of Appendix E).
    pub evaluation_episodes: usize,
    /// Episode horizon in time-steps.
    pub horizon: u32,
    /// Optimizer iterations (generations for CEM/DE, BO/SPSA iterations).
    pub iterations: usize,
    /// Population size for the population-based optimizers.
    pub population: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Alg1Config {
    fn default() -> Self {
        Alg1Config {
            evaluation_episodes: 50,
            horizon: 100,
            iterations: 30,
            population: 40,
            seed: 0,
        }
    }
}

/// The outcome of running Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Alg1Outcome {
    /// The near-optimal threshold strategy found.
    pub strategy: ThresholdStrategy,
    /// Estimated objective value `J_i` of the strategy.
    pub objective: f64,
    /// Raw optimizer result (convergence curve, evaluation counts), used by
    /// the Fig. 7 / Fig. 8 harness.
    pub optimization: OptimizationResult,
}

/// Algorithm 1: parametric optimization of recovery thresholds.
#[derive(Debug, Clone)]
pub struct Alg1 {
    config: Alg1Config,
}

struct RecoveryObjective<'a> {
    problem: &'a RecoveryProblem,
    episodes: usize,
    horizon: u32,
}

impl Objective for RecoveryObjective<'_> {
    fn dimension(&self) -> usize {
        self.problem.parameter_dimension()
    }

    fn evaluate(&self, point: &[f64], seed: u64) -> f64 {
        let strategy = self
            .problem
            .strategy_from_parameters(point)
            .expect("clamped parameters are always valid thresholds");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.problem
            .evaluate_strategy(&strategy, self.episodes.max(1), self.horizon, &mut rng)
    }

    /// The rollouts of a batch are independent, so they run on the process's
    /// worker pool; the values come back in job order, bit for bit the
    /// serial ones.
    fn evaluate_batch(&self, jobs: &[(Vec<f64>, u64)]) -> Vec<f64> {
        let pool = WorkerPool::global();
        pool.run_indexed(jobs.len(), pool.workers(), |job| {
            self.evaluate(&jobs[job].0, jobs[job].1)
        })
    }
}

impl Alg1 {
    /// Creates Algorithm 1 with the given configuration.
    pub fn new(config: Alg1Config) -> Self {
        Alg1 { config }
    }

    /// Runs Algorithm 1 on a recovery problem with the chosen optimizer.
    ///
    /// # Errors
    ///
    /// Propagates optimizer failures.
    pub fn solve(
        &self,
        problem: &RecoveryProblem,
        optimizer: OptimizerKind,
        rng: &mut dyn RngCore,
    ) -> Result<Alg1Outcome> {
        let objective = RecoveryObjective {
            problem,
            episodes: self.config.evaluation_episodes,
            horizon: self.config.horizon,
        };
        let result = match optimizer {
            OptimizerKind::Cem => CrossEntropyMethod::new(CemConfig {
                population: self.config.population,
                iterations: self.config.iterations,
                ..CemConfig::default()
            })
            .minimize(&objective, rng),
            OptimizerKind::De => DifferentialEvolution::new(DeConfig {
                population: self.config.population.max(4),
                generations: self.config.iterations,
                ..DeConfig::default()
            })
            .minimize(&objective, rng),
            OptimizerKind::Bo => BayesianOptimization::new(BoConfig {
                initial_points: 8,
                iterations: self.config.iterations,
                ..BoConfig::default()
            })
            .minimize(&objective, rng),
            OptimizerKind::Spsa => Spsa::new(SpsaConfig {
                iterations: self.config.iterations * self.config.population / 3,
                ..SpsaConfig::default()
            })
            .minimize(&objective, rng),
        }
        .map_err(CoreError::from)?;
        let strategy = problem.strategy_from_parameters(&result.best_point)?;
        Ok(Alg1Outcome {
            strategy,
            objective: result.best_value,
            optimization: result,
        })
    }

    /// Solves the recovery problem exactly with Incremental Pruning (the IP
    /// baseline of Table 2) and extracts the induced threshold strategy by
    /// scanning the greedy action over a belief grid.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve_with_incremental_pruning(
        &self,
        problem: &RecoveryProblem,
        discount: f64,
        horizon: Option<usize>,
    ) -> Result<Alg1Outcome> {
        let pomdp = problem.model().to_pomdp(problem.config().eta, discount)?;
        let solver = IncrementalPruning::default();
        let start = std::time::Instant::now();
        let value_function = match horizon {
            Some(h) => solver.solve_finite_horizon(&pomdp, h)?,
            None => solver.solve_infinite_horizon(&pomdp, 1e-4, 200)?,
        };
        // Extract the belief threshold: the first grid point whose greedy
        // action is Recover.
        let grid = 200usize;
        let mut threshold = 1.0;
        for i in 0..=grid {
            let b = i as f64 / grid as f64;
            if value_function.greedy_action(b) == Some(1) {
                threshold = b;
                break;
            }
        }
        let strategy = ThresholdStrategy::new(vec![threshold], problem.config().delta_r)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let objective = problem.evaluate_strategy(
            &strategy,
            self.config.evaluation_episodes.max(20),
            self.config.horizon,
            &mut rng,
        );
        let optimization = OptimizationResult {
            best_point: vec![threshold],
            best_value: objective,
            evaluations: 0,
            history: vec![tolerance_optim::optimizer::ConvergencePoint {
                evaluations: 0,
                elapsed_seconds: start.elapsed().as_secs_f64(),
                best_value: objective,
            }],
        };
        Ok(Alg1Outcome {
            strategy,
            objective,
            optimization,
        })
    }

    /// Trains the PPO baseline of Table 2 on the recovery problem and
    /// evaluates the learned policy. Returns the mean objective of the
    /// learned policy together with the training history.
    ///
    /// # Errors
    ///
    /// Propagates PPO failures.
    pub fn solve_with_ppo(
        &self,
        problem: &RecoveryProblem,
        ppo_config: PpoConfig,
        rng: &mut dyn RngCore,
    ) -> Result<(f64, OptimizationResult)> {
        let mut environment = RecoveryEnvironment::new(problem, self.config.horizon);
        let trainer = Ppo::new(ppo_config);
        let trained = trainer
            .train(&mut environment, rng)
            .map_err(CoreError::from)?;
        // Evaluate the learned policy on fresh episodes.
        let mut eval_rng = rand::rngs::StdRng::seed_from_u64(self.config.seed.wrapping_add(17));
        let policy = trained.policy;
        let horizon = self.config.horizon;
        let episodes = self.config.evaluation_episodes.max(20);
        let mut total = 0.0;
        for _ in 0..episodes {
            let outcome = problem.simulate_policy(
                |belief, steps| {
                    let observation = RecoveryEnvironment::encode(belief, steps, horizon);
                    if policy.greedy_action(&observation) == 1 {
                        NodeAction::Recover
                    } else {
                        NodeAction::Wait
                    }
                },
                horizon,
                &mut eval_rng,
            );
            total += outcome.average_cost;
        }
        let objective = total / episodes as f64;
        let history = trained
            .history
            .iter()
            .map(|p| tolerance_optim::optimizer::ConvergencePoint {
                evaluations: p.evaluations,
                elapsed_seconds: p.elapsed_seconds,
                best_value: p.best_value,
            })
            .collect();
        let optimization = OptimizationResult {
            best_point: vec![],
            best_value: objective,
            evaluations: trained.environment_steps,
            history,
        };
        Ok((objective, optimization))
    }
}

/// The recovery POMDP wrapped as an episodic environment for the PPO
/// baseline: the observation is `[belief, normalized time since recovery]`
/// and the actions are wait / recover.
struct RecoveryEnvironment<'a> {
    problem: &'a RecoveryProblem,
    horizon: u32,
    state: crate::node_model::NodeState,
    belief: f64,
    steps_since_recovery: u32,
    step: u32,
    previous_action: NodeAction,
}

impl<'a> RecoveryEnvironment<'a> {
    /// Creates the environment.
    pub fn new(problem: &'a RecoveryProblem, horizon: u32) -> Self {
        RecoveryEnvironment {
            problem,
            horizon,
            state: crate::node_model::NodeState::Healthy,
            belief: 0.0,
            steps_since_recovery: 0,
            step: 0,
            previous_action: NodeAction::Wait,
        }
    }

    fn encode(belief: f64, steps_since_recovery: u32, horizon: u32) -> Vec<f64> {
        vec![
            belief,
            (steps_since_recovery as f64 / horizon.max(1) as f64).min(1.0),
        ]
    }
}

impl EpisodicEnvironment for RecoveryEnvironment<'_> {
    fn observation_dim(&self) -> usize {
        2
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        use rand::Rng;
        let p_attack = self.problem.model().parameters().p_attack;
        self.state = if rng.random::<f64>() < p_attack {
            crate::node_model::NodeState::Compromised
        } else {
            crate::node_model::NodeState::Healthy
        };
        self.belief = p_attack;
        self.steps_since_recovery = 0;
        self.step = 0;
        self.previous_action = NodeAction::Wait;
        Self::encode(self.belief, self.steps_since_recovery, self.horizon)
    }

    fn step(&mut self, action: usize, rng: &mut dyn RngCore) -> StepOutcome {
        use crate::node_model::NodeState;
        let model = self.problem.model();
        let eta = self.problem.config().eta;
        let node_action = if action == 1 {
            NodeAction::Recover
        } else {
            NodeAction::Wait
        };

        // Observe, update belief, pay the cost, transition.
        let alerts = model.observations().sample(self.state, rng);
        self.belief = model.belief_update(self.belief, self.previous_action, alerts);
        let cost = model.cost(self.state, node_action, eta);
        match node_action {
            NodeAction::Recover => {
                self.steps_since_recovery = 0;
                self.belief = model.parameters().p_attack;
            }
            NodeAction::Wait => self.steps_since_recovery += 1,
        }
        self.state = model.sample_transition(rng, self.state, node_action);
        self.previous_action = node_action;
        self.step += 1;
        // Enforce the BTR constraint as an episode boundary.
        let btr_exceeded = self
            .problem
            .config()
            .delta_r
            .map(|d| self.steps_since_recovery >= d)
            .unwrap_or(false);
        let done = self.state == NodeState::Crashed || self.step >= self.horizon || btr_exceeded;
        StepOutcome {
            observation: Self::encode(self.belief, self.steps_since_recovery, self.horizon),
            cost,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_model::{NodeModel, NodeParameters};
    use crate::observation::ObservationModel;
    use crate::recovery::RecoveryConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(delta_r: Option<u32>) -> RecoveryProblem {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        RecoveryProblem::new(model, RecoveryConfig { eta: 2.0, delta_r }).unwrap()
    }

    fn fast_config() -> Alg1Config {
        Alg1Config {
            evaluation_episodes: 10,
            horizon: 60,
            iterations: 10,
            population: 15,
            seed: 1,
        }
    }

    #[test]
    fn alg1_with_cem_finds_a_good_threshold() {
        let p = problem(None);
        let alg = Alg1::new(fast_config());
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = alg.solve(&p, OptimizerKind::Cem, &mut rng).unwrap();
        // The threshold must be interior (neither never- nor always-recover),
        // and the cost should be clearly below the never-recover cost (~2)
        // and the always-recover cost (~1).
        let threshold = outcome.strategy.threshold_at(0);
        assert!(threshold > 0.05 && threshold < 1.0, "threshold {threshold}");
        assert!(outcome.objective < 0.9, "objective {}", outcome.objective);
        assert!(!outcome.optimization.history.is_empty());
    }

    #[test]
    fn alg1_supports_all_optimizer_kinds() {
        let p = problem(None);
        let config = Alg1Config {
            evaluation_episodes: 5,
            horizon: 40,
            iterations: 4,
            population: 8,
            seed: 2,
        };
        let alg = Alg1::new(config);
        for kind in [
            OptimizerKind::Cem,
            OptimizerKind::De,
            OptimizerKind::Bo,
            OptimizerKind::Spsa,
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let outcome = alg.solve(&p, kind, &mut rng).unwrap();
            assert!(
                outcome.objective.is_finite(),
                "{} produced a non-finite objective",
                kind.name()
            );
            assert!(!outcome.strategy.thresholds().is_empty());
        }
        assert_eq!(OptimizerKind::Cem.name(), "cem");
        assert_eq!(OptimizerKind::Spsa.name(), "spsa");
    }

    #[test]
    fn alg1_with_btr_constraint_produces_time_dependent_thresholds() {
        let p = problem(Some(5));
        let alg = Alg1::new(fast_config());
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = alg.solve(&p, OptimizerKind::De, &mut rng).unwrap();
        assert_eq!(outcome.strategy.thresholds().len(), 4);
        assert_eq!(outcome.strategy.delta_r(), Some(5));
    }

    #[test]
    fn incremental_pruning_baseline_agrees_with_cem() {
        let p = problem(None);
        let alg = Alg1::new(fast_config());
        let ip = alg
            .solve_with_incremental_pruning(&p, 0.95, Some(10))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let cem = alg.solve(&p, OptimizerKind::Cem, &mut rng).unwrap();
        // The two methods should produce strategies of comparable quality
        // (IP is exact on the discounted surrogate, CEM on the average-cost
        // simulation); allow a generous band.
        assert!(
            (ip.objective - cem.objective).abs() < 0.35,
            "ip {} vs cem {}",
            ip.objective,
            cem.objective
        );
        // IP's threshold must be interior as well.
        let threshold = ip.strategy.threshold_at(0);
        assert!(
            threshold > 0.01 && threshold < 1.0,
            "ip threshold {threshold}"
        );
    }

    #[test]
    fn ppo_baseline_trains_and_evaluates() {
        let p = problem(None);
        let alg = Alg1::new(Alg1Config {
            evaluation_episodes: 10,
            horizon: 50,
            ..fast_config()
        });
        let mut rng = StdRng::seed_from_u64(13);
        let ppo_config = PpoConfig {
            iterations: 4,
            batch_size: 256,
            hidden_layers: vec![16, 16],
            learning_rate: 0.005,
            max_episode_length: 50,
            ..PpoConfig::default()
        };
        let (objective, result) = alg.solve_with_ppo(&p, ppo_config, &mut rng).unwrap();
        // Pinned before the environment stopped cloning the model on every
        // step: borrowing it must not move the trained policy or its score.
        assert_eq!(
            objective.to_bits(),
            0.34800000000000003f64.to_bits(),
            "PPO objective {objective:?}"
        );
        assert_eq!(result.history.len(), 4);
    }
}
