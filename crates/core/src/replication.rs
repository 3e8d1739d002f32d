//! Problem 2: optimal replication factor.
//!
//! The system controller tracks the expected number of healthy nodes `s_t`
//! (computed from the node beliefs, Eq. 8) and decides at every step whether
//! to add a node (`a_t ∈ {0, 1}`). It minimizes the long-run average number
//! of nodes (Eq. 9) subject to the availability constraint
//! `T(A) ≥ ε_A` — the classic inventory replenishment trade-off. The problem
//! is a constrained MDP solved exactly by the occupation-measure LP of
//! Algorithm 2; Theorem 2 guarantees the optimal policy mixes at most two
//! threshold policies.

use crate::error::{CoreError, Result};
use rand::Rng;
use tolerance_markov::dist::{Binomial, DiscreteDistribution};
use tolerance_pomdp::cmdp::{Cmdp, CmdpConstraint, CmdpSolution, ConstraintSense};
use tolerance_pomdp::mdp::Mdp;

/// Configuration of the replication problem.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplicationConfig {
    /// Maximum number of nodes `s_max` (paper: 13 in the testbed evaluation,
    /// up to 2048 in Fig. 9).
    pub s_max: usize,
    /// The tolerance threshold `f`: service is available while at least
    /// `f + 1` nodes are healthy (Proposition 1 / Eq. 9).
    pub fault_threshold: usize,
    /// Lower bound `ε_A` on the long-run average availability (paper: 0.9).
    pub availability_target: f64,
    /// Per-step probability that a healthy node remains healthy (one minus
    /// the per-step failure probability); derived from the node parameters,
    /// e.g. `(1 - p_A)(1 - p_C1)` when failures are not recovered within the
    /// step, or a larger value when node controllers recover promptly.
    pub node_survival_probability: f64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            s_max: 13,
            fault_threshold: 3,
            availability_target: 0.9,
            node_survival_probability: 0.9,
        }
    }
}

/// The randomized stationary replication strategy produced by Algorithm 2:
/// `π(a = 1 | s)` is the probability of adding a node when the expected
/// number of healthy nodes is `s` (Fig. 13a).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplicationStrategy {
    add_probability: Vec<f64>,
    objective: f64,
    availability: f64,
    lp_pivots: usize,
}

impl ReplicationStrategy {
    /// `π(a = 1 | s)` for every state `s ∈ {0, ..., s_max}`.
    pub fn add_probabilities(&self) -> &[f64] {
        &self.add_probability
    }

    /// The probability of adding a node in state `s` (0 beyond `s_max`).
    pub(crate) fn add_probability(&self, state: usize) -> f64 {
        self.add_probability.get(state).copied().unwrap_or(0.0)
    }

    /// Samples the add decision in state `s`.
    pub fn decide<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> bool {
        rng.random::<f64>() < self.add_probability(state)
    }

    /// The optimal long-run average number of nodes (the objective of Eq. 9).
    pub fn expected_cost(&self) -> f64 {
        self.objective
    }

    /// The long-run average availability achieved by the strategy.
    pub fn availability(&self) -> f64 {
        self.availability
    }

    /// Number of LP pivots Algorithm 2 needed (a size-independent measure of
    /// the work reported in Fig. 9).
    pub fn lp_pivots(&self) -> usize {
        self.lp_pivots
    }

    /// Checks the Theorem 2 structure: the policy must be non-increasing in
    /// `s` up to at most one randomized switching state (a mixture of two
    /// threshold policies).
    pub fn has_threshold_structure(&self, tolerance: f64) -> bool {
        // Quantize to {add, randomize, keep} and require the pattern
        // 1...1 [fraction] 0...0.
        let mut phase = 0u8; // 0 = adding, 1 = after the switch
        for &p in &self.add_probability {
            let symbol = if p >= 1.0 - tolerance {
                0u8
            } else if p <= tolerance {
                2u8
            } else {
                1u8
            };
            match (phase, symbol) {
                (0, 0) => {}
                (0, 1) | (0, 2) => phase = 1,
                (1, 2) => {}
                (1, 0) | (1, 1) => return false,
                _ => {}
            }
        }
        true
    }
}

impl From<CmdpSolution> for ReplicationStrategy {
    fn from(solution: CmdpSolution) -> Self {
        ReplicationStrategy {
            add_probability: solution.policy.iter().map(|row| row[1]).collect(),
            objective: solution.objective,
            availability: solution.constraint_values.first().copied().unwrap_or(0.0),
            lp_pivots: solution.lp_pivots,
        }
    }
}

/// Problem 2: the replication CMDP.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationProblem {
    config: ReplicationConfig,
}

impl ReplicationProblem {
    /// Creates the problem.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the configuration is
    /// inconsistent (e.g. `s_max <= f`, probabilities outside `[0, 1]`).
    pub fn new(config: ReplicationConfig) -> Result<Self> {
        if config.s_max <= config.fault_threshold {
            return Err(CoreError::InvalidParameter {
                name: "s_max",
                reason: format!(
                    "must exceed the fault threshold {} to ever be available",
                    config.fault_threshold
                ),
            });
        }
        if !(0.0..=1.0).contains(&config.availability_target) {
            return Err(CoreError::InvalidParameter {
                name: "availability_target",
                reason: format!("must lie in [0, 1], got {}", config.availability_target),
            });
        }
        if !(0.0 < config.node_survival_probability && config.node_survival_probability <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "node_survival_probability",
                reason: format!(
                    "must lie in (0, 1], got {}",
                    config.node_survival_probability
                ),
            });
        }
        Ok(ReplicationProblem { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Number of states of the CMDP (`s ∈ {0, ..., s_max}`).
    pub fn num_states(&self) -> usize {
        self.config.s_max + 1
    }

    /// The transition function `f_S(s' | s, a)` of Eq. (8): after optionally
    /// adding a node, each healthy node independently survives the step with
    /// probability `node_survival_probability`, so the next state is a
    /// binomial thinning clamped to `[0, s_max]`. The rows of this function
    /// for a few states are what Fig. 16 plots.
    pub fn transition_row(&self, state: usize, add: bool) -> Vec<f64> {
        let s_max = self.config.s_max;
        let after_add = (state + usize::from(add)).min(s_max);
        let binomial = Binomial::new(after_add as u64, self.config.node_survival_probability)
            .expect("validated probability");
        let mut row = vec![0.0; s_max + 1];
        for (next, slot) in row.iter_mut().enumerate() {
            *slot = binomial.pmf(next as u64);
        }
        // Numerical safety: renormalize (the binomial already sums to 1).
        let total: f64 = row.iter().sum();
        if total > 0.0 {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
        row
    }

    /// Builds the CMDP of Algorithm 2: cost = number of nodes kept, and the
    /// availability signal `1{s >= f + 1}` constrained to average at least
    /// `ε_A`.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn to_cmdp(&self) -> Result<Cmdp> {
        let states = self.num_states();
        let transition: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|a| {
                (0..states)
                    .map(|s| self.transition_row(s, a == 1))
                    .collect()
            })
            .collect();
        // Cost of Eq. (9): the number of nodes operated this step (adding a
        // node is accounted for by paying for it immediately).
        let cost: Vec<Vec<f64>> = (0..states)
            .map(|s| vec![s as f64, (s + 1).min(self.config.s_max) as f64])
            .collect();
        let mdp = Mdp::new(transition, cost)?;
        let availability_signal: Vec<Vec<f64>> = (0..states)
            .map(|s| {
                let available = if s > self.config.fault_threshold {
                    1.0
                } else {
                    0.0
                };
                vec![available, available]
            })
            .collect();
        let constraint = CmdpConstraint {
            signal: availability_signal,
            sense: ConstraintSense::AtLeast,
            bound: self.config.availability_target,
        };
        Ok(Cmdp::new(mdp, vec![constraint])?)
    }

    /// Solves the problem with Algorithm 2 (the occupation-measure LP).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] if no policy meets the availability
    /// target (assumption A of Theorem 2 fails) and propagates LP failures.
    pub fn solve(&self) -> Result<ReplicationStrategy> {
        Ok(self.to_cmdp()?.solve()?.into())
    }

    /// The expected number of healthy nodes implied by a set of node beliefs
    /// (the state estimate `⌊Σ_i (1 - b_i)⌋` of Eq. 8).
    pub(crate) fn expected_healthy(beliefs: &[f64]) -> usize {
        beliefs
            .iter()
            .map(|b| 1.0 - b.clamp(0.0, 1.0))
            .sum::<f64>()
            .floor()
            .max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(s_max: usize, epsilon: f64) -> ReplicationProblem {
        ReplicationProblem::new(ReplicationConfig {
            s_max,
            fault_threshold: 2,
            availability_target: epsilon,
            node_survival_probability: 0.9,
        })
        .unwrap()
    }

    /// Asserts that Algorithm 2's LP solution for the default problem at
    /// `s_max` is a stationary distribution meeting the availability
    /// constraint with equality at the known optimum (5.15326 nodes: the
    /// optimum does not depend on `s_max` once the unconstrained tail is
    /// never visited), and that the policy has the shape Theorem 2 promises.
    fn assert_occupation_measure_is_a_distribution(s_max: usize) {
        let problem = ReplicationProblem::new(ReplicationConfig {
            s_max,
            ..ReplicationConfig::default()
        })
        .unwrap();
        let solution = problem
            .to_cmdp()
            .unwrap()
            .solve()
            .unwrap_or_else(|e| panic!("s_max {s_max}: {e}"));
        let mass: f64 = solution.occupation.iter().flatten().sum();
        assert!(
            (mass - 1.0).abs() < 1e-9,
            "s_max {s_max}: the occupation measure sums to {mass}"
        );
        let strategy = ReplicationStrategy::from(solution);
        assert!(
            (strategy.availability() - 0.9).abs() < 1e-6,
            "s_max {s_max}: availability {}",
            strategy.availability()
        );
        assert!(
            (strategy.expected_cost() - 5.15326).abs() < 1e-4,
            "s_max {s_max}: objective {}",
            strategy.expected_cost()
        );
        assert!(
            strategy.has_threshold_structure(1e-6),
            "s_max {s_max}: policy {:?} is not a threshold mixture",
            strategy.add_probabilities()
        );
    }

    #[test]
    fn algorithm2_occupation_measure_is_a_distribution() {
        for s_max in [13, 16, 24, 32, 48, 64, 96, 128, 256, 512] {
            assert_occupation_measure_is_a_distribution(s_max);
        }
    }

    #[test]
    #[ignore = "the last two points of Fig. 9: 1.5 s and 13 s in release"]
    fn algorithm2_occupation_measure_is_a_distribution_up_to_fig9s_2048() {
        for s_max in [1024, 2048] {
            assert_occupation_measure_is_a_distribution(s_max);
        }
    }

    #[test]
    fn construction_validates_configuration() {
        assert!(ReplicationProblem::new(ReplicationConfig {
            s_max: 2,
            fault_threshold: 3,
            ..ReplicationConfig::default()
        })
        .is_err());
        assert!(ReplicationProblem::new(ReplicationConfig {
            availability_target: 1.5,
            ..ReplicationConfig::default()
        })
        .is_err());
        assert!(ReplicationProblem::new(ReplicationConfig {
            node_survival_probability: 0.0,
            ..ReplicationConfig::default()
        })
        .is_err());
    }

    #[test]
    fn transition_rows_are_stochastic_and_shift_with_action() {
        let p = problem(10, 0.9);
        for s in 0..=10usize {
            for add in [false, true] {
                let row = p.transition_row(s, add);
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
        // Adding a node shifts the distribution upwards (in expectation).
        let without: f64 = p
            .transition_row(5, false)
            .iter()
            .enumerate()
            .map(|(s, q)| s as f64 * q)
            .sum();
        let with: f64 = p
            .transition_row(5, true)
            .iter()
            .enumerate()
            .map(|(s, q)| s as f64 * q)
            .sum();
        assert!(with > without);
        // At s_max the add action saturates.
        let saturated = p.transition_row(10, true);
        let baseline = p.transition_row(10, false);
        assert_eq!(saturated, baseline);
    }

    #[test]
    fn algorithm2_meets_the_availability_constraint() {
        let p = problem(10, 0.9);
        let strategy = p.solve().unwrap();
        assert!(
            strategy.availability() >= 0.9 - 1e-6,
            "availability {} below the target",
            strategy.availability()
        );
        // The optimal cost is at least the number of nodes needed for
        // availability (f + 1 = 3) times the availability mass.
        assert!(strategy.expected_cost() >= 2.5);
        assert!(strategy.lp_pivots() > 0);
    }

    #[test]
    fn optimal_policy_has_theorem2_threshold_structure() {
        let p = problem(12, 0.92);
        let strategy = p.solve().unwrap();
        assert!(
            strategy.has_threshold_structure(1e-6),
            "policy {:?} is not a threshold mixture",
            strategy.add_probabilities()
        );
        // Low states must add with high probability, high states must not.
        assert!(strategy.add_probability(0) > 0.5);
        assert!(strategy.add_probability(12) < 0.5);
    }

    #[test]
    fn tighter_availability_costs_more() {
        let relaxed = problem(10, 0.8).solve().unwrap();
        let strict = problem(10, 0.99).solve().unwrap();
        assert!(strict.expected_cost() >= relaxed.expected_cost() - 1e-9);
        assert!(strict.availability() >= 0.99 - 1e-6);
    }

    #[test]
    fn impossible_availability_is_infeasible() {
        // With survival probability 0.1 and s_max = 4, sustaining 3 healthy
        // nodes 99.9% of the time is impossible.
        let p = ReplicationProblem::new(ReplicationConfig {
            s_max: 4,
            fault_threshold: 2,
            availability_target: 0.999,
            node_survival_probability: 0.1,
        })
        .unwrap();
        assert_eq!(p.solve().unwrap_err(), CoreError::Infeasible);
    }

    #[test]
    fn expected_healthy_floors_the_belief_sum() {
        assert_eq!(ReplicationProblem::expected_healthy(&[0.0, 0.0, 0.0]), 3);
        assert_eq!(ReplicationProblem::expected_healthy(&[0.5, 0.5, 0.0]), 2);
        assert_eq!(ReplicationProblem::expected_healthy(&[0.9, 0.9, 0.9]), 0);
        assert_eq!(ReplicationProblem::expected_healthy(&[]), 0);
        // Values outside [0, 1] are clamped.
        assert_eq!(ReplicationProblem::expected_healthy(&[-1.0, 2.0]), 1);
    }

    #[test]
    fn strategy_sampling_follows_probabilities() {
        let p = problem(8, 0.9);
        let strategy = p.solve().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let state = 0usize;
        let adds = (0..2000)
            .filter(|_| strategy.decide(state, &mut rng))
            .count();
        let fraction = adds as f64 / 2000.0;
        assert!((fraction - strategy.add_probability(state)).abs() < 0.05);
        assert!(
            !strategy.decide(100, &mut rng),
            "states beyond s_max never add"
        );
    }
}
