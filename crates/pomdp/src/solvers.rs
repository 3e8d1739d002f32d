//! Exact POMDP solvers.
//!
//! [`IncrementalPruning`] is the dynamic-programming baseline of Table 2 in
//! the paper (Cassandra, Littman & Zhang, UAI'97): it performs exact value
//! iteration over alpha-vector sets, pruning after every cross sum. The paper
//! reports that it is exact but becomes intractable as the horizon grows
//! (`Δ_R → ∞`), which this reproduction observes as well; the bench harness
//! therefore runs it only on bounded horizons.

use crate::alpha::{cross_sum, AlphaVector, ValueFunction};
use crate::belief::Belief;
use crate::error::{PomdpError, Result};
use crate::pomdp::Pomdp;

/// Configuration of the [`IncrementalPruning`] solver.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalPruningConfig {
    /// Numerical tolerance of the pruning LPs.
    pub pruning_tolerance: f64,
    /// Hard cap on the number of alpha vectors kept per stage; `None` means
    /// exact (no cap). A cap turns the solver into a bounded-error variant,
    /// which the bench harness uses for large horizons.
    pub max_vectors_per_stage: Option<usize>,
}

impl Default for IncrementalPruningConfig {
    fn default() -> Self {
        IncrementalPruningConfig {
            pruning_tolerance: 1e-9,
            max_vectors_per_stage: None,
        }
    }
}

/// Exact finite-horizon POMDP value iteration with incremental pruning.
#[derive(Debug, Clone, Default)]
pub struct IncrementalPruning {
    config: IncrementalPruningConfig,
}

impl IncrementalPruning {
    /// Creates a solver with the given configuration.
    pub fn new(config: IncrementalPruningConfig) -> Self {
        IncrementalPruning { config }
    }

    /// Performs one exact dynamic-programming backup of `current` through the
    /// model, returning the value function one stage earlier.
    ///
    /// # Errors
    ///
    /// Propagates LP-pruning failures.
    pub fn backup(&self, model: &Pomdp, current: &ValueFunction) -> Result<ValueFunction> {
        let num_states = model.num_states();
        let num_actions = model.num_actions();
        let num_observations = model.num_observations();
        let discount = model.discount();

        // Terminal stage: the value function is just the immediate costs.
        let base_vectors: Vec<AlphaVector> = if current.is_empty() {
            vec![AlphaVector::new(vec![0.0; num_states], 0)]
        } else {
            current.vectors().to_vec()
        };

        let mut all_vectors: Vec<AlphaVector> = Vec::new();
        for action in 0..num_actions {
            // Immediate-cost vector for this action.
            let immediate = AlphaVector::new(
                (0..num_states).map(|s| model.cost(s, action)).collect(),
                action,
            );

            // Per-observation projected sets Γ_{a,o}.
            let mut combined = vec![immediate];
            for observation in 0..num_observations {
                let mut projected: Vec<AlphaVector> = Vec::with_capacity(base_vectors.len());
                for alpha in &base_vectors {
                    let values: Vec<f64> = (0..num_states)
                        .map(|s| {
                            discount
                                * (0..num_states)
                                    .map(|s_next| {
                                        model.transition_probability(s, action, s_next)
                                            * model.observation_probability(s_next, observation)
                                            * alpha.values[s_next]
                                    })
                                    .sum::<f64>()
                        })
                        .collect();
                    projected.push(AlphaVector::new(values, action));
                }
                let mut projected_vf = ValueFunction::new(projected);
                projected_vf.prune_pointwise(self.config.pruning_tolerance);

                // Incremental pruning: prune after every cross sum. With a
                // vector cap configured, cheap pointwise pruning and the cap
                // are applied first so the exact LP pruning only ever runs on
                // a bounded set.
                let mut summed = ValueFunction::new(cross_sum(&combined, projected_vf.vectors()));
                summed.prune_pointwise(self.config.pruning_tolerance);
                let mut vectors = summed.vectors().to_vec();
                self.enforce_cap(&mut vectors);
                let mut summed = ValueFunction::new(vectors);
                if summed.len() <= self.lp_prune_limit() {
                    summed.prune_lp(self.config.pruning_tolerance)?;
                }
                combined = summed.vectors().to_vec();
            }
            all_vectors.extend(combined);
        }

        let mut result = ValueFunction::new(all_vectors);
        result.prune_pointwise(self.config.pruning_tolerance);
        let mut vectors = result.vectors().to_vec();
        self.enforce_cap(&mut vectors);
        let mut result = ValueFunction::new(vectors);
        if result.len() <= self.lp_prune_limit() {
            result.prune_lp(self.config.pruning_tolerance)?;
        }
        let mut vectors = result.vectors().to_vec();
        self.enforce_cap(&mut vectors);
        Ok(ValueFunction::new(vectors))
    }

    /// Largest vector-set size on which the exact LP pruning is still run.
    /// Without a cap the solver is exact and always prunes with the LP; with
    /// a cap the LP pruning is skipped for sets that would make it the
    /// bottleneck (the pointwise pruning and the cap already bound the set).
    fn lp_prune_limit(&self) -> usize {
        match self.config.max_vectors_per_stage {
            None => usize::MAX,
            Some(_) => 192,
        }
    }

    /// Keeps at most `max_vectors_per_stage` vectors (those with the smallest
    /// average value, which favors the lower envelope).
    fn enforce_cap(&self, vectors: &mut Vec<AlphaVector>) {
        if let Some(cap) = self.config.max_vectors_per_stage {
            if vectors.len() > cap {
                vectors.sort_by(|a, b| {
                    let ma: f64 = a.values.iter().sum::<f64>() / a.values.len() as f64;
                    let mb: f64 = b.values.iter().sum::<f64>() / b.values.len() as f64;
                    ma.total_cmp(&mb)
                });
                vectors.truncate(cap);
            }
        }
    }

    /// Solves the finite-horizon problem, returning the value function at the
    /// first stage (after `horizon` backups).
    ///
    /// # Errors
    ///
    /// Returns [`PomdpError::InvalidParameter`] if `horizon` is zero, and
    /// propagates pruning failures.
    pub fn solve_finite_horizon(&self, model: &Pomdp, horizon: usize) -> Result<ValueFunction> {
        if horizon == 0 {
            return Err(PomdpError::InvalidParameter {
                name: "horizon",
                reason: "must be at least 1".into(),
            });
        }
        let mut value = ValueFunction::default();
        for _ in 0..horizon {
            value = self.backup(model, &value)?;
        }
        Ok(value)
    }

    /// Solves the discounted infinite-horizon problem by iterating backups
    /// until the value change (measured on a belief grid) drops below
    /// `tolerance`.
    ///
    /// # Errors
    ///
    /// * [`PomdpError::InvalidParameter`] if the discount is 1 (the
    ///   infinite-horizon discounted objective requires a discount below 1).
    /// * [`PomdpError::DidNotConverge`] if `max_iterations` is exhausted.
    pub fn solve_infinite_horizon(
        &self,
        model: &Pomdp,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<ValueFunction> {
        if model.discount() >= 1.0 {
            return Err(PomdpError::InvalidParameter {
                name: "discount",
                reason: "infinite-horizon solving requires a discount below 1".into(),
            });
        }
        let grid = belief_grid(model.num_states(), 21);
        let mut value = ValueFunction::default();
        let mut previous: Vec<f64> = vec![0.0; grid.len()];
        for iteration in 1..=max_iterations {
            value = self.backup(model, &value)?;
            let current: Vec<f64> = grid.iter().map(|b| value.evaluate(b.as_slice())).collect();
            let residual = current
                .iter()
                .zip(&previous)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            previous = current;
            if iteration > 1 && residual < tolerance {
                return Ok(value);
            }
        }
        Err(PomdpError::DidNotConverge("incremental pruning"))
    }

    /// A short name used in experiment reports.
    pub fn name(&self) -> &'static str {
        "ip"
    }
}

/// Builds a regular grid of beliefs. For two-state models this is a 1-D grid
/// over `P[s = 1]`; for larger models it falls back to corner beliefs plus
/// the uniform belief (sufficient as a convergence probe).
fn belief_grid(num_states: usize, resolution: usize) -> Vec<Belief> {
    if num_states == 2 {
        (0..resolution)
            .map(|i| {
                let p = i as f64 / (resolution - 1).max(1) as f64;
                Belief::new(vec![1.0 - p, p]).expect("valid grid belief")
            })
            .collect()
    } else {
        let mut grid: Vec<Belief> = (0..num_states)
            .map(|s| Belief::degenerate(num_states, s))
            .collect();
        grid.push(Belief::uniform(num_states));
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    /// A tiny machine-replacement POMDP: state 0 = healthy, 1 = compromised.
    /// Action 0 = wait, action 1 = recover (cost 1). Remaining compromised
    /// costs `eta = 2` per step. Observations: 0 = quiet, 1 = alert.
    fn recovery_pomdp(discount: f64) -> Pomdp {
        let p_attack = 0.2;
        Pomdp::new(
            vec![
                // wait
                vec![vec![1.0 - p_attack, p_attack], vec![0.0, 1.0]],
                // recover
                vec![
                    vec![1.0 - p_attack, p_attack],
                    vec![1.0 - p_attack, p_attack],
                ],
            ],
            vec![vec![0.8, 0.2], vec![0.3, 0.7]],
            vec![vec![0.0, 1.0], vec![2.0, 3.0]],
            discount,
        )
        .unwrap()
    }

    #[test]
    fn one_step_value_equals_cheapest_immediate_cost() {
        let model = recovery_pomdp(0.95);
        let solver = IncrementalPruning::default();
        let vf = solver.solve_finite_horizon(&model, 1).unwrap();
        // With one step to go the optimal action is simply the cheaper one at
        // each belief corner: wait (0) when healthy, wait costs 2 vs recover 3
        // when compromised, so wait everywhere.
        assert_close(vf.evaluate(&[1.0, 0.0]), 0.0, 1e-9);
        assert_close(vf.evaluate(&[0.0, 1.0]), 2.0, 1e-9);
        assert_eq!(vf.greedy_action(&[0.5, 0.5]), Some(0));
    }

    #[test]
    fn value_function_is_concave_lower_envelope() {
        let model = recovery_pomdp(0.95);
        let solver = IncrementalPruning::default();
        let vf = solver.solve_finite_horizon(&model, 6).unwrap();
        // Concavity on the 1-D belief space: V(mid) >= (V(left) + V(right))/2.
        for i in 1..20 {
            let left = (i - 1) as f64 / 20.0;
            let mid = i as f64 / 20.0;
            let right = (i + 1) as f64 / 20.0;
            let v = |p: f64| vf.evaluate(&[1.0 - p, p]);
            assert!(
                v(mid) >= 0.5 * (v(left) + v(right)) - 1e-9,
                "value function not concave at belief {mid}"
            );
        }
    }

    #[test]
    fn longer_horizon_costs_more() {
        let model = recovery_pomdp(1.0);
        let solver = IncrementalPruning::default();
        let v2 = solver.solve_finite_horizon(&model, 2).unwrap();
        let v5 = solver.solve_finite_horizon(&model, 5).unwrap();
        for p in [0.0, 0.3, 0.7, 1.0] {
            let belief = [1.0 - p, p];
            assert!(v5.evaluate(&belief) >= v2.evaluate(&belief) - 1e-9);
        }
    }

    #[test]
    fn greedy_policy_has_threshold_structure() {
        // Theorem 1: the optimal recovery policy is a belief threshold.
        let model = recovery_pomdp(0.95);
        let solver = IncrementalPruning::default();
        let vf = solver.solve_infinite_horizon(&model, 1e-4, 200).unwrap();
        let mut last_action = 0usize;
        let mut switches = 0usize;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let action = vf.greedy_action(&[1.0 - p, p]).unwrap();
            if i > 0 && action != last_action {
                switches += 1;
                assert!(
                    action > last_action,
                    "policy must switch from wait to recover, not back"
                );
            }
            last_action = action;
        }
        assert!(
            switches <= 1,
            "threshold policy switches at most once, saw {switches}"
        );
        // With these costs recovery must be optimal at belief 1.
        assert_eq!(vf.greedy_action(&[0.0, 1.0]), Some(1));
    }

    #[test]
    fn infinite_horizon_requires_discount_below_one() {
        let model = recovery_pomdp(1.0);
        let solver = IncrementalPruning::default();
        assert!(solver.solve_infinite_horizon(&model, 1e-4, 50).is_err());
        let model = recovery_pomdp(0.99);
        assert!(matches!(
            solver.solve_infinite_horizon(&model, 1e-12, 2),
            Err(PomdpError::DidNotConverge(_))
        ));
    }

    #[test]
    fn zero_horizon_is_rejected() {
        let model = recovery_pomdp(0.9);
        let solver = IncrementalPruning::default();
        assert!(solver.solve_finite_horizon(&model, 0).is_err());
    }

    #[test]
    fn vector_cap_bounds_the_representation() {
        let model = recovery_pomdp(0.95);
        let capped = IncrementalPruning::new(IncrementalPruningConfig {
            max_vectors_per_stage: Some(3),
            ..IncrementalPruningConfig::default()
        });
        let vf = capped.solve_finite_horizon(&model, 8).unwrap();
        assert!(vf.len() <= 3);
        // The capped solution is still a sensible upper bound on the exact one.
        let exact = IncrementalPruning::default()
            .solve_finite_horizon(&model, 8)
            .unwrap();
        for p in [0.0, 0.5, 1.0] {
            let belief = [1.0 - p, p];
            assert!(vf.evaluate(&belief) >= exact.evaluate(&belief) - 1e-6);
        }
    }

    #[test]
    fn belief_grid_shapes() {
        let grid2 = belief_grid(2, 11);
        assert_eq!(grid2.len(), 11);
        assert_close(grid2[5].probability(1), 0.5, 1e-12);
        let grid3 = belief_grid(3, 11);
        assert_eq!(grid3.len(), 4);
    }

    #[test]
    fn name_is_ip() {
        assert_eq!(IncrementalPruning::default().name(), "ip");
    }
}
