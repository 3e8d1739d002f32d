//! Exact solvers of the two-state node POMDP.
//!
//! [`IncrementalPruning`] is the dynamic-programming baseline of Table 2 in
//! the paper (Cassandra, Littman & Zhang, UAI'97): it performs exact value
//! iteration over alpha-vector sets, pruning after every cross sum with the
//! lower-envelope prune of [`ValueFunction::prune`]. The paper
//! reports that it is exact but becomes intractable as the horizon grows
//! (`Δ_R → ∞`), which this reproduction observes as well; the bench harness
//! therefore runs it only on bounded horizons.

use crate::alpha::{cross_sum, AlphaVector, ValueFunction};
use crate::error::{PomdpError, Result};
use crate::pomdp::Pomdp;

/// Configuration of the [`IncrementalPruning`] solver.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalPruningConfig {
    /// Hard cap on the number of alpha vectors kept per stage; `None` means
    /// exact (no cap). A cap turns the solver into a bounded-error variant,
    /// which the bench harness uses for large horizons.
    pub max_vectors_per_stage: Option<usize>,
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
    /// None: the exact prune solves no program that could fail. The
    /// `Result` keeps the signature of every `solve_*` caller.
    pub fn backup(&self, model: &Pomdp, current: &ValueFunction) -> Result<ValueFunction> {
        let discount = model.discount();

        // Terminal stage: the value function is just the immediate costs.
        let base_vectors: &[AlphaVector] = if current.is_empty() {
            &[AlphaVector::new([0.0; 2], 0)]
        } else {
            current.vectors()
        };

        let mut all_vectors: Vec<AlphaVector> = Vec::new();
        for action in 0..model.num_actions() {
            // Immediate-cost vector for this action.
            let immediate =
                AlphaVector::new([model.cost(0, action), model.cost(1, action)], action);

            // Per-observation projected sets Γ_{a,o}.
            let mut combined = vec![immediate];
            for observation in 0..model.num_observations() {
                let projected = base_vectors
                    .iter()
                    .map(|alpha| {
                        let values = std::array::from_fn(|s| {
                            discount
                                * (0..2)
                                    .map(|s_next| {
                                        model.transition_probability(s, action, s_next)
                                            * model.observation_probability(s_next, observation)
                                            * alpha.values[s_next]
                                    })
                                    .sum::<f64>()
                        });
                        AlphaVector::new(values, action)
                    })
                    .collect();
                let mut projected = ValueFunction::new(projected);
                projected.prune_pointwise();

                // Incremental pruning: prune after every cross sum.
                combined = self.prune(cross_sum(&combined, projected.vectors()));
            }
            all_vectors.extend(combined);
        }
        Ok(ValueFunction::new(self.prune(all_vectors)))
    }

    /// The pointwise pass, then the cap, then the exact prune, so that the
    /// exact prune only ever runs on a capped set.
    fn prune(&self, vectors: Vec<AlphaVector>) -> Vec<AlphaVector> {
        let mut value = ValueFunction::new(vectors);
        value.prune_pointwise();
        if let Some(cap) = self.config.max_vectors_per_stage {
            // Keep the vectors with the smallest average value, which favors
            // the lower envelope.
            if value.vectors.len() > cap {
                value.vectors.sort_by(|a, b| {
                    let ma = (a.values[0] + a.values[1]) / 2.0;
                    let mb = (b.values[0] + b.values[1]) / 2.0;
                    ma.total_cmp(&mb)
                });
                value.vectors.truncate(cap);
            }
        }
        value.prune();
        value.vectors
    }

    /// Solves the finite-horizon problem, returning the value function at the
    /// first stage (after `horizon` backups).
    ///
    /// # Errors
    ///
    /// Returns [`PomdpError::InvalidParameter`] if `horizon` is zero.
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
    /// until the value change on a 21-point grid over `b ∈ [0, 1]` drops
    /// below `tolerance`.
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
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let mut value = ValueFunction::default();
        let mut previous: Vec<f64> = vec![0.0; grid.len()];
        for iteration in 1..=max_iterations {
            value = self.backup(model, &value)?;
            let current: Vec<f64> = grid.iter().map(|&b| value.evaluate(b)).collect();
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
        assert_close(vf.evaluate(0.0), 0.0, 1e-9);
        assert_close(vf.evaluate(1.0), 2.0, 1e-9);
        assert_eq!(vf.greedy_action(0.5), Some(0));
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
            let v = |p: f64| vf.evaluate(p);
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
            assert!(v5.evaluate(p) >= v2.evaluate(p) - 1e-9);
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
            let action = vf.greedy_action(p).unwrap();
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
        assert_eq!(vf.greedy_action(1.0), Some(1));
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
        });
        let vf = capped.solve_finite_horizon(&model, 8).unwrap();
        assert!(vf.len() <= 3);
        // The capped solution is still a sensible upper bound on the exact one.
        let exact = IncrementalPruning::default()
            .solve_finite_horizon(&model, 8)
            .unwrap();
        for p in [0.0, 0.5, 1.0] {
            assert!(vf.evaluate(p) >= exact.evaluate(p) - 1e-6);
        }
    }
}
