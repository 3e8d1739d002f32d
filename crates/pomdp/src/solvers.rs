//! Exact solvers of the two-state node POMDP.
//!
//! [`IncrementalPruning`] is the dynamic-programming baseline of Table 2 in
//! the paper (Cassandra, Littman & Zhang, UAI'97): exact value iteration over
//! alpha-vector sets. Over the scalar belief every set it combines is a
//! concave envelope, so the incremental cross sum is a merge of envelopes
//! ([`ValueFunction::merge_sum`]) that needs no pruning, and a backup is
//! exact at every horizon. The sets still grow: the paper's node model holds
//! 20,655 lines at horizon 10 and 22k–30k from there on, nearly every piece
//! narrower than 1e-3 in `b`.

use crate::alpha::{AlphaVector, ValueFunction};
use crate::error::{PomdpError, Result};
use crate::pomdp::Pomdp;

/// Configuration of the [`IncrementalPruning`] solver.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalPruningConfig {
    /// Cap on the lines of each backup's final envelope; `None`, what every
    /// caller in the workspace passes, is exact. A cap keeps the lines of
    /// the smallest mean value, which makes the solver overestimate.
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
    /// model, returning the value function one stage earlier: per action,
    /// the immediate-cost line merge-summed with the envelope of each
    /// observation's projected lines, then one envelope of the union.
    ///
    /// # Errors
    ///
    /// None: the backup solves no program that could fail. The `Result`
    /// keeps the signature of every `solve_*` caller.
    pub fn backup(&self, model: &Pomdp, current: &ValueFunction) -> Result<ValueFunction> {
        let discount = model.discount();

        // Terminal stage: the value function is just the immediate costs.
        let future: &[AlphaVector] = if current.is_empty() {
            &[AlphaVector::new([0.0; 2], 0)]
        } else {
            current.vectors()
        };

        let mut all_vectors: Vec<AlphaVector> = Vec::new();
        for action in 0..model.num_actions() {
            let immediate =
                AlphaVector::new([model.cost(0, action), model.cost(1, action)], action);
            let mut combined = ValueFunction::new(vec![immediate]);
            for observation in 0..model.num_observations() {
                // The projected set Γ_{a,o}, as an envelope.
                let projected = future
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
                combined = combined.merge_sum(&ValueFunction::new(projected));
            }
            all_vectors.extend(combined.vectors);
        }
        let mut value = ValueFunction::new(all_vectors);
        if let Some(cap) = self.config.max_vectors_per_stage {
            if value.len() > cap {
                let mean = |line: &AlphaVector| (line.values[0] + line.values[1]) / 2.0;
                let mut vectors = value.vectors;
                vectors.sort_by(|x, y| mean(x).total_cmp(&mean(y)));
                vectors.truncate(cap);
                value = ValueFunction::new(vectors);
            }
        }
        Ok(value)
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
    /// until the sup norm `max_b |V_k(b) − V_{k−1}(b)|`, computed exactly at
    /// the breakpoints of both envelopes, drops below `tolerance`. On the
    /// paper's node model with tolerance 1e-4 that takes 157 backups at
    /// γ = 0.95. At γ = 0.99 the residual is still 1.4e-2 after 300, so a
    /// limit of 200 ends in [`PomdpError::DidNotConverge`].
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
        let mut value = ValueFunction::default();
        for _ in 0..max_iterations {
            let next = self.backup(model, &value)?;
            // The first residual is against the empty envelope: `+∞`.
            let residual = next.sup_distance(&value);
            value = next;
            if residual < tolerance {
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
