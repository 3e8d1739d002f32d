//! Constrained Markov decision processes and the occupation-measure LP.
//!
//! Problem 2 of the paper (optimal replication factor) is a CMDP with the
//! long-run average-cost objective and an average-availability constraint.
//! Algorithm 2 solves it exactly through the linear program (14):
//!
//! ```text
//! minimize    Σ_{s,a} ρ(s,a) c(s,a)
//! subject to  ρ(s,a) >= 0
//!             Σ_{s,a} ρ(s,a) = 1
//!             Σ_a ρ(s,a) = Σ_{s',a} ρ(s',a) f_S(s | s', a)      ∀ s
//!             Σ_{s,a} ρ(s,a) d_k(s,a)  {>=,<=}  bound_k          ∀ k
//! ```
//!
//! The optimal stationary (possibly randomized) policy is recovered as
//! `π(a | s) = ρ(s,a) / Σ_a ρ(s,a)`; Theorem 2 shows it mixes at most two
//! threshold policies, which the structural checks in [`crate::structure`]
//! verify empirically.

use crate::error::{PomdpError, Result};
use crate::mdp::Mdp;
use tolerance_optim::simplex::{Comparison, LinearProgram, LpSolution};

/// How far an LP solution may be from an occupation measure before
/// [`Cmdp::solve`] refuses it.
const OCCUPATION_TOLERANCE: f64 = 1e-7;

/// The sense of a CMDP constraint on the long-run average of a cost signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ConstraintSense {
    /// The long-run average must be at least the bound (e.g. availability).
    AtLeast,
    /// The long-run average must be at most the bound (e.g. a budget).
    AtMost,
}

/// One constraint of a CMDP: the long-run average of `signal[s][a]` compared
/// against `bound`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CmdpConstraint {
    /// Per state-action value whose long-run average is constrained.
    pub signal: Vec<Vec<f64>>,
    /// The comparison sense.
    pub sense: ConstraintSense,
    /// The bound.
    pub bound: f64,
}

/// The solution of a CMDP: the optimal randomized stationary policy, the
/// occupation measure it induces, and the optimal objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdpSolution {
    /// `policy[s][a]` = probability of action `a` in state `s`.
    pub policy: Vec<Vec<f64>>,
    /// `occupation[s][a]` = long-run fraction of time in `(s, a)`.
    pub occupation: Vec<Vec<f64>>,
    /// Optimal long-run average objective cost.
    pub objective: f64,
    /// The long-run average of each constraint signal under the policy.
    pub constraint_values: Vec<f64>,
    /// Number of simplex pivots used by the LP solver.
    pub lp_pivots: usize,
}

/// A constrained MDP with the average-cost objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmdp {
    mdp: Mdp,
    constraints: Vec<CmdpConstraint>,
}

impl Cmdp {
    /// Creates a CMDP from an MDP and a set of constraints.
    ///
    /// # Errors
    ///
    /// Returns [`PomdpError::InvalidModel`] if any constraint signal does not
    /// have the shape `[states][actions]`.
    pub fn new(mdp: Mdp, constraints: Vec<CmdpConstraint>) -> Result<Self> {
        for (k, c) in constraints.iter().enumerate() {
            if c.signal.len() != mdp.num_states()
                || c.signal.iter().any(|row| row.len() != mdp.num_actions())
            {
                return Err(PomdpError::InvalidModel(format!(
                    "constraint {k} signal must have shape [states][actions]"
                )));
            }
        }
        Ok(Cmdp { mdp, constraints })
    }

    /// The underlying MDP.
    pub fn mdp(&self) -> &Mdp {
        &self.mdp
    }

    /// Solves the CMDP exactly with the occupation-measure linear program
    /// (Algorithm 2 of the paper).
    ///
    /// # Errors
    ///
    /// * [`PomdpError::Infeasible`] if no stationary policy satisfies the
    ///   constraints.
    /// * [`PomdpError::Lp`] for LP-solver failures, and for a solution that
    ///   is not an occupation measure (a wrong answer becomes a missing one).
    pub fn solve(&self) -> Result<CmdpSolution> {
        let num_states = self.mdp.num_states();
        let num_actions = self.mdp.num_actions();
        let n = num_states * num_actions;
        let index = |s: usize, a: usize| s * num_actions + a;

        // Objective: Σ ρ(s,a) c(s,a).
        let mut objective = vec![0.0; n];
        for s in 0..num_states {
            for a in 0..num_actions {
                objective[index(s, a)] = self.mdp.cost(s, a);
            }
        }
        let mut lp = LinearProgram::new(n, objective).map_err(PomdpError::from)?;

        // Normalization: Σ ρ = 1.
        lp.add_constraint(vec![1.0; n], Comparison::Equal, 1.0)
            .map_err(PomdpError::from)?;

        // Flow balance for every state s:
        //   Σ_a ρ(s,a) - Σ_{s',a} ρ(s',a) P(s | s', a) = 0.
        // The rows sum to zero, so one of them is redundant. All are kept:
        // phase 1 of the simplex ends with that row's artificial still basic
        // at level 0 over a numerically empty row, and leaves it there.
        for s in 0..num_states {
            let mut row = vec![0.0; n];
            for a in 0..num_actions {
                row[index(s, a)] += 1.0;
            }
            for s_prev in 0..num_states {
                for a in 0..num_actions {
                    row[index(s_prev, a)] -= self.mdp.transition_probability(s_prev, a, s);
                }
            }
            lp.add_constraint(row, Comparison::Equal, 0.0)
                .map_err(PomdpError::from)?;
        }

        // Additional long-run average constraints.
        for constraint in &self.constraints {
            let mut row = vec![0.0; n];
            for s in 0..num_states {
                for a in 0..num_actions {
                    row[index(s, a)] = constraint.signal[s][a];
                }
            }
            let comparison = match constraint.sense {
                ConstraintSense::AtLeast => Comparison::GreaterEqual,
                ConstraintSense::AtMost => Comparison::LessEqual,
            };
            lp.add_constraint(row, comparison, constraint.bound)
                .map_err(PomdpError::from)?;
        }

        let solution = lp.solve().map_err(PomdpError::from)?;
        check_occupation_measure(&solution)?;

        // Recover the occupation measure and the randomized policy.
        let mut occupation = vec![vec![0.0; num_actions]; num_states];
        for (s, row) in occupation.iter_mut().enumerate() {
            for (a, value) in row.iter_mut().enumerate() {
                *value = solution.values[index(s, a)].max(0.0);
            }
        }
        let mut policy = vec![vec![0.0; num_actions]; num_states];
        for s in 0..num_states {
            let mass: f64 = occupation[s].iter().sum();
            if mass > 1e-12 {
                for a in 0..num_actions {
                    policy[s][a] = occupation[s][a] / mass;
                }
            } else {
                // Unvisited state: default to the first action deterministically.
                policy[s][0] = 1.0;
            }
        }
        let constraint_values = self
            .constraints
            .iter()
            .map(|c| {
                occupation
                    .iter()
                    .enumerate()
                    .map(|(s, row)| {
                        row.iter()
                            .enumerate()
                            .map(|(a, &rho)| rho * c.signal[s][a])
                            .sum::<f64>()
                    })
                    .sum()
            })
            .collect();

        Ok(CmdpSolution {
            policy,
            occupation,
            objective: solution.objective_value,
            constraint_values,
            lp_pivots: solution.pivots,
        })
    }
}

/// What an occupation measure must satisfy: ρ ≥ 0, and the rows of the LP as
/// [`Cmdp::solve`] wrote them — Σρ = 1, the flow balance of every state and
/// every long-run average constraint — each within [`OCCUPATION_TOLERANCE`].
fn check_occupation_measure(solution: &LpSolution) -> Result<()> {
    // Both comparisons are written so that a NaN fails them.
    let non_negative = solution
        .values
        .iter()
        .all(|rho| *rho >= -OCCUPATION_TOLERANCE);
    if non_negative && solution.primal_residual <= OCCUPATION_TOLERANCE {
        return Ok(());
    }
    Err(PomdpError::Lp(format!(
        "the solution is not an occupation measure: smallest entry {:e}, largest row violation {:e}",
        solution.values.iter().copied().fold(f64::INFINITY, f64::min),
        solution.primal_residual
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    /// A three-state inventory-like MDP: state = number of healthy nodes
    /// (0, 1, 2). Action 0 = do nothing, action 1 = add a node (cost of the
    /// state itself, Eq. 9: the controller pays for the number of nodes).
    /// Nodes fail with probability 0.3 per step.
    fn inventory_mdp() -> Mdp {
        let p_fail = 0.3;
        // Under action 0: from s, one node fails w.p. p_fail (if s > 0).
        // Under action 1: a node is added first (capped at 2), then may fail.
        let next_after = |healthy: usize| -> Vec<f64> {
            let mut row = vec![0.0; 3];
            if healthy == 0 {
                row[0] = 1.0;
            } else {
                row[healthy] = 1.0 - p_fail;
                row[healthy - 1] = p_fail;
            }
            row
        };
        let transition = vec![
            vec![next_after(0), next_after(1), next_after(2)],
            vec![next_after(1), next_after(2), next_after(2)],
        ];
        // Cost = expected number of nodes kept (state), slightly higher if adding.
        let cost = vec![vec![0.0, 0.5], vec![1.0, 1.5], vec![2.0, 2.5]];
        Mdp::new(transition, cost).unwrap()
    }

    /// Availability signal: 1 when at least one node is healthy.
    fn availability_signal() -> Vec<Vec<f64>> {
        vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![1.0, 1.0]]
    }

    #[test]
    fn unconstrained_cmdp_matches_greedy_do_nothing() {
        // Without constraints the cheapest thing is to never add nodes and
        // sink to state 0 (cost 0 forever).
        let cmdp = Cmdp::new(inventory_mdp(), vec![]).unwrap();
        let solution = cmdp.solve().unwrap();
        assert_close(solution.objective, 0.0, 1e-8);
        assert!(solution.occupation[0].iter().sum::<f64>() > 0.99);
        assert!(solution.constraint_values.is_empty());
    }

    #[test]
    fn availability_constraint_forces_replenishment() {
        let constraint = CmdpConstraint {
            signal: availability_signal(),
            sense: ConstraintSense::AtLeast,
            bound: 0.9,
        };
        let cmdp = Cmdp::new(inventory_mdp(), vec![constraint]).unwrap();
        let solution = cmdp.solve().unwrap();
        // The availability constraint must be met (within LP tolerance).
        assert!(
            solution.constraint_values[0] >= 0.9 - 1e-6,
            "availability {} too low",
            solution.constraint_values[0]
        );
        // Meeting it costs strictly more than doing nothing.
        assert!(solution.objective > 0.5);
        // The policy must add nodes in state 0 with positive probability
        // (otherwise state 0 is absorbing and availability would be 0).
        assert!(solution.policy[0][1] > 0.5);
        // Policy rows are distributions.
        for row in &solution.policy {
            assert_close(row.iter().sum::<f64>(), 1.0, 1e-9);
        }
        // Occupation measure sums to one.
        let total: f64 = solution.occupation.iter().flatten().sum();
        assert_close(total, 1.0, 1e-8);
    }

    #[test]
    fn theorem2_like_structure_mixture_of_thresholds() {
        // Theorem 2: the optimal policy randomizes in at most one state (a
        // mixture of two threshold policies). Count the states with
        // non-degenerate action distributions.
        let constraint = CmdpConstraint {
            signal: availability_signal(),
            sense: ConstraintSense::AtLeast,
            bound: 0.85,
        };
        let cmdp = Cmdp::new(inventory_mdp(), vec![constraint]).unwrap();
        let solution = cmdp.solve().unwrap();
        let randomized_states = solution
            .policy
            .iter()
            .filter(|row| row.iter().all(|&p| p > 1e-6 && p < 1.0 - 1e-6))
            .count();
        assert!(
            randomized_states <= 1,
            "at most one state may randomize, saw {randomized_states}"
        );
    }

    #[test]
    fn infeasible_constraint_is_detected() {
        // Availability above 1 is impossible.
        let constraint = CmdpConstraint {
            signal: availability_signal(),
            sense: ConstraintSense::AtLeast,
            bound: 1.5,
        };
        let cmdp = Cmdp::new(inventory_mdp(), vec![constraint]).unwrap();
        assert_eq!(cmdp.solve().unwrap_err(), PomdpError::Infeasible);
    }

    #[test]
    fn a_solution_that_is_no_occupation_measure_is_refused() {
        let measure = |values: Vec<f64>, primal_residual| LpSolution {
            values,
            objective_value: 0.0,
            pivots: 0,
            primal_residual,
        };
        assert!(check_occupation_measure(&measure(vec![0.25; 4], 1e-12)).is_ok());
        // What the index tie-break returned at `s_max` 64: total mass 1.249.
        let heavy = check_occupation_measure(&measure(vec![0.31225; 4], 0.249));
        assert!(matches!(heavy, Err(PomdpError::Lp(_))), "{heavy:?}");
        let negative = check_occupation_measure(&measure(vec![0.5, 0.5, 1e-3, -1e-3], 0.0));
        assert!(matches!(negative, Err(PomdpError::Lp(_))), "{negative:?}");
        for undefined in [
            measure(vec![0.25; 4], f64::NAN),
            measure(vec![0.5, 0.5, f64::NAN, 0.0], 0.0),
        ] {
            assert!(check_occupation_measure(&undefined).is_err());
        }
    }

    #[test]
    fn at_most_constraints_are_supported() {
        // Constrain the fraction of time spent adding nodes to at most 10%.
        let add_signal = vec![vec![0.0, 1.0]; 3];
        let availability = CmdpConstraint {
            signal: availability_signal(),
            sense: ConstraintSense::AtLeast,
            bound: 0.5,
        };
        let budget = CmdpConstraint {
            signal: add_signal,
            sense: ConstraintSense::AtMost,
            bound: 0.45,
        };
        let cmdp = Cmdp::new(inventory_mdp(), vec![availability, budget]).unwrap();
        let solution = cmdp.solve().unwrap();
        assert!(solution.constraint_values[0] >= 0.5 - 1e-6);
        assert!(solution.constraint_values[1] <= 0.45 + 1e-6);
    }

    #[test]
    fn constraint_shape_is_validated() {
        let bad = CmdpConstraint {
            signal: vec![vec![1.0]; 2],
            sense: ConstraintSense::AtLeast,
            bound: 0.5,
        };
        assert!(Cmdp::new(inventory_mdp(), vec![bad]).is_err());
    }

    #[test]
    fn accessors_expose_model_and_constraints() {
        let constraint = CmdpConstraint {
            signal: availability_signal(),
            sense: ConstraintSense::AtLeast,
            bound: 0.9,
        };
        let cmdp = Cmdp::new(inventory_mdp(), vec![constraint]).unwrap();
        assert_eq!(cmdp.mdp().num_states(), 3);
        assert_eq!(cmdp.constraints.len(), 1);
    }
}
