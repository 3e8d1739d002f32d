//! A self-contained two-phase primal simplex solver.
//!
//! Algorithm 2 of the paper solves the replication CMDP (Problem 2) through
//! the occupation-measure linear program (14); the paper uses the CBC solver,
//! which is not available offline, so this module provides an exact dense
//! simplex implementation instead. The LPs produced by Algorithm 2 have
//! `2(s_max + 1)` variables and about `s_max + 3` constraints, which this
//! solver handles comfortably up to the `s_max = 2048` point of Fig. 9.
//!
//! # Example
//!
//! ```
//! use tolerance_optim::simplex::{Comparison, LinearProgram};
//!
//! // minimize  x + 2y  subject to  x + y >= 1,  y <= 0.4,  x, y >= 0.
//! let mut lp = LinearProgram::new(2, vec![1.0, 2.0]).unwrap();
//! lp.add_constraint(vec![1.0, 1.0], Comparison::GreaterEqual, 1.0).unwrap();
//! lp.add_constraint(vec![0.0, 1.0], Comparison::LessEqual, 0.4).unwrap();
//! let solution = lp.solve().unwrap();
//! assert!((solution.objective_value - 1.0).abs() < 1e-9);
//! assert!((solution.values[0] - 1.0).abs() < 1e-9);
//! ```

use crate::error::{OptimError, Result};

/// Numerical tolerance used by the pivoting rules and feasibility checks.
const TOLERANCE: f64 = 1e-9;

/// The sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Comparison {
    /// `a · x <= b`
    LessEqual,
    /// `a · x >= b`
    GreaterEqual,
    /// `a · x = b`
    Equal,
}

/// An optimal solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal values of the decision variables.
    pub values: Vec<f64>,
    /// Optimal objective value.
    pub objective_value: f64,
    /// Number of simplex pivots performed (phases 1 and 2 combined).
    pub pivots: usize,
}

struct ConstraintRow {
    coefficients: Vec<f64>,
    comparison: Comparison,
    rhs: f64,
}

/// A linear program `minimize c·x subject to A x {<=,>=,=} b, x >= 0`.
pub struct LinearProgram {
    num_variables: usize,
    objective: Vec<f64>,
    constraints: Vec<ConstraintRow>,
    max_pivots: usize,
}

impl LinearProgram {
    /// Creates a minimization problem over `num_variables` non-negative
    /// variables with the given objective coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if the objective length does
    /// not equal `num_variables` or `num_variables` is zero.
    pub fn new(num_variables: usize, objective: Vec<f64>) -> Result<Self> {
        if num_variables == 0 || objective.len() != num_variables {
            return Err(OptimError::DimensionMismatch {
                expected: num_variables.max(1),
                found: objective.len(),
            });
        }
        Ok(LinearProgram {
            num_variables,
            objective,
            constraints: Vec::new(),
            max_pivots: 200_000,
        })
    }

    /// Adds a linear constraint `coefficients · x  (comparison)  rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if `coefficients` has the
    /// wrong length.
    pub fn add_constraint(
        &mut self,
        coefficients: Vec<f64>,
        comparison: Comparison,
        rhs: f64,
    ) -> Result<()> {
        if coefficients.len() != self.num_variables {
            return Err(OptimError::DimensionMismatch {
                expected: self.num_variables,
                found: coefficients.len(),
            });
        }
        self.constraints.push(ConstraintRow {
            coefficients,
            comparison,
            rhs,
        });
        Ok(())
    }

    /// Solves the program with the two-phase primal simplex method.
    ///
    /// # Errors
    ///
    /// * [`OptimError::Infeasible`] if no feasible point exists.
    /// * [`OptimError::Unbounded`] if the objective is unbounded below.
    /// * [`OptimError::IterationLimit`] if the pivot budget is exhausted.
    pub fn solve(&self) -> Result<LpSolution> {
        let m = self.constraints.len();
        let n = self.num_variables;

        // Count the auxiliary columns: one slack/surplus per inequality and
        // one artificial per >=/= (and per <= with negative rhs after
        // normalization, handled by normalizing signs first).
        let mut slack_count = 0usize;
        let mut artificial_count = 0usize;
        let mut normalized: Vec<(Vec<f64>, Comparison, f64)> = Vec::with_capacity(m);
        for c in &self.constraints {
            let (mut coefficients, mut comparison, mut rhs) =
                (c.coefficients.clone(), c.comparison, c.rhs);
            if rhs < 0.0 {
                for v in coefficients.iter_mut() {
                    *v = -*v;
                }
                rhs = -rhs;
                comparison = match comparison {
                    Comparison::LessEqual => Comparison::GreaterEqual,
                    Comparison::GreaterEqual => Comparison::LessEqual,
                    Comparison::Equal => Comparison::Equal,
                };
            }
            match comparison {
                Comparison::LessEqual => slack_count += 1,
                Comparison::GreaterEqual => {
                    slack_count += 1;
                    artificial_count += 1;
                }
                Comparison::Equal => artificial_count += 1,
            }
            normalized.push((coefficients, comparison, rhs));
        }

        let total = n + slack_count + artificial_count;
        let width = total + 1; // + rhs column
        let mut tableau = vec![0.0f64; (m + 1) * width];
        let mut basis = vec![0usize; m];
        let artificial_start = n + slack_count;

        let mut slack_index = 0usize;
        let mut artificial_index = 0usize;
        for (row, (coefficients, comparison, rhs)) in normalized.iter().enumerate() {
            let offset = row * width;
            tableau[offset..offset + n].copy_from_slice(coefficients);
            tableau[offset + total] = *rhs;
            match comparison {
                Comparison::LessEqual => {
                    let col = n + slack_index;
                    tableau[offset + col] = 1.0;
                    basis[row] = col;
                    slack_index += 1;
                }
                Comparison::GreaterEqual => {
                    let surplus = n + slack_index;
                    tableau[offset + surplus] = -1.0;
                    slack_index += 1;
                    let art = artificial_start + artificial_index;
                    tableau[offset + art] = 1.0;
                    basis[row] = art;
                    artificial_index += 1;
                }
                Comparison::Equal => {
                    let art = artificial_start + artificial_index;
                    tableau[offset + art] = 1.0;
                    basis[row] = art;
                    artificial_index += 1;
                }
            }
        }

        let mut pivots = 0usize;

        // ---- Phase 1: minimize the sum of artificial variables. ----
        if artificial_count > 0 {
            let objective_row = m * width;
            for col in artificial_start..total {
                tableau[objective_row + col] = 1.0;
            }
            // Make the objective row consistent with the starting basis
            // (price out the artificial basic columns).
            for (row, &b) in basis.iter().enumerate() {
                if b >= artificial_start {
                    for col in 0..width {
                        tableau[objective_row + col] -= tableau[row * width + col];
                    }
                }
            }
            let phase1_pivots =
                run_simplex(&mut tableau, &mut basis, m, total, width, self.max_pivots)?;
            pivots += phase1_pivots;
            let phase1_value = -tableau[m * width + total];
            if phase1_value > 1e-6 {
                return Err(OptimError::Infeasible);
            }
            // Drive any artificial variables out of the basis if possible.
            for row in 0..m {
                if basis[row] >= artificial_start {
                    let offset = row * width;
                    if let Some(col) =
                        (0..artificial_start).find(|&c| tableau[offset + c].abs() > TOLERANCE)
                    {
                        pivot(&mut tableau, &mut basis, row, col, m, width);
                        pivots += 1;
                    }
                }
            }
            // Reset the objective row for phase 2.
            for col in 0..width {
                tableau[m * width + col] = 0.0;
            }
        }

        // ---- Phase 2: original objective. ----
        {
            let objective_row = m * width;
            for (col, &c) in self.objective.iter().enumerate() {
                tableau[objective_row + col] = c;
            }
            // Price out the basic columns.
            for (row, &b) in basis.iter().enumerate() {
                let coefficient = tableau[objective_row + b];
                if coefficient.abs() > 0.0 {
                    for col in 0..width {
                        tableau[objective_row + col] -= coefficient * tableau[row * width + col];
                    }
                }
            }
        }
        // Exclude artificial columns from phase-2 pivoting by restricting the
        // candidate columns to `artificial_start`.
        let phase2_pivots = run_simplex(
            &mut tableau,
            &mut basis,
            m,
            artificial_start,
            width,
            self.max_pivots,
        )?;
        pivots += phase2_pivots;

        let mut values = vec![0.0; n];
        for (row, &b) in basis.iter().enumerate() {
            if b < n {
                values[b] = tableau[row * width + total];
            }
        }
        let objective_value = self
            .objective
            .iter()
            .zip(&values)
            .map(|(c, x)| c * x)
            .sum::<f64>();
        Ok(LpSolution {
            values,
            objective_value,
            pivots,
        })
    }
}

/// Runs primal simplex pivots on the tableau until optimality.
/// `candidate_columns` restricts the entering-variable search (used to
/// exclude artificial columns during phase 2). Returns the number of pivots.
fn run_simplex(
    tableau: &mut [f64],
    basis: &mut [usize],
    m: usize,
    candidate_columns: usize,
    width: usize,
    max_pivots: usize,
) -> Result<usize> {
    let objective_row = m * width;
    let rhs_col = width - 1;
    let mut pivots = 0usize;
    loop {
        if pivots > max_pivots {
            return Err(OptimError::IterationLimit("simplex"));
        }
        // Entering column: Dantzig rule, with Bland's rule after a large
        // number of pivots to guarantee termination.
        let use_bland = pivots > max_pivots / 2;
        let mut entering: Option<usize> = None;
        let mut best = -TOLERANCE;
        for col in 0..candidate_columns {
            let reduced_cost = tableau[objective_row + col];
            if reduced_cost < -TOLERANCE {
                if use_bland {
                    entering = Some(col);
                    break;
                }
                if reduced_cost < best {
                    best = reduced_cost;
                    entering = Some(col);
                }
            }
        }
        let Some(entering) = entering else {
            return Ok(pivots);
        };
        // Leaving row: minimum ratio test.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for row in 0..m {
            let coefficient = tableau[row * width + entering];
            if coefficient > TOLERANCE {
                let ratio = tableau[row * width + rhs_col] / coefficient;
                if ratio < best_ratio - TOLERANCE
                    || (ratio < best_ratio + TOLERANCE
                        && leaving.map(|l| basis[row] < basis[l]).unwrap_or(false))
                {
                    best_ratio = ratio;
                    leaving = Some(row);
                }
            }
        }
        let Some(leaving) = leaving else {
            return Err(OptimError::Unbounded);
        };
        pivot(tableau, basis, leaving, entering, m, width);
        pivots += 1;
    }
}

/// Performs one pivot on (`row`, `col`).
fn pivot(tableau: &mut [f64], basis: &mut [usize], row: usize, col: usize, m: usize, width: usize) {
    let pivot_value = tableau[row * width + col];
    debug_assert!(pivot_value.abs() > TOLERANCE, "pivot on a zero element");
    let inv = 1.0 / pivot_value;
    for c in 0..width {
        tableau[row * width + c] *= inv;
    }
    for r in 0..=m {
        if r == row {
            continue;
        }
        let factor = tableau[r * width + col];
        if factor.abs() <= TOLERANCE {
            continue;
        }
        for c in 0..width {
            tableau[r * width + c] -= factor * tableau[row * width + c];
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn solves_textbook_maximization_as_minimization() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        // => minimize -3x - 5y; optimum x = 2, y = 6, objective -36.
        let mut lp = LinearProgram::new(2, vec![-3.0, -5.0]).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Comparison::LessEqual, 4.0)
            .unwrap();
        lp.add_constraint(vec![0.0, 2.0], Comparison::LessEqual, 12.0)
            .unwrap();
        lp.add_constraint(vec![3.0, 2.0], Comparison::LessEqual, 18.0)
            .unwrap();
        let solution = lp.solve().unwrap();
        assert_close(solution.objective_value, -36.0, 1e-8);
        assert_close(solution.values[0], 2.0, 1e-8);
        assert_close(solution.values[1], 6.0, 1e-8);
    }

    #[test]
    fn solves_problem_with_equality_and_geq_constraints() {
        // minimize 2x + 3y + z s.t. x + y + z = 1, x >= 0.2, y >= 0.3.
        let mut lp = LinearProgram::new(3, vec![2.0, 3.0, 1.0]).unwrap();
        lp.add_constraint(vec![1.0, 1.0, 1.0], Comparison::Equal, 1.0)
            .unwrap();
        lp.add_constraint(vec![1.0, 0.0, 0.0], Comparison::GreaterEqual, 0.2)
            .unwrap();
        lp.add_constraint(vec![0.0, 1.0, 0.0], Comparison::GreaterEqual, 0.3)
            .unwrap();
        let solution = lp.solve().unwrap();
        assert_close(solution.values[0], 0.2, 1e-8);
        assert_close(solution.values[1], 0.3, 1e-8);
        assert_close(solution.values[2], 0.5, 1e-8);
        assert_close(solution.objective_value, 0.4 + 0.9 + 0.5, 1e-8);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new(1, vec![1.0]).unwrap();
        lp.add_constraint(vec![1.0], Comparison::LessEqual, 1.0)
            .unwrap();
        lp.add_constraint(vec![1.0], Comparison::GreaterEqual, 2.0)
            .unwrap();
        assert_eq!(lp.solve(), Err(OptimError::Infeasible));
    }

    #[test]
    fn detects_unboundedness() {
        // minimize -x with only x >= 1: unbounded below.
        let mut lp = LinearProgram::new(1, vec![-1.0]).unwrap();
        lp.add_constraint(vec![1.0], Comparison::GreaterEqual, 1.0)
            .unwrap();
        assert_eq!(lp.solve(), Err(OptimError::Unbounded));
    }

    #[test]
    fn handles_negative_rhs_by_normalization() {
        // x - y <= -1 with minimize x + y  =>  y >= x + 1, best x=0, y=1.
        let mut lp = LinearProgram::new(2, vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![1.0, -1.0], Comparison::LessEqual, -1.0)
            .unwrap();
        let solution = lp.solve().unwrap();
        assert_close(solution.objective_value, 1.0, 1e-8);
        assert_close(solution.values[1] - solution.values[0], 1.0, 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = LinearProgram::new(2, vec![-1.0, -1.0]).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Comparison::LessEqual, 1.0)
            .unwrap();
        lp.add_constraint(vec![0.0, 1.0], Comparison::LessEqual, 1.0)
            .unwrap();
        lp.add_constraint(vec![1.0, 1.0], Comparison::LessEqual, 2.0)
            .unwrap();
        lp.add_constraint(vec![2.0, 2.0], Comparison::LessEqual, 4.0)
            .unwrap();
        let solution = lp.solve().unwrap();
        assert_close(solution.objective_value, -2.0, 1e-8);
    }

    #[test]
    fn probability_simplex_lp_mimics_occupation_measure_structure() {
        // A miniature of Alg. 2's LP: variables rho(s, a) over 3 states x 2
        // actions, probability normalization, and a lower bound on the
        // measure of "good" states.
        let n = 6;
        let cost = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]; // cost = state index
        let mut lp = LinearProgram::new(n, cost).unwrap();
        lp.add_constraint(vec![1.0; 6], Comparison::Equal, 1.0)
            .unwrap();
        // "availability": mass on states 1 and 2 must be at least 0.9.
        lp.add_constraint(
            vec![0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
            Comparison::GreaterEqual,
            0.9,
        )
        .unwrap();
        let solution = lp.solve().unwrap();
        assert_close(solution.values.iter().sum::<f64>(), 1.0, 1e-8);
        // Cheapest way to satisfy the bound puts 0.9 on state 1 and 0.1 on state 0.
        assert_close(solution.objective_value, 0.9, 1e-8);
    }

    #[test]
    fn rejects_dimension_mismatches() {
        assert!(LinearProgram::new(0, vec![]).is_err());
        assert!(LinearProgram::new(2, vec![1.0]).is_err());
        let mut lp = LinearProgram::new(2, vec![1.0, 1.0]).unwrap();
        assert!(lp
            .add_constraint(vec![1.0], Comparison::Equal, 1.0)
            .is_err());
        assert!(lp.constraints.is_empty());
    }

    #[test]
    fn pivot_limit_is_enforced() {
        let mut lp = LinearProgram::new(2, vec![-3.0, -5.0]).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Comparison::LessEqual, 4.0)
            .unwrap();
        lp.add_constraint(vec![0.0, 2.0], Comparison::LessEqual, 12.0)
            .unwrap();
        lp.add_constraint(vec![3.0, 2.0], Comparison::LessEqual, 18.0)
            .unwrap();
        lp.max_pivots = 0;
        assert_eq!(lp.solve(), Err(OptimError::IterationLimit("simplex")));
    }

    #[test]
    fn moderately_sized_random_like_lp_solves() {
        // A transportation-style LP with 40 variables to exercise the solver
        // beyond textbook sizes.
        let sources = 5usize;
        let sinks = 8usize;
        let n = sources * sinks;
        let cost: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 + 1.0).collect();
        let mut lp = LinearProgram::new(n, cost).unwrap();
        // Each source ships exactly 1 unit.
        for s in 0..sources {
            let mut row = vec![0.0; n];
            for k in 0..sinks {
                row[s * sinks + k] = 1.0;
            }
            lp.add_constraint(row, Comparison::Equal, 1.0).unwrap();
        }
        // Each sink receives at most 1 unit.
        for k in 0..sinks {
            let mut row = vec![0.0; n];
            for s in 0..sources {
                row[s * sinks + k] = 1.0;
            }
            lp.add_constraint(row, Comparison::LessEqual, 1.0).unwrap();
        }
        let solution = lp.solve().unwrap();
        // Total shipped must be the number of sources.
        assert_close(solution.values.iter().sum::<f64>(), sources as f64, 1e-6);
        // Optimal cost is the sum of each source's cheapest feasible edges;
        // at minimum it is sources * 1.0.
        assert!(solution.objective_value >= sources as f64 - 1e-9);
    }
}
