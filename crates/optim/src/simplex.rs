//! A self-contained two-phase primal simplex solver.
//!
//! Algorithm 2 of the paper solves the replication CMDP (Problem 2) through
//! the occupation-measure linear program (14); the paper uses the CBC solver,
//! which is not available offline, so this module provides an exact dense
//! simplex implementation instead. The LPs produced by Algorithm 2 have
//! `2(s_max + 1)` variables and about `s_max + 3` constraints; the tableau is
//! dense, so a solve is cubic in `s_max`: 3 ms at 128, 0.3 s at 512, 1.9 s at
//! 1024 and 14 s at the `s_max = 2048` point of Fig. 9 (release, one thread).
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

/// The smallest tableau element a pivot may divide by.
const PIVOT_TOLERANCE: f64 = 1e-9;
/// A reduced cost above `-OPTIMALITY_TOLERANCE` does not enter the basis (the
/// usual dual tolerance: 1e-9 sits below the noise a tableau accumulates).
const OPTIMALITY_TOLERANCE: f64 = 1e-7;
/// How far the ratio test lets a basic variable of a normalized row go below 0
/// (and phase 1 the sum of the artificials stay above it).
const FEASIBILITY_TOLERANCE: f64 = 1e-9;

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
    /// Largest violation of a constraint row by `values`, measured on the
    /// rows as the caller wrote them (not on the solver's scaled copies).
    pub primal_residual: f64,
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
        let (m, n, limit) = (self.constraints.len(), self.num_variables, self.max_pivots);

        // Normalize every row to a non-negative rhs and an ∞-norm in [1, 2):
        // the divisor is the power of two below the norm (its exponent bits;
        // dividing by it rounds nothing) with the sign of the flip. A `>=` row
        // with rhs 0 is flipped too: as a `<=` row it starts on its slack and
        // needs no artificial.
        let mut normalized: Vec<(f64, Comparison)> = Vec::with_capacity(m);
        for c in &self.constraints {
            let norm = c.coefficients.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            let scale = f64::from_bits(norm.to_bits() & (!0 << 52)); // 0 for an empty row
            let divisor = if scale > 0.0 { scale } else { 1.0 };
            let flip = c.rhs < 0.0 || (c.rhs == 0.0 && c.comparison == Comparison::GreaterEqual);
            normalized.push(match (flip, c.comparison) {
                (false, comparison) => (divisor, comparison),
                (true, Comparison::LessEqual) => (-divisor, Comparison::GreaterEqual),
                (true, Comparison::GreaterEqual) => (-divisor, Comparison::LessEqual),
                (true, Comparison::Equal) => (-divisor, Comparison::Equal),
            });
        }
        // One slack/surplus per inequality, one artificial per `>=` and `=`.
        let count = |without| normalized.iter().filter(|r| r.1 != without).count();
        let artificial_start = n + count(Comparison::Equal);
        let total = artificial_start + count(Comparison::LessEqual);
        let width = total + 1; // + rhs column
        let objective_row = m * width;
        let mut tableau = vec![0.0f64; (m + 1) * width];
        let mut basis = vec![0usize; m];

        let (mut slack, mut artificial) = (n, artificial_start);
        for (row, (c, &(divisor, comparison))) in
            self.constraints.iter().zip(&normalized).enumerate()
        {
            let offset = row * width;
            for (slot, coefficient) in tableau[offset..offset + n].iter_mut().zip(&c.coefficients) {
                *slot = coefficient / divisor;
            }
            tableau[offset + total] = c.rhs / divisor;
            // A `<=` row starts on its slack, the others on an artificial
            // (a `>=` row next to its surplus).
            if comparison == Comparison::LessEqual {
                tableau[offset + slack] = 1.0;
                basis[row] = slack;
                slack += 1;
            } else {
                if comparison == Comparison::GreaterEqual {
                    tableau[offset + slack] = -1.0;
                    slack += 1;
                }
                tableau[offset + artificial] = 1.0;
                basis[row] = artificial;
                artificial += 1;
            }
        }

        let mut pivots = 0usize;

        // ---- Phase 1: minimize the sum of artificial variables. ----
        if total > artificial_start {
            tableau[objective_row + artificial_start..objective_row + total].fill(1.0);
            // Make the objective row consistent with the starting basis
            // (price out the artificial basic columns).
            for (row, &b) in basis.iter().enumerate() {
                if b >= artificial_start {
                    for col in 0..width {
                        tableau[objective_row + col] -= tableau[row * width + col];
                    }
                }
            }
            pivots += run_simplex(&mut tableau, &mut basis, m, total, width, limit)?;
            if -tableau[objective_row + total] > FEASIBILITY_TOLERANCE {
                return Err(OptimError::Infeasible);
            }
            // Drive the artificials still basic (at level 0) out on the
            // largest element of their row: taking the first one above the
            // tolerance lets the rows shrink pivot by pivot until the noise
            // of a redundant row passes for an element. That row has nothing
            // worth pivoting on; its artificial stays basic at level 0.
            for row in 0..m {
                if basis[row] >= artificial_start {
                    let entry = |col: &usize| tableau[row * width + col].abs();
                    let col = (0..artificial_start)
                        .max_by(|a, b| entry(a).total_cmp(&entry(b)))
                        .expect("at least one variable");
                    if entry(&col) > PIVOT_TOLERANCE {
                        pivot(&mut tableau, &mut basis, row, col, m, width);
                        pivots += 1;
                    }
                }
            }
            tableau[objective_row..].fill(0.0);
        }

        // ---- Phase 2: the original objective, basic columns priced out; the
        // artificial columns are no candidates any more. ----
        tableau[objective_row..objective_row + n].copy_from_slice(&self.objective);
        for (row, &b) in basis.iter().enumerate() {
            let coefficient = tableau[objective_row + b];
            if coefficient != 0.0 {
                for col in 0..width {
                    tableau[objective_row + col] -= coefficient * tableau[row * width + col];
                }
            }
        }
        pivots += run_simplex(&mut tableau, &mut basis, m, artificial_start, width, limit)?;

        let mut values = vec![0.0; n];
        for (row, &b) in basis.iter().enumerate() {
            if b < n {
                values[b] = tableau[row * width + total];
            }
        }
        Ok(LpSolution {
            objective_value: dot(&self.objective, &values),
            primal_residual: self.residual(&values),
            values,
            pivots,
        })
    }

    /// The largest amount by which `values` violates a constraint row as the
    /// caller wrote it (unscaled).
    fn residual(&self, values: &[f64]) -> f64 {
        let violation = |c: &ConstraintRow| {
            let excess = dot(&c.coefficients, values) - c.rhs;
            match c.comparison {
                Comparison::LessEqual => excess,
                Comparison::GreaterEqual => -excess,
                Comparison::Equal => excess.abs(),
            }
        };
        self.constraints.iter().map(violation).fold(0.0, f64::max)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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
        let mut best = -OPTIMALITY_TOLERANCE;
        for col in 0..candidate_columns {
            let reduced_cost = tableau[objective_row + col];
            if reduced_cost < best {
                best = reduced_cost;
                entering = Some(col);
                if use_bland {
                    break;
                }
            }
        }
        let Some(entering) = entering else {
            return Ok(pivots);
        };
        // Leaving row: a two-pass Harris ratio test. The balance rows of an
        // occupation-measure LP all have rhs 0, so the textbook minimum
        // ratio is one large tie, and breaking it by index pivots on elements
        // of 1e-8 until the tableau overflows. Pass one finds the longest
        // step every row allows with its rhs relaxed by the feasibility
        // tolerance; pass two takes, among the rows blocking within that
        // step, the largest pivot element (under Bland's rule, the lowest
        // basis index).
        let mut max_step = f64::INFINITY;
        for row in 0..m {
            let coefficient = tableau[row * width + entering];
            if coefficient > PIVOT_TOLERANCE {
                let relaxed = tableau[row * width + rhs_col] + FEASIBILITY_TOLERANCE;
                max_step = max_step.min(relaxed / coefficient);
            }
        }
        let mut leaving: Option<(usize, f64)> = None;
        for row in 0..m {
            let coefficient = tableau[row * width + entering];
            if coefficient > PIVOT_TOLERANCE
                && tableau[row * width + rhs_col] / coefficient <= max_step
                && leaving.is_none_or(|(chosen, largest)| {
                    if use_bland {
                        basis[row] < basis[chosen]
                    } else {
                        coefficient > largest
                    }
                })
            {
                leaving = Some((row, coefficient));
            }
        }
        let Some((leaving, _)) = leaving else {
            return Err(OptimError::Unbounded);
        };
        pivot(tableau, basis, leaving, entering, m, width);
        pivots += 1;
    }
}

/// Performs one pivot on (`row`, `col`).
fn pivot(tableau: &mut [f64], basis: &mut [usize], row: usize, col: usize, m: usize, width: usize) {
    let pivot_value = tableau[row * width + col];
    debug_assert!(
        pivot_value.abs() > PIVOT_TOLERANCE,
        "pivot on a zero element"
    );
    let inv = 1.0 / pivot_value;
    for c in 0..width {
        tableau[row * width + c] *= inv;
    }
    for r in 0..=m {
        if r == row {
            continue;
        }
        // Only an exact zero leaves the row as it is: skipping "small"
        // factors leaves non-unit basis columns behind.
        let factor = tableau[r * width + col];
        if factor == 0.0 {
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

    /// The witness LP incremental pruning solved per vector before its exact
    /// prune became a lower-envelope walk (`pomdp::alpha`, which pins the
    /// same two margins), over two-state vectors, "v0 v1" pairs with the
    /// candidate first: the largest δ with
    /// b·(other − candidate) ≥ δ for every other vector and Σb = 1, δ⁺ capped
    /// one above the largest difference.
    fn witness_margin(vectors: &str) -> Result<f64> {
        let v: Vec<f64> = vectors
            .split_whitespace()
            .map(|x| x.parse().unwrap())
            .collect();
        let differences = || v[2..].chunks(2).map(|o| [o[0] - v[0], o[1] - v[1]]);
        let cap = differences().flatten().fold(0.0f64, f64::max) + 1.0;
        let mut lp = LinearProgram::new(4, vec![0.0, 0.0, -1.0, 1.0])?;
        lp.add_constraint(vec![1.0, 1.0, 0.0, 0.0], Comparison::Equal, 1.0)?;
        lp.add_constraint(vec![0.0, 0.0, 1.0, 0.0], Comparison::LessEqual, cap)?;
        for [d0, d1] in differences() {
            lp.add_constraint(vec![d0, d1, -1.0, 1.0], Comparison::GreaterEqual, 0.0)?;
        }
        lp.solve()
            .map(|solution| solution.values[2] - solution.values[3])
    }

    const DOMINATED: &str = "1.2865940585354498 4.236809780718081  \
        1.3880297059545894 4.080438386438141  1.3874147388430507 4.081061787674568  \
        1.5308445923299612 3.9412287963456665  1.5308461865707947 3.9412274001450225  \
        1.5419485508644057 3.9317388152523014  1.5430512738343587 3.931145365050117  \
        1.2930303799366563 4.226257379098183  1.2926247875102865 4.226907400938917  \
        1.2865931940968607 4.236811237413714  1.280824328485257 4.246957493390908  \
        1.2808235071930543 4.246958985992326  1.2808034903185204 4.247003082610599  \
        1.2234413036032683 4.388439572845033  1.2231716398859094 4.389116816106902  \
        1.1992974310003917 4.5159649245497215  1.1765403423496998 4.683758029289388  \
        1.1676335260938744 4.863354417095275  1.1675982440212154 4.86415471975345  \
        1.1764446233307642 4.684508923702059  2.1294039909512663 2.1294039909512663";
    const USEFUL: &str = "0.525083909269583 2.3057507425586516  \
        0.5239937653563239 2.3063436166168354  0.523993442938339 2.3063437944846803  \
        0.5239388118768104 2.3063745149424015  0.5231842496751457 2.306956955866184  \
        0.5118422669436596 2.3162590616915533  0.511177411295357 2.3168875449718356  \
        0.5035035799130816 2.3375498772367864  0.5052015422193195 2.3268389105281853  \
        0.5033980701572089 2.3382577943447482  0.5033980401378142 2.3382580066286582  \
        0.5033932274741326 2.338294648960755  0.5111772151460112 2.3168877334826017  \
        0.7823894698999729 2.1734427247926247";

    #[test]
    fn witness_lps_once_called_unbounded_are_solved() {
        // Both were logged inside `prune_lp` during the horizon-10 solve of
        // the paper's node POMDP at commit 21fea10 (errors 12 and 14 of 87):
        // the index tie-break answered `Unbounded` and `prune_lp` kept the
        // vector. The margins are max_b min_j (other_j − candidate)·(1 − b, b)
        // by a breakpoint scan in rational arithmetic: USEFUL wins by 2.1e-5
        // at b = 0.66036, DOMINATED loses everywhere (least at b = 0.28624).
        assert_close(witness_margin(USEFUL).unwrap(), 2.12498952414979e-5, 1e-8);
        assert_close(
            witness_margin(DOMINATED).unwrap(),
            -1.6724769111270581e-3,
            1e-8,
        );
    }

    #[test]
    fn primal_residual_is_measured_on_the_rows_as_written() {
        // The solver scales `1e-6 x <= 1e-6` to `x <= 1`; x = 3 violates the
        // row the caller wrote by 2e-6, not by 2.
        let mut lp = LinearProgram::new(1, vec![-1.0]).unwrap();
        lp.add_constraint(vec![1e-6], Comparison::LessEqual, 1e-6)
            .unwrap();
        assert_close(lp.residual(&[3.0]), 2e-6, 1e-18);
        let solution = lp.solve().unwrap();
        assert_close(solution.values[0], 1.0, 1e-12);
        assert!(solution.primal_residual < 1e-18);
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
