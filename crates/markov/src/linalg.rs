//! Small dense linear algebra.
//!
//! The TOLERANCE reproduction only needs modest matrix sizes (Markov chains
//! with at most a few thousand states, LP tableaux with a few thousand
//! columns), so a simple row-major `Vec<f64>` representation with partial
//! pivoting is sufficient and keeps the workspace dependency-free.

use crate::error::{MarkovError, Result};

/// A dense column vector of `f64` values.
type Vector = Vec<f64>;

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if the rows have differing
    /// lengths, and [`MarkovError::EmptyInput`] if no rows are provided.
    pub(crate) fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(MarkovError::EmptyInput("matrix rows"));
        }
        let cols = rows[0].len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(MarkovError::DimensionMismatch {
                    expected: format!("{cols} columns"),
                    found: format!("{} columns in row {i}", row.len()),
                });
            }
        }
        let data = rows.into_iter().flatten().collect();
        Ok(Matrix {
            rows: 0,
            cols,
            data,
        }
        .with_inferred_rows())
    }

    fn with_inferred_rows(mut self) -> Self {
        self.rows = self.data.len().checked_div(self.cols).unwrap_or(0);
        self
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the row at `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Vector-matrix product `x^T A` (useful for propagating row-stochastic
    /// distributions).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub(crate) fn vec_mul(&self, x: &[f64]) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: format!("vector of length {}", self.rows),
                found: format!("vector of length {}", x.len()),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row(r).iter().enumerate() {
                out[c] += xr * v;
            }
        }
        Ok(out)
    }

    /// Solves the linear system `A x = b` using Gaussian elimination with
    /// partial pivoting: [`Matrix::factorize`], then [`Lu::solve`].
    ///
    /// # Errors
    ///
    /// * [`MarkovError::DimensionMismatch`] if the matrix is not square or
    ///   `b` has the wrong length.
    /// * [`MarkovError::SingularMatrix`] if a pivot smaller than `1e-12` is
    ///   encountered (reported before a wrong length of `b`).
    pub fn solve(&self, b: &[f64]) -> Result<Vector> {
        self.factorize()?.solve(b)
    }

    /// Runs the elimination of `A x = b` once, without a right-hand side:
    /// partial pivoting on the largest entry of each column, the row swaps
    /// and the elimination factors recorded so [`Lu::solve`] can replay them
    /// on any `b` in O(n²).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::DimensionMismatch`] if the matrix is not square.
    /// * [`MarkovError::SingularMatrix`] if a pivot smaller than `1e-12` is
    ///   encountered.
    pub fn factorize(&self) -> Result<Lu> {
        if self.rows != self.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut pivots = Vec::with_capacity(n);

        for col in 0..n {
            // Partial pivoting: find the row with the largest entry in `col`.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(MarkovError::SingularMatrix);
            }
            // Columns left of `col` hold the factors of earlier steps, which
            // stay with the row position they were computed for.
            if pivot_row != col {
                for c in col..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
            }
            pivots.push(pivot_row);
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                // The eliminated entry is never read again: its slot keeps
                // the factor (an exact zero marks a row the step skips).
                a[r * n + col] = factor;
                if factor == 0.0 {
                    continue;
                }
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
            }
        }
        Ok(Lu { a, pivots })
    }
}

/// A factorized square matrix: the upper triangle left by
/// [`Matrix::factorize`], the elimination factors below it, and the row
/// swapped with each column's row.
#[derive(Debug, Clone, PartialEq)]
pub struct Lu {
    a: Vec<f64>,
    pivots: Vec<usize>,
}

impl Lu {
    /// Solves `A x = b` for the factorized `A`: the recorded swaps and row
    /// updates applied to `b` in elimination order, then back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vector> {
        let n = self.pivots.len();
        if b.len() != n {
            return Err(MarkovError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        let a = &self.a;
        let mut x = b.to_vec();
        for col in 0..n {
            x.swap(col, self.pivots[col]);
            for r in (col + 1)..n {
                let factor = a[r * n + col];
                if factor == 0.0 {
                    continue;
                }
                x[r] -= factor * x[col];
            }
        }

        // Back substitution, in place: entries above `row` already hold the
        // solution.
        for row in (0..n).rev() {
            let mut acc = x[row];
            for c in (row + 1)..n {
                acc -= a[row * n + c] * x[c];
            }
            x[row] = acc / a[row * n + row];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

/// Normalizes a non-negative slice so that it sums to one.
///
/// # Errors
///
/// Returns [`MarkovError::NotStochastic`] if the sum is non-positive or any
/// entry is negative.
pub(crate) fn normalize(values: &[f64]) -> Result<Vector> {
    if values.iter().any(|&v| v < 0.0) {
        return Err(MarkovError::NotStochastic {
            row: 0,
            sum: f64::NAN,
        });
    }
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return Err(MarkovError::NotStochastic { row: 0, sum });
    }
    Ok(values.iter().map(|v| v / sum).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validates_shape() {
        assert!(Matrix::from_rows(vec![]).is_err());
        assert!(Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn vector_matrix_product() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.vec_mul(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(m.vec_mul(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn solve_small_system() {
        // 2x + y = 5, x + 3y = 10 => x = 1, y = 3
        let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MarkovError::SingularMatrix));
    }

    #[test]
    fn solve_requires_square_and_matching_rhs() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert!(a.solve(&[1.0, 2.0]).is_err());
        let b = Matrix::zeros(2, 2);
        assert!(b.solve(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn solve_with_pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    /// `Matrix::solve` as it was before the factorization was split out of
    /// it: one elimination that carries the right-hand side along. Kept as
    /// the reference `factorize` + `Lu::solve` must equal bit for bit.
    fn solve_in_one_pass(m: &Matrix, b: &[f64]) -> Result<Vector> {
        if m.rows != m.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", m.rows, m.cols),
            });
        }
        if b.len() != m.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: format!("vector of length {}", m.rows),
                found: format!("vector of length {}", b.len()),
            });
        }
        let n = m.rows;
        let mut a = m.data.clone();
        let mut rhs = b.to_vec();
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(MarkovError::SingularMatrix);
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                rhs.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                rhs[r] -= factor * rhs[col];
            }
        }
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = rhs[row];
            for c in (row + 1)..n {
                acc -= a[row * n + c] * x[c];
            }
            x[row] = acc / a[row * n + row];
        }
        Ok(x)
    }

    fn assert_factorized_solve_matches(m: &Matrix, b: &[f64]) {
        let expected = solve_in_one_pass(m, b).expect("the reference solves the system");
        let lu = m.factorize().expect("the matrix factorizes");
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        // The factorization is reusable: the second solve sees the same bits.
        for _ in 0..2 {
            assert_eq!(bits(&lu.solve(b).unwrap()), bits(&expected));
        }
        assert_eq!(bits(&m.solve(b).unwrap()), bits(&expected));
    }

    #[test]
    fn factorized_solve_matches_the_one_pass_solve_on_random_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        for n in [1usize, 2, 3, 5, 8, 13, 38] {
            for _ in 0..8 {
                // Diagonally dominant, so well conditioned, but with the
                // dominant entry moved off the diagonal in some rows so the
                // pivot search has to swap.
                let mut m = Matrix::zeros(n, n);
                for r in 0..n {
                    for c in 0..n {
                        m[(r, c)] = rng.random_range(-1.0..1.0);
                    }
                    let dominant = if rng.random::<f64>() < 0.5 {
                        r
                    } else {
                        (r + 1) % n
                    };
                    m[(r, dominant)] +=
                        n as f64 * if rng.random::<f64>() < 0.5 { 1.0 } else { -1.0 };
                }
                let b: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
                assert_factorized_solve_matches(&m, &b);
            }
        }
    }

    #[test]
    fn factorized_solve_matches_when_rows_are_swapped() {
        let m = Matrix::from_rows(vec![
            vec![0.0, 2.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![4.0, -1.0, 0.5],
        ])
        .unwrap();
        assert_factorized_solve_matches(&m, &[3.0, -2.0, 7.0]);
        // The swap is recorded: rows 0 and 2 trade places in the first step.
        assert_eq!(m.factorize().unwrap().pivots[0], 2);
    }

    #[test]
    fn factorized_solve_matches_with_an_exact_zero_factor() {
        // Row 1 has nothing to eliminate in column 0: the factor is an exact
        // zero and the step is skipped.
        let m = Matrix::from_rows(vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 0.0, 4.0],
        ])
        .unwrap();
        assert_factorized_solve_matches(&m, &[1.0, -0.0, -2.0]);
        // Skipping is not the same as subtracting `0.0 * b[0]`: with a
        // negative `b[0]` that would turn the negative zero in `b[1]`
        // positive, and here it survives into the solution.
        let b = [-4.0, -0.0, -2.0];
        assert_factorized_solve_matches(&m, &b);
        let x = m.factorize().unwrap().solve(&b).unwrap();
        assert_eq!(x[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(m.factorize().unwrap().a[3], 0.0);
    }

    #[test]
    fn factorize_reports_singularity_where_solve_did() {
        let singular = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(
            solve_in_one_pass(&singular, &[1.0, 2.0]),
            Err(MarkovError::SingularMatrix)
        );
        assert_eq!(singular.factorize(), Err(MarkovError::SingularMatrix));
        assert_eq!(
            singular.solve(&[1.0, 2.0]),
            Err(MarkovError::SingularMatrix)
        );
        assert_eq!(
            Matrix::zeros(3, 3).factorize(),
            Err(MarkovError::SingularMatrix)
        );
        // Shape errors: a non-square matrix never factorizes, a factorized
        // one rejects a right-hand side of the wrong length.
        let wide = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(
            wide.factorize(),
            Err(MarkovError::DimensionMismatch { .. })
        ));
        let identity = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            identity.factorize().unwrap().solve(&[1.0]),
            Err(MarkovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn normalize_scales_to_a_distribution() {
        let v = normalize(&[1.0, 1.0, 2.0]).unwrap();
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((v[2] - 0.5).abs() < 1e-12);
        assert!(normalize(&[0.0, 0.0]).is_err());
        assert!(normalize(&[-1.0, 2.0]).is_err());
    }
}
