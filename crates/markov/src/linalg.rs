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
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::DimensionMismatch`] if the matrix is not square or
    ///   `b` has the wrong length.
    /// * [`MarkovError::SingularMatrix`] if a pivot smaller than `1e-12` is
    ///   encountered.
    pub fn solve(&self, b: &[f64]) -> Result<Vector> {
        if self.rows != self.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        if b.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: format!("vector of length {}", self.rows),
                found: format!("vector of length {}", b.len()),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut rhs = b.to_vec();

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

        // Back substitution.
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

    #[test]
    fn normalize_scales_to_a_distribution() {
        let v = normalize(&[1.0, 1.0, 2.0]).unwrap();
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((v[2] - 0.5).abs() < 1e-12);
        assert!(normalize(&[0.0, 0.0]).is_err());
        assert!(normalize(&[-1.0, 2.0]).is_err());
    }
}
