//! Finite discrete-time Markov chains.
//!
//! Provides the analysis primitives of Appendix F of the paper: mean hitting
//! times (mean time to failure, Fig. 6a) and reliability functions computed
//! from the Chapman–Kolmogorov equation (Fig. 6b).

use crate::error::{MarkovError, Result};
use crate::linalg::Matrix;

/// Tolerance used when validating that rows are probability distributions.
const STOCHASTIC_TOLERANCE: f64 = 1e-8;

/// A finite discrete-time Markov chain described by a row-stochastic
/// transition matrix.
///
/// # Example
///
/// ```
/// use tolerance_markov::chain::MarkovChain;
///
/// // Birth-death chain on {0, 1, 2} with absorbing state 0.
/// let chain = MarkovChain::new(vec![
///     vec![1.0, 0.0, 0.0],
///     vec![0.2, 0.5, 0.3],
///     vec![0.0, 0.3, 0.7],
/// ]).unwrap();
/// let hit = chain.mean_hitting_time(&[0]).unwrap();
/// assert!(hit[2] > hit[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    transition: Matrix,
}

impl MarkovChain {
    /// Creates a chain from nested transition rows.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotStochastic`] if any row has negative entries
    /// or does not sum to one, [`MarkovError::DimensionMismatch`] if the
    /// matrix is not square, and [`MarkovError::EmptyInput`] if it is empty.
    pub fn new(rows: Vec<Vec<f64>>) -> Result<Self> {
        let matrix = Matrix::from_rows(rows)?;
        MarkovChain::from_matrix(matrix)
    }

    /// Creates a chain from an existing matrix.
    ///
    /// # Errors
    ///
    /// Same as [`MarkovChain::new`].
    fn from_matrix(transition: Matrix) -> Result<Self> {
        if transition.rows() != transition.cols() {
            return Err(MarkovError::DimensionMismatch {
                expected: "square transition matrix".into(),
                found: format!("{}x{}", transition.rows(), transition.cols()),
            });
        }
        for r in 0..transition.rows() {
            let row = transition.row(r);
            if row.iter().any(|&p| p < -STOCHASTIC_TOLERANCE) {
                return Err(MarkovError::NotStochastic {
                    row: r,
                    sum: f64::NAN,
                });
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(MarkovError::NotStochastic { row: r, sum });
            }
        }
        Ok(MarkovChain { transition })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transition.rows()
    }

    /// One-step transition probability `P[s -> s']`.
    ///
    /// # Panics
    ///
    /// Panics if either state index is out of bounds.
    pub fn transition_probability(&self, from: usize, to: usize) -> f64 {
        self.transition[(from, to)]
    }

    /// Propagates an initial distribution `t` steps forward.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if the distribution length
    /// does not match the number of states.
    pub fn propagate(&self, initial: &[f64], t: u32) -> Result<Vec<f64>> {
        let mut dist = initial.to_vec();
        for _ in 0..t {
            dist = self.transition.vec_mul(&dist)?;
        }
        Ok(dist)
    }

    /// Mean hitting time of the target set from every state.
    ///
    /// For states inside `targets` the hitting time is zero; for the others
    /// it solves the standard linear system
    /// `h(s) = 1 + Σ_{s' ∉ T} P[s -> s'] h(s')`.
    ///
    /// This computes the mean time to failure of Appendix F when `targets`
    /// is the failure set `{0, ..., f}`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyInput`] if `targets` is empty.
    /// * [`MarkovError::InvalidParameter`] if a target index is out of range.
    /// * [`MarkovError::NoSolution`] if the target set is not reachable from
    ///   some state (the linear system is singular).
    pub fn mean_hitting_time(&self, targets: &[usize]) -> Result<Vec<f64>> {
        if targets.is_empty() {
            return Err(MarkovError::EmptyInput("targets"));
        }
        let n = self.num_states();
        let mut is_target = vec![false; n];
        for &t in targets {
            if t >= n {
                return Err(MarkovError::InvalidParameter {
                    name: "targets",
                    reason: format!("state {t} out of range (chain has {n} states)"),
                });
            }
            is_target[t] = true;
        }
        let transient: Vec<usize> = (0..n).filter(|&s| !is_target[s]).collect();
        if transient.is_empty() {
            return Ok(vec![0.0; n]);
        }
        // Build (I - Q) h = 1 over the transient states.
        let m = transient.len();
        let mut a = Matrix::zeros(m, m);
        for (i, &s) in transient.iter().enumerate() {
            for (j, &s2) in transient.iter().enumerate() {
                a[(i, j)] = if i == j { 1.0 } else { 0.0 } - self.transition[(s, s2)];
            }
        }
        let h = a.solve(&vec![1.0; m]).map_err(|_| {
            MarkovError::NoSolution("target set unreachable from some state".into())
        })?;
        let mut result = vec![0.0; n];
        for (i, &s) in transient.iter().enumerate() {
            result[s] = h[i];
        }
        Ok(result)
    }

    /// Probability of having hit the target set by time `t`, from the given
    /// start state, assuming the target set is made absorbing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MarkovChain::mean_hitting_time`] plus an
    /// out-of-range start state.
    fn hitting_probability_by(&self, start: usize, targets: &[usize], t: u32) -> Result<f64> {
        if targets.is_empty() {
            return Err(MarkovError::EmptyInput("targets"));
        }
        let n = self.num_states();
        if start >= n {
            return Err(MarkovError::InvalidParameter {
                name: "start",
                reason: format!("state {start} out of range (chain has {n} states)"),
            });
        }
        let mut is_target = vec![false; n];
        for &tgt in targets {
            if tgt >= n {
                return Err(MarkovError::InvalidParameter {
                    name: "targets",
                    reason: format!("state {tgt} out of range (chain has {n} states)"),
                });
            }
            is_target[tgt] = true;
        }
        // Make targets absorbing, then propagate.
        let mut rows = Vec::with_capacity(n);
        for s in 0..n {
            if is_target[s] {
                let mut row = vec![0.0; n];
                row[s] = 1.0;
                rows.push(row);
            } else {
                rows.push(self.transition.row(s).to_vec());
            }
        }
        let absorbed = MarkovChain::new(rows)?;
        let mut initial = vec![0.0; n];
        initial[start] = 1.0;
        let dist = absorbed.propagate(&initial, t)?;
        Ok(dist
            .iter()
            .enumerate()
            .filter(|(s, _)| is_target[*s])
            .map(|(_, p)| p)
            .sum())
    }

    /// The reliability function `R(t) = P[T_fail > t]` of Appendix F, i.e. the
    /// probability that the chain started in `start` has **not** entered the
    /// failure set by time `t`, for `t = 0..=horizon`.
    ///
    /// # Errors
    ///
    /// Same conditions as `MarkovChain::hitting_probability_by`.
    pub fn reliability_curve(
        &self,
        start: usize,
        failure_states: &[usize],
        horizon: u32,
    ) -> Result<Vec<f64>> {
        let mut curve = Vec::with_capacity(horizon as usize + 1);
        for t in 0..=horizon {
            curve.push(1.0 - self.hitting_probability_by(start, failure_states, t)?);
        }
        Ok(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    fn two_state(p_fail: f64) -> MarkovChain {
        MarkovChain::new(vec![vec![1.0 - p_fail, p_fail], vec![0.0, 1.0]]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_matrices() {
        assert!(MarkovChain::new(vec![vec![0.5, 0.4], vec![0.0, 1.0]]).is_err());
        assert!(MarkovChain::new(vec![vec![1.1, -0.1], vec![0.0, 1.0]]).is_err());
        assert!(MarkovChain::new(vec![vec![0.5, 0.5, 0.0], vec![0.0, 1.0, 0.0]]).is_err());
        assert!(MarkovChain::new(vec![]).is_err());
    }

    #[test]
    fn mean_hitting_time_geometric() {
        // Time to absorb from state 0 is geometric with mean 1/p.
        let chain = two_state(0.1);
        let h = chain.mean_hitting_time(&[1]).unwrap();
        assert_close(h[0], 10.0, 1e-9);
        assert_close(h[1], 0.0, 1e-12);
    }

    #[test]
    fn mean_hitting_time_birth_death() {
        let chain = MarkovChain::new(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.0, 0.5, 0.5],
        ])
        .unwrap();
        let h = chain.mean_hitting_time(&[0]).unwrap();
        // Classic gambler's-ruin style values: h(1) = 4, h(2) = 6.
        assert_close(h[1], 4.0, 1e-9);
        assert_close(h[2], 6.0, 1e-9);
    }

    #[test]
    fn mean_hitting_time_errors() {
        let chain = two_state(0.1);
        assert!(chain.mean_hitting_time(&[]).is_err());
        assert!(chain.mean_hitting_time(&[5]).is_err());
        // Unreachable target: from state 1 (absorbing) state 0 is unreachable.
        let err = chain.mean_hitting_time(&[0]);
        assert!(err.is_err());
    }

    #[test]
    fn hitting_probability_matches_geometric_cdf() {
        let chain = two_state(0.1);
        for t in [0u32, 1, 5, 20] {
            let expected = 1.0 - 0.9f64.powi(t as i32);
            assert_close(
                chain.hitting_probability_by(0, &[1], t).unwrap(),
                expected,
                1e-12,
            );
        }
    }

    #[test]
    fn reliability_curve_is_monotone_decreasing() {
        let chain = two_state(0.05);
        let curve = chain.reliability_curve(0, &[1], 50).unwrap();
        assert_eq!(curve.len(), 51);
        assert_close(curve[0], 1.0, 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn propagate_conserves_probability() {
        let chain = MarkovChain::new(vec![
            vec![0.9, 0.1, 0.0],
            vec![0.2, 0.7, 0.1],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let dist = chain.propagate(&[1.0, 0.0, 0.0], 25).unwrap();
        assert_close(dist.iter().sum::<f64>(), 1.0, 1e-9);
    }
}
