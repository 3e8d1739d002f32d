//! Alpha-vector value functions for POMDPs with cost minimization.
//!
//! The optimal finite-horizon value function of a POMDP is piecewise linear
//! in the belief; with cost minimization it is the lower envelope (minimum)
//! of a finite set of *alpha vectors* (Fig. 4 in the paper shows exactly this
//! envelope for the node-recovery POMDP). This module provides the vector
//! type, the value-function container, and the two pruning operations used by
//! incremental pruning: pointwise-domination pruning and exact LP pruning.

use crate::error::{PomdpError, Result};
use tolerance_optim::simplex::{Comparison, LinearProgram};

/// A single alpha vector: per-state values plus the action whose choice the
/// vector encodes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlphaVector {
    /// The value of the vector at each (hidden) state.
    pub values: Vec<f64>,
    /// The action associated with this vector.
    pub action: usize,
}

impl AlphaVector {
    /// Creates an alpha vector.
    pub fn new(values: Vec<f64>, action: usize) -> Self {
        AlphaVector { values, action }
    }

    /// Inner product with a belief vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn dot(&self, belief: &[f64]) -> f64 {
        assert_eq!(
            self.values.len(),
            belief.len(),
            "belief/alpha length mismatch"
        );
        self.values.iter().zip(belief).map(|(a, b)| a * b).sum()
    }

    /// Whether `other` is at least as good (for minimization: no larger) in
    /// every state, making `self` redundant.
    fn is_pointwise_dominated_by(&self, other: &AlphaVector, tolerance: f64) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|(mine, theirs)| *theirs <= *mine + tolerance)
    }
}

/// A piecewise-linear value function represented as the lower envelope of a
/// set of alpha vectors.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ValueFunction {
    vectors: Vec<AlphaVector>,
}

impl ValueFunction {
    /// Creates a value function from a set of vectors.
    pub fn new(vectors: Vec<AlphaVector>) -> Self {
        ValueFunction { vectors }
    }

    /// The vectors making up the lower envelope.
    pub(crate) fn vectors(&self) -> &[AlphaVector] {
        &self.vectors
    }

    /// Number of alpha vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the value function has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Evaluates the value function at a belief: `min_α α·b`.
    ///
    /// # Panics
    ///
    /// Panics if the value function is empty.
    pub fn evaluate(&self, belief: &[f64]) -> f64 {
        self.vectors
            .iter()
            .map(|v| v.dot(belief))
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
    }

    /// The minimizing vector at a belief, together with its value.
    ///
    /// Returns `None` if the value function is empty.
    fn best_vector(&self, belief: &[f64]) -> Option<(&AlphaVector, f64)> {
        self.vectors
            .iter()
            .map(|v| (v, v.dot(belief)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The greedy action at a belief (action of the minimizing vector).
    ///
    /// Returns `None` if the value function is empty.
    pub fn greedy_action(&self, belief: &[f64]) -> Option<usize> {
        self.best_vector(belief).map(|(v, _)| v.action)
    }

    /// Removes vectors that are pointwise dominated by another vector.
    pub fn prune_pointwise(&mut self, tolerance: f64) {
        let mut keep: Vec<AlphaVector> = Vec::with_capacity(self.vectors.len());
        'outer: for (i, candidate) in self.vectors.iter().enumerate() {
            for (j, other) in self.vectors.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominated = candidate.is_pointwise_dominated_by(other, tolerance);
                if dominated {
                    // Break ties so that exactly one of two identical vectors
                    // survives (the earlier one).
                    let identical = other.is_pointwise_dominated_by(candidate, tolerance);
                    if !identical || j < i {
                        continue 'outer;
                    }
                }
            }
            keep.push(candidate.clone());
        }
        self.vectors = keep;
    }

    /// Exact pruning: keeps only vectors that achieve the minimum at some
    /// belief (the "witness" LP of incremental pruning).
    ///
    /// # Errors
    ///
    /// Propagates LP-solver failures as [`PomdpError::Lp`].
    pub fn prune_lp(&mut self, tolerance: f64) -> Result<()> {
        if self.vectors.len() <= 1 {
            return Ok(());
        }
        self.prune_pointwise(tolerance);
        if self.vectors.len() <= 1 {
            return Ok(());
        }
        let mut kept: Vec<AlphaVector> = Vec::new();
        let all = self.vectors.clone();
        for (i, candidate) in all.iter().enumerate() {
            let others: Vec<&AlphaVector> = all
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v)
                .collect();
            if witness_belief_exists(candidate, &others, tolerance)? {
                kept.push(candidate.clone());
            }
        }
        // Safety: the envelope must never become empty.
        if kept.is_empty() {
            kept.push(all[0].clone());
        }
        self.vectors = kept;
        Ok(())
    }

    /// Adds a vector to the set (without pruning).
    pub fn push(&mut self, vector: AlphaVector) {
        self.vectors.push(vector);
    }
}

/// Solves the witness LP: does a belief exist where `candidate` is strictly
/// better (smaller) than every vector in `others` by at least `tolerance`?
///
/// The LP maximizes the margin `δ` subject to
/// `b·(other - candidate) >= δ` for every other vector, `Σ b = 1`, `b >= 0`.
fn witness_belief_exists(
    candidate: &AlphaVector,
    others: &[&AlphaVector],
    tolerance: f64,
) -> Result<bool> {
    if others.is_empty() {
        return Ok(true);
    }
    let n = candidate.values.len();
    // Variables: b_0..b_{n-1}, delta_plus, delta_minus (delta = plus - minus).
    let num_variables = n + 2;
    let mut objective = vec![0.0; num_variables];
    objective[n] = -1.0; // maximize delta => minimize -delta_plus + delta_minus
    objective[n + 1] = 1.0;
    let mut lp = LinearProgram::new(num_variables, objective).map_err(PomdpError::from)?;

    // Σ b = 1.
    let mut normalization = vec![0.0; num_variables];
    normalization[..n].fill(1.0);
    lp.add_constraint(normalization, Comparison::Equal, 1.0)
        .map_err(PomdpError::from)?;

    // Explicit upper bound on delta_plus: the margin can never exceed the
    // largest entry-wise difference, so this bound is inactive at any true
    // optimum; it exists to keep the LP bounded under degenerate pivoting.
    let max_difference = others
        .iter()
        .flat_map(|other| {
            other
                .values
                .iter()
                .zip(&candidate.values)
                .map(|(o, c)| o - c)
        })
        .fold(0.0f64, f64::max);
    let mut delta_bound = vec![0.0; num_variables];
    delta_bound[n] = 1.0;
    lp.add_constraint(delta_bound, Comparison::LessEqual, max_difference + 1.0)
        .map_err(PomdpError::from)?;

    // b·(other - candidate) - delta >= 0 for every other vector.
    for other in others {
        let mut row = vec![0.0; num_variables];
        for (s, value) in row.iter_mut().enumerate().take(n) {
            *value = other.values[s] - candidate.values[s];
        }
        row[n] = -1.0;
        row[n + 1] = 1.0;
        lp.add_constraint(row, Comparison::GreaterEqual, 0.0)
            .map_err(PomdpError::from)?;
    }

    let solution = lp.solve().map_err(PomdpError::from)?;
    let delta = solution.values[n] - solution.values[n + 1];
    Ok(delta > tolerance)
}

/// Computes the cross sum of two vector sets: every pairwise sum, keeping the
/// action of the first operand. Used by incremental pruning to combine the
/// per-observation backup sets.
pub(crate) fn cross_sum(a: &[AlphaVector], b: &[AlphaVector]) -> Vec<AlphaVector> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() * b.len());
    for va in a {
        for vb in b {
            let values = va
                .values
                .iter()
                .zip(&vb.values)
                .map(|(x, y)| x + y)
                .collect();
            out.push(AlphaVector::new(values, va.action));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn dot_and_domination() {
        let a = AlphaVector::new(vec![1.0, 3.0], 0);
        let b = AlphaVector::new(vec![0.5, 2.0], 1);
        assert_close(a.dot(&[0.5, 0.5]), 2.0, 1e-12);
        assert!(a.is_pointwise_dominated_by(&b, 1e-9));
        assert!(!b.is_pointwise_dominated_by(&a, 1e-9));
    }

    #[test]
    fn evaluate_takes_lower_envelope() {
        let vf = ValueFunction::new(vec![
            AlphaVector::new(vec![0.0, 2.0], 0),
            AlphaVector::new(vec![2.0, 0.0], 1),
        ]);
        assert_close(vf.evaluate(&[1.0, 0.0]), 0.0, 1e-12);
        assert_close(vf.evaluate(&[0.0, 1.0]), 0.0, 1e-12);
        assert_close(vf.evaluate(&[0.5, 0.5]), 1.0, 1e-12);
        assert_eq!(vf.greedy_action(&[0.9, 0.1]), Some(0));
        assert_eq!(vf.greedy_action(&[0.1, 0.9]), Some(1));
        assert_eq!(vf.len(), 2);
        assert!(!vf.is_empty());
    }

    #[test]
    fn pointwise_pruning_removes_dominated_and_keeps_one_duplicate() {
        let mut vf = ValueFunction::new(vec![
            AlphaVector::new(vec![1.0, 1.0], 0),
            AlphaVector::new(vec![2.0, 2.0], 1), // dominated
            AlphaVector::new(vec![1.0, 1.0], 2), // duplicate of the first
        ]);
        vf.prune_pointwise(1e-9);
        assert_eq!(vf.len(), 1);
        assert_eq!(vf.vectors()[0].action, 0);
    }

    #[test]
    fn lp_pruning_removes_vectors_never_on_the_envelope() {
        // Vector c = (1.1, 1.1) is above the envelope of a and b everywhere
        // on the simplex, but is not pointwise dominated by either alone.
        let mut vf = ValueFunction::new(vec![
            AlphaVector::new(vec![0.0, 2.0], 0),
            AlphaVector::new(vec![2.0, 0.0], 1),
            AlphaVector::new(vec![1.1, 1.1], 2),
        ]);
        vf.prune_lp(1e-9).unwrap();
        assert_eq!(vf.len(), 2);
        assert!(vf.vectors().iter().all(|v| v.action != 2));
    }

    #[test]
    fn lp_pruning_keeps_vectors_that_win_somewhere() {
        // The middle vector wins near the center of the simplex.
        let mut vf = ValueFunction::new(vec![
            AlphaVector::new(vec![0.0, 2.0], 0),
            AlphaVector::new(vec![2.0, 0.0], 1),
            AlphaVector::new(vec![0.8, 0.8], 2),
        ]);
        vf.prune_lp(1e-9).unwrap();
        assert_eq!(vf.len(), 3);
    }

    #[test]
    fn lp_pruning_handles_tiny_sets() {
        let mut vf = ValueFunction::new(vec![AlphaVector::new(vec![1.0, 1.0], 0)]);
        vf.prune_lp(1e-9).unwrap();
        assert_eq!(vf.len(), 1);
        let mut empty = ValueFunction::default();
        empty.prune_lp(1e-9).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn cross_sum_combines_sets() {
        let a = vec![
            AlphaVector::new(vec![1.0, 0.0], 0),
            AlphaVector::new(vec![0.0, 1.0], 1),
        ];
        let b = vec![AlphaVector::new(vec![10.0, 10.0], 7)];
        let sum = cross_sum(&a, &b);
        assert_eq!(sum.len(), 2);
        assert_eq!(sum[0].values, vec![11.0, 10.0]);
        assert_eq!(
            sum[0].action, 0,
            "cross sum keeps the first operand's action"
        );
        assert_eq!(cross_sum(&[], &b).len(), 1);
        assert_eq!(cross_sum(&a, &[]).len(), 2);
    }

    #[test]
    fn best_vector_on_empty_function_is_none() {
        let vf = ValueFunction::default();
        assert!(vf.best_vector(&[1.0]).is_none());
        assert!(vf.greedy_action(&[1.0]).is_none());
    }
}
