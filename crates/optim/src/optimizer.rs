//! Common optimizer interface and result types.

use crate::error::Result;
use crate::objective::Objective;
use rand::RngCore;

/// A point on a convergence curve: the best objective value found after a
/// given number of objective evaluations and a given wall-clock duration.
///
/// These points regenerate the convergence curves of Fig. 7 and the
/// compute-time comparison of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConvergencePoint {
    /// Number of objective evaluations consumed so far.
    pub evaluations: usize,
    /// Wall-clock seconds elapsed since the start of the optimization.
    pub elapsed_seconds: f64,
    /// Best (smallest) objective value observed so far.
    pub best_value: f64,
}

/// The outcome of a black-box optimization run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OptimizationResult {
    /// The best point found (in `[0, 1]^d`).
    pub best_point: Vec<f64>,
    /// The objective value at the best point (as estimated during the run).
    pub best_value: f64,
    /// Total number of objective evaluations used.
    pub evaluations: usize,
    /// Convergence history, one entry per optimizer iteration.
    pub history: Vec<ConvergencePoint>,
}

impl OptimizationResult {
    /// Returns the wall-clock time of the run in seconds (0 if no history was
    /// recorded).
    pub fn elapsed_seconds(&self) -> f64 {
        self.history
            .last()
            .map(|p| p.elapsed_seconds)
            .unwrap_or(0.0)
    }
}

/// A black-box minimizer over the unit hypercube.
pub trait Optimizer {
    /// Runs the optimizer on `objective` using `rng` as the source of
    /// randomness and returns the best point found.
    ///
    /// # Errors
    ///
    /// Returns an error if the optimizer configuration is inconsistent with
    /// the objective (e.g. dimension mismatch) or if a numerical failure
    /// occurs.
    fn minimize(
        &self,
        objective: &dyn Objective,
        rng: &mut dyn RngCore,
    ) -> Result<OptimizationResult>;

    /// A short human-readable name used in experiment reports ("cem", "spsa", ...).
    fn name(&self) -> &'static str;
}

/// Tracks the best-so-far value and builds the convergence history shared by
/// all optimizer implementations.
#[derive(Debug)]
pub(crate) struct ProgressTracker {
    start: std::time::Instant,
    evaluations: usize,
    best_point: Vec<f64>,
    best_value: f64,
    history: Vec<ConvergencePoint>,
}

impl ProgressTracker {
    pub(crate) fn new(dimension: usize) -> Self {
        ProgressTracker {
            start: std::time::Instant::now(),
            evaluations: 0,
            best_point: vec![0.5; dimension],
            best_value: f64::INFINITY,
            history: Vec::new(),
        }
    }

    /// Evaluates `jobs` as one [`Objective::evaluate_batch`], records every
    /// value in job order and returns them.
    pub(crate) fn evaluate_batch(
        &mut self,
        objective: &dyn Objective,
        jobs: &[(Vec<f64>, u64)],
    ) -> Vec<f64> {
        let values = objective.evaluate_batch(jobs);
        self.evaluations += jobs.len();
        for ((point, _), &value) in jobs.iter().zip(&values) {
            self.offer(point, value);
        }
        values
    }

    /// Evaluates one point and records its value.
    pub(crate) fn evaluate(&mut self, objective: &dyn Objective, point: &[f64], seed: u64) -> f64 {
        let value = objective.evaluate(point, seed);
        self.evaluations += 1;
        self.offer(point, value);
        value
    }

    /// Offers a candidate; keeps it if it improves on the best so far.
    fn offer(&mut self, point: &[f64], value: f64) {
        if value < self.best_value {
            self.best_value = value;
            self.best_point = point.to_vec();
        }
    }

    /// Closes an optimizer iteration by appending a convergence point.
    pub(crate) fn end_iteration(&mut self) {
        self.history.push(ConvergencePoint {
            evaluations: self.evaluations,
            elapsed_seconds: self.start.elapsed().as_secs_f64(),
            best_value: self.best_value,
        });
    }

    /// Current best value.
    #[cfg(test)]
    pub(crate) fn best_value(&self) -> f64 {
        self.best_value
    }

    /// Current best point.
    pub(crate) fn best_point(&self) -> &[f64] {
        &self.best_point
    }

    pub(crate) fn finish(self) -> OptimizationResult {
        OptimizationResult {
            best_point: self.best_point,
            best_value: self.best_value,
            evaluations: self.evaluations,
            history: self.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;

    #[test]
    fn tracker_keeps_best_and_history() {
        // The value is the seed, so the jobs script the values.
        let objective = FnObjective::new(2, |_: &[f64], seed| seed as f64);
        let mut tracker = ProgressTracker::new(2);
        let values = tracker.evaluate_batch(
            &objective,
            &[(vec![0.1, 0.2], 5), (vec![0.3, 0.4], 7)], // the second is worse
        );
        assert_eq!(values, vec![5.0, 7.0]);
        tracker.end_iteration();
        assert_eq!(tracker.evaluate(&objective, &[0.5, 0.6], 1), 1.0);
        tracker.end_iteration();
        assert_eq!(tracker.best_value(), 1.0);
        let result = tracker.finish();
        assert_eq!(result.best_point, vec![0.5, 0.6]);
        assert_eq!(result.evaluations, 3);
        assert_eq!(result.history.len(), 2);
        assert_eq!(result.history[0].evaluations, 2);
        assert_eq!(result.history[0].best_value, 5.0);
        assert_eq!(result.history[1].best_value, 1.0);
        assert!(result.elapsed_seconds() >= 0.0);
    }

    #[test]
    fn empty_result_reports_zero_elapsed() {
        let result = OptimizationResult {
            best_point: vec![],
            best_value: f64::INFINITY,
            evaluations: 0,
            history: vec![],
        };
        assert_eq!(result.elapsed_seconds(), 0.0);
    }
}
