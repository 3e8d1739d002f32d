//! Bayesian Optimization with a Gaussian-process surrogate.
//!
//! One of the four optimizers evaluated inside Algorithm 1 (Table 2).
//! Following Appendix E of the paper, the surrogate uses a Matérn-5/2 kernel
//! and the lower-confidence-bound (LCB) acquisition function with `β = 2.5`.
//! The acquisition function is optimized by random multi-start search, which
//! is sufficient for the low-dimensional threshold spaces of Algorithm 1.

use crate::cem::sample_standard_normal;
use crate::error::{OptimError, Result};
use crate::objective::{clamp_unit, Objective};
use crate::optimizer::{OptimizationResult, Optimizer, ProgressTracker};
use rand::{Rng, RngCore};
use tolerance_markov::linalg::{Lu, Matrix};

/// Configuration of the [`BayesianOptimization`] optimizer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BoConfig {
    /// Number of uniformly random initial design points.
    pub initial_points: usize,
    /// Number of Bayesian-optimization iterations after the initial design.
    pub iterations: usize,
    /// Exploration weight of the lower confidence bound (paper: 2.5).
    pub beta: f64,
    /// Matérn-5/2 length scale.
    pub length_scale: f64,
    /// Number of random candidates evaluated when maximizing the acquisition
    /// function.
    pub acquisition_candidates: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            initial_points: 8,
            iterations: 40,
            beta: 2.5,
            length_scale: 0.2,
            acquisition_candidates: 500,
        }
    }
}

/// Observation-noise variance added to the kernel diagonal.
const NOISE_VARIANCE: f64 = 1e-4;

/// Matérn-5/2 covariance between two points.
fn matern52(a: &[f64], b: &[f64], length_scale: f64) -> f64 {
    let r2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let r = r2.sqrt() / length_scale;
    let sqrt5_r = 5.0f64.sqrt() * r;
    (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * (-sqrt5_r).exp()
}

/// A Gaussian-process regression model with a Matérn-5/2 kernel, used as the
/// surrogate model of [`BayesianOptimization`].
#[derive(Debug, Clone)]
struct GaussianProcess {
    points: Vec<Vec<f64>>,
    mean_offset: f64,
    length_scale: f64,
    /// Solution of `K alpha = (y - mean)` for the posterior mean.
    alpha: Vec<f64>,
    /// The kernel matrix `K`, factorized once per fit and applied to every
    /// query's covariance vector.
    kernel: Lu,
}

impl GaussianProcess {
    /// Fits a Gaussian process to the given design points and observations.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::Numerical`] if the kernel matrix is singular and
    /// [`OptimError::InvalidConfig`] for empty or inconsistent inputs.
    fn fit(points: Vec<Vec<f64>>, values: Vec<f64>, length_scale: f64) -> Result<Self> {
        if points.is_empty() || points.len() != values.len() {
            return Err(OptimError::InvalidConfig {
                name: "points",
                reason: "need equally many non-empty points and values".into(),
            });
        }
        let n = points.len();
        let mean_offset = values.iter().sum::<f64>() / n as f64;
        let mut kernel = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                kernel[(i, j)] = matern52(&points[i], &points[j], length_scale)
                    + if i == j { NOISE_VARIANCE } else { 0.0 };
            }
        }
        let centered: Vec<f64> = values.iter().map(|v| v - mean_offset).collect();
        let (kernel, alpha) = kernel
            .factorize()
            .and_then(|kernel| kernel.solve(&centered).map(|alpha| (kernel, alpha)))
            .map_err(|e| OptimError::Numerical(format!("kernel solve failed: {e}")))?;
        Ok(GaussianProcess {
            points,
            mean_offset,
            length_scale,
            alpha,
            kernel,
        })
    }

    /// Posterior mean and variance at a query point.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::Numerical`] if the variance solve fails.
    pub fn predict(&self, query: &[f64]) -> Result<(f64, f64)> {
        let k_star: Vec<f64> = self
            .points
            .iter()
            .map(|p| matern52(p, query, self.length_scale))
            .collect();
        let mean = self.mean_offset
            + k_star
                .iter()
                .zip(&self.alpha)
                .map(|(k, a)| k * a)
                .sum::<f64>();
        let v = self
            .kernel
            .solve(&k_star)
            .map_err(|e| OptimError::Numerical(format!("variance solve failed: {e}")))?;
        let prior = matern52(query, query, self.length_scale) + NOISE_VARIANCE;
        let variance =
            (prior - k_star.iter().zip(&v).map(|(k, vi)| k * vi).sum::<f64>()).max(1e-12);
        Ok((mean, variance))
    }
}

/// The Bayesian-optimization optimizer. See [`BoConfig`].
#[derive(Debug, Clone)]
pub struct BayesianOptimization {
    config: BoConfig,
}

impl BayesianOptimization {
    /// Creates a Bayesian-optimization optimizer with the given configuration.
    pub fn new(config: BoConfig) -> Self {
        BayesianOptimization { config }
    }

    fn validate(&self, dimension: usize) -> Result<()> {
        if dimension == 0 {
            return Err(OptimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        if self.config.initial_points == 0 {
            return Err(OptimError::InvalidConfig {
                name: "initial_points",
                reason: "must be at least 1".into(),
            });
        }
        if self.config.length_scale <= 0.0 {
            return Err(OptimError::InvalidConfig {
                name: "length_scale",
                reason: "must be positive".into(),
            });
        }
        if self.config.beta < 0.0 {
            return Err(OptimError::InvalidConfig {
                name: "beta",
                reason: "must be non-negative".into(),
            });
        }
        Ok(())
    }
}

impl Optimizer for BayesianOptimization {
    fn minimize(
        &self,
        objective: &dyn Objective,
        rng: &mut dyn RngCore,
    ) -> Result<OptimizationResult> {
        let d = objective.dimension();
        self.validate(d)?;
        let cfg = &self.config;
        let mut tracker = ProgressTracker::new(d);

        // Initial random design, evaluated as one batch.
        let jobs: Vec<(Vec<f64>, u64)> = (0..cfg.initial_points)
            .map(|_| {
                let point: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
                (point, rng.next_u64())
            })
            .collect();
        let mut observations = tracker.evaluate_batch(objective, &jobs);
        let mut design: Vec<Vec<f64>> = jobs.into_iter().map(|(point, _)| point).collect();
        tracker.end_iteration();

        for _ in 0..cfg.iterations {
            let gp = GaussianProcess::fit(design.clone(), observations.clone(), cfg.length_scale)?;

            // Minimize the lower confidence bound over random candidates,
            // including jittered copies of the incumbent for local refinement.
            let mut best_candidate: Option<(f64, Vec<f64>)> = None;
            let incumbent = tracker.best_point().to_vec();
            for c in 0..cfg.acquisition_candidates {
                let candidate: Vec<f64> = if c % 5 == 0 {
                    let mut jittered = incumbent.clone();
                    for x in jittered.iter_mut() {
                        *x += 0.05 * sample_standard_normal(rng);
                    }
                    clamp_unit(&mut jittered);
                    jittered
                } else {
                    (0..d).map(|_| rng.random::<f64>()).collect()
                };
                let (mean, variance) = gp.predict(&candidate)?;
                let lcb = mean - cfg.beta * variance.sqrt();
                if best_candidate
                    .as_ref()
                    .map(|(v, _)| lcb < *v)
                    .unwrap_or(true)
                {
                    best_candidate = Some((lcb, candidate));
                }
            }
            let (_, next_point) = best_candidate.expect("at least one acquisition candidate");

            let value = tracker.evaluate(objective, &next_point, rng.next_u64());
            design.push(next_point);
            observations.push(value);
            tracker.end_iteration();
        }
        Ok(tracker.finish())
    }

    fn name(&self) -> &'static str {
        "bo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matern_kernel_properties() {
        let a = vec![0.2, 0.3];
        let b = vec![0.8, 0.9];
        assert!((matern52(&a, &a, 0.2) - 1.0).abs() < 1e-12);
        assert!(matern52(&a, &b, 0.2) < matern52(&a, &a, 0.2));
        assert!(matern52(&a, &b, 0.2) > 0.0);
        // Longer length scale increases correlation.
        assert!(matern52(&a, &b, 1.0) > matern52(&a, &b, 0.1));
    }

    #[test]
    fn gp_interpolates_training_points() {
        let points = vec![vec![0.1], vec![0.5], vec![0.9]];
        let values = vec![1.0, 0.2, 0.8];
        let gp = GaussianProcess::fit(points.clone(), values.clone(), 0.2).unwrap();
        for (p, v) in points.iter().zip(&values) {
            let (mean, variance) = gp.predict(p).unwrap();
            assert!(
                (mean - v).abs() < 0.05,
                "mean {mean} should be close to {v}"
            );
            assert!(variance < 0.05);
        }
        // Far from the data the variance grows.
        let (_, var_far) = gp.predict(&[0.0]).unwrap();
        let (_, var_near) = gp.predict(&[0.5]).unwrap();
        assert!(var_far > var_near);
    }

    #[test]
    fn gp_rejects_bad_inputs() {
        assert!(GaussianProcess::fit(vec![], vec![], 0.2).is_err());
        assert!(GaussianProcess::fit(vec![vec![0.1]], vec![1.0, 2.0], 0.2).is_err());
    }

    #[test]
    fn bo_minimizes_smooth_function() {
        let obj = FnObjective::new(1, |x: &[f64], _| (x[0] - 0.42) * (x[0] - 0.42));
        let cfg = BoConfig {
            initial_points: 5,
            iterations: 25,
            acquisition_candidates: 200,
            ..BoConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let result = BayesianOptimization::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        assert!(
            (result.best_point[0] - 0.42).abs() < 0.05,
            "point {:?}",
            result.best_point
        );
        assert!(result.best_value < 3e-3);
    }

    #[test]
    fn bo_uses_few_evaluations() {
        let obj = FnObjective::new(2, |x: &[f64], _| x[0] * x[0] + x[1] * x[1]);
        let cfg = BoConfig {
            initial_points: 4,
            iterations: 6,
            acquisition_candidates: 50,
            ..BoConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let result = BayesianOptimization::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        assert_eq!(result.evaluations, 10);
        assert_eq!(result.history.len(), 7);
    }

    #[test]
    fn bo_rejects_invalid_configs() {
        let obj = FnObjective::new(1, |x: &[f64], _| x[0]);
        let mut rng = StdRng::seed_from_u64(0);
        for cfg in [
            BoConfig {
                initial_points: 0,
                ..BoConfig::default()
            },
            BoConfig {
                length_scale: 0.0,
                ..BoConfig::default()
            },
            BoConfig {
                beta: -1.0,
                ..BoConfig::default()
            },
        ] {
            assert!(BayesianOptimization::new(cfg)
                .minimize(&obj, &mut rng)
                .is_err());
        }
    }

    #[test]
    fn name_is_bo() {
        assert_eq!(BayesianOptimization::new(BoConfig::default()).name(), "bo");
    }
}
