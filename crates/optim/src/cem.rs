//! The Cross-Entropy Method (CEM) for black-box minimization.
//!
//! This is the optimizer the paper uses by default inside Algorithm 1
//! (Appendix E: population size 100, elite fraction 0.15, 50 evaluation
//! samples per candidate). Each iteration samples a population from a
//! diagonal Gaussian truncated to `[0, 1]^d`, evaluates it, and refits the
//! Gaussian to the elite fraction.

use crate::error::{OptimError, Result};
use crate::objective::{clamp_unit, Objective};
use crate::optimizer::{OptimizationResult, Optimizer, ProgressTracker};
use rand::{Rng, RngCore};

/// Configuration of the [`CrossEntropyMethod`] optimizer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CemConfig {
    /// Population size per iteration (paper: 100).
    pub population: usize,
    /// Fraction of the population retained as the elite set (paper: 0.15).
    pub elite_fraction: f64,
    /// Number of iterations.
    pub iterations: usize,
}

/// Additive standard-deviation floor that prevents premature collapse.
const NOISE_FLOOR: f64 = 0.01;

/// Smoothing factor applied when updating the mean and standard deviation
/// (1.0 = no smoothing).
const SMOOTHING: f64 = 0.9;

impl Default for CemConfig {
    fn default() -> Self {
        CemConfig {
            population: 100,
            elite_fraction: 0.15,
            iterations: 50,
        }
    }
}

/// The cross-entropy optimizer. See [`CemConfig`] for the tunable parameters.
#[derive(Debug, Clone)]
pub struct CrossEntropyMethod {
    config: CemConfig,
}

impl CrossEntropyMethod {
    /// Creates a CEM optimizer with the given configuration.
    pub fn new(config: CemConfig) -> Self {
        CrossEntropyMethod { config }
    }

    fn validate(&self, dimension: usize) -> Result<()> {
        if dimension == 0 {
            return Err(OptimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        if self.config.population < 2 {
            return Err(OptimError::InvalidConfig {
                name: "population",
                reason: "must be at least 2".into(),
            });
        }
        if !(0.0 < self.config.elite_fraction && self.config.elite_fraction <= 1.0) {
            return Err(OptimError::InvalidConfig {
                name: "elite_fraction",
                reason: format!("must lie in (0, 1], got {}", self.config.elite_fraction),
            });
        }
        if self.config.iterations == 0 {
            return Err(OptimError::InvalidConfig {
                name: "iterations",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Samples a standard normal value using the Box–Muller transform.
pub(crate) fn sample_standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Optimizer for CrossEntropyMethod {
    fn minimize(
        &self,
        objective: &dyn Objective,
        rng: &mut dyn RngCore,
    ) -> Result<OptimizationResult> {
        let d = objective.dimension();
        self.validate(d)?;
        let cfg = &self.config;
        let elite_count =
            ((cfg.population as f64 * cfg.elite_fraction).ceil() as usize).clamp(1, cfg.population);

        let mut mean = vec![0.5; d];
        let mut std_dev = vec![0.3; d];
        let mut tracker = ProgressTracker::new(d);

        for _ in 0..cfg.iterations {
            // Sample the population, each candidate with its evaluation seed,
            // and evaluate it as one batch.
            let jobs: Vec<(Vec<f64>, u64)> = (0..cfg.population)
                .map(|_| {
                    let mut candidate: Vec<f64> = (0..d)
                        .map(|i| mean[i] + std_dev[i] * sample_standard_normal(rng))
                        .collect();
                    clamp_unit(&mut candidate);
                    (candidate, rng.next_u64())
                })
                .collect();
            let values = tracker.evaluate_batch(objective, &jobs);
            let mut scored: Vec<(f64, Vec<f64>)> = values
                .into_iter()
                .zip(jobs)
                .map(|(value, (candidate, _))| (value, candidate))
                .collect();
            // A total order: a NaN value sorts last and is never an elite
            // while a number is left.
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let elites = &scored[..elite_count];

            // Refit the sampling distribution to the elite set.
            for i in 0..d {
                let elite_mean = elites.iter().map(|(_, x)| x[i]).sum::<f64>() / elite_count as f64;
                let elite_var = elites
                    .iter()
                    .map(|(_, x)| (x[i] - elite_mean) * (x[i] - elite_mean))
                    .sum::<f64>()
                    / elite_count as f64;
                mean[i] = SMOOTHING * elite_mean + (1.0 - SMOOTHING) * mean[i];
                std_dev[i] =
                    SMOOTHING * (elite_var.sqrt() + NOISE_FLOOR) + (1.0 - SMOOTHING) * std_dev[i];
            }
            tracker.end_iteration();
        }
        Ok(tracker.finish())
    }

    fn name(&self) -> &'static str {
        "cem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{averaged, FnObjective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic(target: Vec<f64>) -> impl Objective {
        FnObjective::new(target.len(), move |x: &[f64], _| {
            x.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum()
        })
    }

    #[test]
    fn cem_minimizes_deterministic_quadratic() {
        let obj = quadratic(vec![0.3, 0.7]);
        let cfg = CemConfig {
            population: 40,
            iterations: 30,
            ..CemConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let result = CrossEntropyMethod::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        assert!(result.best_value < 1e-3, "best value {}", result.best_value);
        assert!((result.best_point[0] - 0.3).abs() < 0.05);
        assert!((result.best_point[1] - 0.7).abs() < 0.05);
        assert_eq!(result.history.len(), 30);
    }

    #[test]
    fn cem_handles_noisy_objective() {
        let obj = FnObjective::new(
            1,
            averaged(10, |x: &[f64], rng: &mut dyn RngCore| {
                (x[0] - 0.8).powi(2) + 0.05 * (sample_standard_normal(rng))
            }),
        );
        let cfg = CemConfig {
            population: 40,
            iterations: 25,
            ..CemConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let result = CrossEntropyMethod::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        assert!(
            (result.best_point[0] - 0.8).abs() < 0.1,
            "best point {:?}",
            result.best_point
        );
    }

    #[test]
    fn cem_convergence_history_is_monotone() {
        let obj = quadratic(vec![0.5]);
        let cfg = CemConfig {
            population: 20,
            iterations: 10,
            ..CemConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let result = CrossEntropyMethod::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        for w in result.history.windows(2) {
            assert!(w[1].best_value <= w[0].best_value + 1e-12);
            assert!(w[1].evaluations > w[0].evaluations);
        }
    }

    #[test]
    fn cem_rejects_invalid_configs() {
        let obj = quadratic(vec![0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        let bad_pop = CemConfig {
            population: 1,
            ..CemConfig::default()
        };
        assert!(CrossEntropyMethod::new(bad_pop)
            .minimize(&obj, &mut rng)
            .is_err());
        let bad_elite = CemConfig {
            elite_fraction: 0.0,
            ..CemConfig::default()
        };
        assert!(CrossEntropyMethod::new(bad_elite)
            .minimize(&obj, &mut rng)
            .is_err());
        let bad_iter = CemConfig {
            iterations: 0,
            ..CemConfig::default()
        };
        assert!(CrossEntropyMethod::new(bad_iter)
            .minimize(&obj, &mut rng)
            .is_err());
        let zero_dim = FnObjective::new(0, |_: &[f64], _: u64| 0.0);
        assert!(CrossEntropyMethod::new(CemConfig::default())
            .minimize(&zero_dim, &mut rng)
            .is_err());
    }

    #[test]
    fn cem_survives_a_nan_objective() {
        // NaN above 0.9: a comparator that calls NaN equal to everything is
        // no total order, and a sort that used one panicked here.
        let obj = FnObjective::new(1, |x: &[f64], _| {
            if x[0] > 0.9 {
                f64::NAN
            } else {
                (x[0] - 0.3) * (x[0] - 0.3)
            }
        });
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let result = CrossEntropyMethod::new(CemConfig::default())
                .minimize(&obj, &mut rng)
                .unwrap();
            assert!(result.best_value.is_finite(), "seed {seed}");
            assert!(result.best_point[0] <= 0.9, "seed {seed}");
            assert!(
                (result.best_point[0] - 0.3).abs() < 0.05,
                "seed {seed}: {:?}",
                result.best_point
            );
        }
    }

    #[test]
    fn name_is_cem() {
        assert_eq!(CrossEntropyMethod::new(CemConfig::default()).name(), "cem");
    }
}
