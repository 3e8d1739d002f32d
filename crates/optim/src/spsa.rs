//! Simultaneous Perturbation Stochastic Approximation (SPSA).
//!
//! SPSA estimates the gradient of a noisy objective from two evaluations per
//! iteration, independent of the dimension, by perturbing all coordinates
//! simultaneously with a Rademacher vector (Spall, 1998). It is one of the
//! four optimizers evaluated inside Algorithm 1 (Table 2); the paper reports
//! that with its chosen hyperparameters SPSA does not always converge, which
//! this reproduction observes as well for large `Δ_R`.

use crate::error::{OptimError, Result};
use crate::objective::{clamp_unit, Objective};
use crate::optimizer::{OptimizationResult, Optimizer, ProgressTracker};
use rand::{Rng, RngCore};

/// Configuration of the [`Spsa`] optimizer. Field names follow Spall's
/// standard gain-sequence notation, also used in Appendix E of the paper:
/// `a_k = a / (A + k)^alpha` and `c_k = c / k^gamma`, with the paper's
/// `gamma = 0.101` fixed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpsaConfig {
    /// Numerator of the step-size sequence (paper: `a = 1`).
    pub a: f64,
    /// Stability constant added to the iteration index (paper: `A = 100`).
    pub big_a: f64,
    /// Step-size decay exponent (paper: `alpha = 0.602`).
    pub alpha: f64,
    /// Numerator of the perturbation-size sequence (paper: `c = 10`,
    /// normalized to the unit cube as 0.1 here).
    pub c: f64,
    /// Number of iterations (paper: `N = 50`).
    pub iterations: usize,
}

impl Default for SpsaConfig {
    fn default() -> Self {
        SpsaConfig {
            a: 1.0,
            big_a: 100.0,
            alpha: 0.602,
            c: 0.1,
            iterations: 50,
        }
    }
}

/// Perturbation decay exponent `gamma` of the SPSA gain sequence (paper:
/// 0.101).
const GAMMA: f64 = 0.101;

/// The SPSA optimizer. See [`SpsaConfig`].
#[derive(Debug, Clone)]
pub struct Spsa {
    config: SpsaConfig,
}

impl Spsa {
    /// Creates an SPSA optimizer with the given configuration.
    pub fn new(config: SpsaConfig) -> Self {
        Spsa { config }
    }

    fn validate(&self, dimension: usize) -> Result<()> {
        if dimension == 0 {
            return Err(OptimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        if self.config.iterations == 0 {
            return Err(OptimError::InvalidConfig {
                name: "iterations",
                reason: "must be at least 1".into(),
            });
        }
        if self.config.c <= 0.0 || self.config.a <= 0.0 {
            return Err(OptimError::InvalidConfig {
                name: "a/c",
                reason: "gain numerators must be positive".into(),
            });
        }
        if self.config.alpha <= 0.0 {
            return Err(OptimError::InvalidConfig {
                name: "alpha",
                reason: "the step-size decay exponent must be positive".into(),
            });
        }
        Ok(())
    }
}

impl Optimizer for Spsa {
    fn minimize(
        &self,
        objective: &dyn Objective,
        rng: &mut dyn RngCore,
    ) -> Result<OptimizationResult> {
        let d = objective.dimension();
        self.validate(d)?;
        let cfg = &self.config;
        let mut tracker = ProgressTracker::new(d);

        let mut theta = vec![0.5; d];
        for k in 1..=cfg.iterations {
            let ak = cfg.a / (cfg.big_a + k as f64).powf(cfg.alpha);
            let ck = cfg.c / (k as f64).powf(GAMMA);

            // Rademacher perturbation direction.
            let delta: Vec<f64> = (0..d)
                .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
                .collect();

            let mut plus = theta.clone();
            let mut minus = theta.clone();
            for i in 0..d {
                plus[i] += ck * delta[i];
                minus[i] -= ck * delta[i];
            }
            clamp_unit(&mut plus);
            clamp_unit(&mut minus);

            let probes = [(plus, rng.next_u64()), (minus, rng.next_u64())];
            let values = tracker.evaluate_batch(objective, &probes);
            let (y_plus, y_minus) = (values[0], values[1]);

            // Simultaneous-perturbation gradient estimate and update.
            for i in 0..d {
                let gradient = (y_plus - y_minus) / (2.0 * ck * delta[i]);
                theta[i] -= ak * gradient;
            }
            clamp_unit(&mut theta);

            tracker.evaluate(objective, &theta, rng.next_u64());
            tracker.end_iteration();
        }
        Ok(tracker.finish())
    }

    fn name(&self) -> &'static str {
        "spsa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{averaged, FnObjective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spsa_descends_on_smooth_quadratic() {
        let obj = FnObjective::new(3, |x: &[f64], _| {
            x.iter().map(|&v| (v - 0.6) * (v - 0.6)).sum()
        });
        let cfg = SpsaConfig {
            a: 2.0,
            big_a: 10.0,
            iterations: 200,
            ..SpsaConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let result = Spsa::new(cfg).minimize(&obj, &mut rng).unwrap();
        // SPSA converges more slowly than CEM/DE; only require clear progress
        // from the initial value at (0.5, 0.5, 0.5), which is 0.03.
        assert!(result.best_value < 0.02, "best value {}", result.best_value);
    }

    #[test]
    fn spsa_counts_three_probe_batches_per_iteration() {
        // Averaging happens inside the objective: a mean of two calls is one
        // evaluation to the optimizer.
        let obj = FnObjective::new(1, averaged(2, |x: &[f64], _| x[0]));
        let cfg = SpsaConfig {
            iterations: 5,
            ..SpsaConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let result = Spsa::new(cfg).minimize(&obj, &mut rng).unwrap();
        assert_eq!(result.evaluations, 5 * 3);
        assert_eq!(result.history.len(), 5);
    }

    #[test]
    fn spsa_stays_inside_unit_cube() {
        let obj = FnObjective::new(2, |x: &[f64], _| -(x[0] + x[1]));
        let cfg = SpsaConfig {
            a: 50.0,
            iterations: 30,
            ..SpsaConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let result = Spsa::new(cfg).minimize(&obj, &mut rng).unwrap();
        for &x in &result.best_point {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn spsa_rejects_invalid_configs() {
        let obj = FnObjective::new(1, |x: &[f64], _| x[0]);
        let mut rng = StdRng::seed_from_u64(0);
        for cfg in [
            SpsaConfig {
                iterations: 0,
                ..SpsaConfig::default()
            },
            SpsaConfig {
                c: 0.0,
                ..SpsaConfig::default()
            },
            SpsaConfig {
                a: -1.0,
                ..SpsaConfig::default()
            },
            SpsaConfig {
                alpha: 0.0,
                ..SpsaConfig::default()
            },
        ] {
            assert!(Spsa::new(cfg).minimize(&obj, &mut rng).is_err());
        }
        let zero_dim = FnObjective::new(0, |_: &[f64], _: u64| 0.0);
        assert!(Spsa::new(SpsaConfig::default())
            .minimize(&zero_dim, &mut rng)
            .is_err());
    }

    #[test]
    fn name_is_spsa() {
        assert_eq!(Spsa::new(SpsaConfig::default()).name(), "spsa");
    }
}
