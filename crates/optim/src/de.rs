//! Differential Evolution (DE/rand/1/bin) for black-box minimization.
//!
//! One of the four optimizers evaluated inside Algorithm 1 (Table 2).
//! Appendix E of the paper uses a population of 10, mutation step 0.2 and
//! recombination rate 0.7.

use crate::error::{OptimError, Result};
use crate::objective::{clamp_unit, Objective};
use crate::optimizer::{OptimizationResult, Optimizer, ProgressTracker};
use rand::{Rng, RngCore};

/// Configuration of the [`DifferentialEvolution`] optimizer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeConfig {
    /// Population size (paper: 10).
    pub population: usize,
    /// Differential weight `F` applied to the difference vector (paper: 0.2).
    pub mutation_factor: f64,
    /// Crossover probability `CR` (paper: 0.7).
    pub recombination_rate: f64,
    /// Number of generations.
    pub generations: usize,
}

impl Default for DeConfig {
    fn default() -> Self {
        DeConfig {
            population: 10,
            mutation_factor: 0.2,
            recombination_rate: 0.7,
            generations: 50,
        }
    }
}

/// The DE/rand/1/bin differential-evolution optimizer.
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    config: DeConfig,
}

impl DifferentialEvolution {
    /// Creates a DE optimizer with the given configuration.
    pub fn new(config: DeConfig) -> Self {
        DifferentialEvolution { config }
    }

    fn validate(&self, dimension: usize) -> Result<()> {
        if dimension == 0 {
            return Err(OptimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        if self.config.population < 4 {
            return Err(OptimError::InvalidConfig {
                name: "population",
                reason: "DE/rand/1 needs at least 4 individuals".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.config.recombination_rate) {
            return Err(OptimError::InvalidConfig {
                name: "recombination_rate",
                reason: format!("must lie in [0, 1], got {}", self.config.recombination_rate),
            });
        }
        if self.config.mutation_factor <= 0.0 {
            return Err(OptimError::InvalidConfig {
                name: "mutation_factor",
                reason: "must be positive".into(),
            });
        }
        if self.config.generations == 0 {
            return Err(OptimError::InvalidConfig {
                name: "generations",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl Optimizer for DifferentialEvolution {
    fn minimize(
        &self,
        objective: &dyn Objective,
        rng: &mut dyn RngCore,
    ) -> Result<OptimizationResult> {
        let d = objective.dimension();
        self.validate(d)?;
        let cfg = &self.config;
        let mut tracker = ProgressTracker::new(d);

        // Initialize the population uniformly in the unit hypercube.
        let mut population: Vec<Vec<f64>> = (0..cfg.population)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect();
        let mut fitness: Vec<f64> = population
            .iter()
            .map(|x| {
                let v = objective.evaluate(x, rng);
                tracker.add_evaluations(1);
                tracker.offer(x, v);
                v
            })
            .collect();
        tracker.end_iteration();

        for _ in 0..cfg.generations {
            for i in 0..cfg.population {
                // Pick three distinct individuals different from i.
                let mut indices = [0usize; 3];
                let mut chosen = 0;
                while chosen < 3 {
                    let candidate = rng.random_range(0..cfg.population);
                    if candidate != i && !indices[..chosen].contains(&candidate) {
                        indices[chosen] = candidate;
                        chosen += 1;
                    }
                }
                let (a, b, c) = (indices[0], indices[1], indices[2]);

                // Mutation and binomial crossover.
                let forced = rng.random_range(0..d);
                let mut trial = population[i].clone();
                for j in 0..d {
                    if j == forced || rng.random::<f64>() < cfg.recombination_rate {
                        trial[j] = population[a][j]
                            + cfg.mutation_factor * (population[b][j] - population[c][j]);
                    }
                }
                clamp_unit(&mut trial);

                let trial_value = objective.evaluate(&trial, rng);
                tracker.add_evaluations(1);
                tracker.offer(&trial, trial_value);
                if trial_value <= fitness[i] {
                    population[i] = trial;
                    fitness[i] = trial_value;
                }
            }
            tracker.end_iteration();
        }
        Ok(tracker.finish())
    }

    fn name(&self) -> &'static str {
        "de"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{averaged, FnObjective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sphere(target: Vec<f64>) -> impl Objective {
        FnObjective::new(target.len(), move |x: &[f64], _| {
            x.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum()
        })
    }

    #[test]
    fn de_minimizes_sphere() {
        let obj = sphere(vec![0.25, 0.75, 0.5]);
        let cfg = DeConfig {
            population: 15,
            generations: 60,
            ..DeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let result = DifferentialEvolution::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        assert!(result.best_value < 1e-2, "best value {}", result.best_value);
        assert!((result.best_point[0] - 0.25).abs() < 0.1);
    }

    #[test]
    fn de_handles_multimodal_objective() {
        // Rastrigin-like objective restricted to [0, 1]; global optimum at 0.5.
        let obj = FnObjective::new(2, |x: &[f64], _| {
            x.iter()
                .map(|&xi| {
                    let z = (xi - 0.5) * 8.0;
                    z * z - 5.0 * (2.0 * std::f64::consts::PI * z).cos() + 5.0
                })
                .sum()
        });
        let cfg = DeConfig {
            population: 25,
            generations: 80,
            mutation_factor: 0.5,
            ..DeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(17);
        let result = DifferentialEvolution::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        assert!(
            (result.best_point[0] - 0.5).abs() < 0.1,
            "point {:?}",
            result.best_point
        );
        assert!((result.best_point[1] - 0.5).abs() < 0.1);
    }

    #[test]
    fn de_history_counts_evaluations() {
        // Averaging happens inside the objective: a mean of two calls is one
        // evaluation to the optimizer.
        let obj = FnObjective::new(1, averaged(2, |x: &[f64], _| (x[0] - 0.5) * (x[0] - 0.5)));
        let cfg = DeConfig {
            population: 5,
            generations: 3,
            ..DeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let result = DifferentialEvolution::new(cfg)
            .minimize(&obj, &mut rng)
            .unwrap();
        // 5 initial + 5 per generation.
        assert_eq!(result.evaluations, 5 + 5 * 3);
        assert_eq!(result.history.len(), 4);
    }

    #[test]
    fn de_rejects_invalid_configs() {
        let obj = sphere(vec![0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        for cfg in [
            DeConfig {
                population: 3,
                ..DeConfig::default()
            },
            DeConfig {
                recombination_rate: 1.5,
                ..DeConfig::default()
            },
            DeConfig {
                mutation_factor: 0.0,
                ..DeConfig::default()
            },
            DeConfig {
                generations: 0,
                ..DeConfig::default()
            },
        ] {
            assert!(DifferentialEvolution::new(cfg)
                .minimize(&obj, &mut rng)
                .is_err());
        }
    }

    #[test]
    fn name_is_de() {
        assert_eq!(DifferentialEvolution::new(DeConfig::default()).name(), "de");
    }
}
