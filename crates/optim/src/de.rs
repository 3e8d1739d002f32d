//! Differential Evolution (DE/rand/1/bin) for black-box minimization.
//!
//! One of the four optimizers evaluated inside Algorithm 1 (Table 2).
//! Appendix E of the paper uses a population of 10, mutation step 0.2 and
//! recombination rate 0.7.
//!
//! Selection is in place: trial `i` replaces row `i` before trial `i + 1` is
//! built. The search is nevertheless the serial one while trials are
//! evaluated in batches, because every draw of a generation is independent
//! of fitness and a trial vector depends on earlier selections only through
//! its parent rows; a batch ends where a trial would read a row an earlier
//! trial of the batch may replace.

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

/// The fitness-independent draws of one trial vector of a generation.
struct TrialDraws {
    /// The three distinct rows `a`, `b`, `c` of DE/rand/1, none the target.
    parents: [usize; 3],
    /// Coordinates taken from the mutant: the forced index and every
    /// coordinate whose crossover draw fell below `CR`.
    crossover: Vec<bool>,
    /// The evaluation seed.
    seed: u64,
}

impl DifferentialEvolution {
    /// Draws every trial of one generation in the order a serial DE/rand/1/bin
    /// draws them: parents, forced index, crossover mask, evaluation seed. No
    /// draw depends on a fitness value, so drawing them up front leaves the
    /// stream unchanged.
    fn draw_generation(&self, d: usize, rng: &mut dyn RngCore) -> Vec<TrialDraws> {
        let cfg = &self.config;
        (0..cfg.population)
            .map(|i| {
                let mut parents = [0usize; 3];
                let mut chosen = 0;
                while chosen < 3 {
                    let candidate = rng.random_range(0..cfg.population);
                    if candidate != i && !parents[..chosen].contains(&candidate) {
                        parents[chosen] = candidate;
                        chosen += 1;
                    }
                }
                let forced = rng.random_range(0..d);
                let crossover = (0..d)
                    .map(|j| j == forced || rng.random::<f64>() < cfg.recombination_rate)
                    .collect();
                TrialDraws {
                    parents,
                    crossover,
                    seed: rng.next_u64(),
                }
            })
            .collect()
    }
}

/// The end of the batch of trials that starts at `start`: the first later
/// trial that reads a row an earlier trial of the batch may replace. Trial
/// `i` replaces only row `i`, so every trial of `start..end` reads the rows
/// a serial generation would show it.
fn batch_end(trials: &[TrialDraws], start: usize) -> usize {
    (start + 1..trials.len())
        .find(|&t| {
            trials[t]
                .parents
                .iter()
                .any(|&row| (start..t).contains(&row))
        })
        .unwrap_or(trials.len())
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
        let population: Vec<Vec<f64>> = (0..cfg.population)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect();
        let jobs: Vec<(Vec<f64>, u64)> = population
            .into_iter()
            .map(|x| (x, rng.next_u64()))
            .collect();
        let mut fitness = tracker.evaluate_batch(objective, &jobs);
        let mut population: Vec<Vec<f64>> = jobs.into_iter().map(|(x, _)| x).collect();
        tracker.end_iteration();

        for _ in 0..cfg.generations {
            let trials = self.draw_generation(d, rng);
            let mut start = 0;
            while start < trials.len() {
                let end = batch_end(&trials, start);
                // Mutation and binomial crossover for every trial of the batch.
                let jobs: Vec<(Vec<f64>, u64)> = (start..end)
                    .map(|i| {
                        let [a, b, c] = trials[i].parents;
                        let mut trial = population[i].clone();
                        for (j, &take) in trials[i].crossover.iter().enumerate() {
                            if take {
                                trial[j] = population[a][j]
                                    + cfg.mutation_factor * (population[b][j] - population[c][j]);
                            }
                        }
                        clamp_unit(&mut trial);
                        (trial, trials[i].seed)
                    })
                    .collect();
                let values = tracker.evaluate_batch(objective, &jobs);
                for (i, ((trial, _), value)) in (start..end).zip(jobs.into_iter().zip(values)) {
                    if value <= fitness[i] {
                        population[i] = trial;
                        fitness[i] = value;
                    }
                }
                start = end;
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
    use std::cell::RefCell;

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

    /// A sphere around 0.5 that records the seeds of every batch it is
    /// handed.
    struct Recording {
        dimension: usize,
        batches: RefCell<Vec<Vec<u64>>>,
    }

    impl Objective for Recording {
        fn dimension(&self) -> usize {
            self.dimension
        }

        fn evaluate(&self, point: &[f64], _: u64) -> f64 {
            point.iter().map(|x| (x - 0.5) * (x - 0.5)).sum()
        }

        fn evaluate_batch(&self, jobs: &[(Vec<f64>, u64)]) -> Vec<f64> {
            self.batches
                .borrow_mut()
                .push(jobs.iter().map(|job| job.1).collect());
            jobs.iter()
                .map(|(point, seed)| self.evaluate(point, *seed))
                .collect()
        }
    }

    #[test]
    fn no_batch_holds_a_trial_that_reads_a_row_replaced_within_it() {
        // Algorithm 1's DE: 40 individuals, 30 generations.
        let (population, generations, d, seed) = (40, 30, 2, 5);
        let de = DifferentialEvolution::new(DeConfig {
            population,
            generations,
            ..DeConfig::default()
        });
        let objective = Recording {
            dimension: d,
            batches: RefCell::new(Vec::new()),
        };
        de.minimize(&objective, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let batches = objective.batches.into_inner();

        // Replay the stream: the initial population, its seeds, then each
        // generation's draws, which decide which rows a trial reads.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..population * d {
            rng.random::<f64>();
        }
        let initial: Vec<u64> = (0..population).map(|_| rng.next_u64()).collect();
        assert_eq!(batches[0], initial);
        let mut recorded = batches[1..].iter();
        let mut sizes = Vec::new();
        for generation in 0..generations {
            let trials = de.draw_generation(d, &mut rng);
            let mut start = 0;
            while start < population {
                let batch = recorded.next().expect("every trial is evaluated");
                let end = start + batch.len();
                assert!(end <= population, "a batch crosses a generation");
                for (t, job_seed) in (start..end).zip(batch) {
                    // The replayed draws are the ones the run made.
                    assert_eq!(*job_seed, trials[t].seed);
                    for &row in &trials[t].parents {
                        assert!(
                            !(start..t).contains(&row),
                            "generation {generation}: trial {t} reads row {row}, \
                             which trial {row} of its batch {start}..{end} may replace"
                        );
                    }
                }
                sizes.push(batch.len());
                start = end;
            }
        }
        assert!(recorded.next().is_none());
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > 1.0, "mean batch size {mean}");
    }

    #[test]
    fn name_is_de() {
        assert_eq!(DifferentialEvolution::new(DeConfig::default()).name(), "de");
    }
}
