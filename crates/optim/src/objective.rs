//! Objective-function abstraction for black-box minimization.
//!
//! All optimizers in this crate minimize a (possibly stochastic) objective
//! over the unit hypercube `[0, 1]^d`. Algorithm 1 of the paper evaluates a
//! threshold vector `θ ∈ [0, 1]^d` by simulating the recovery POMDP for a
//! number of episodes, so objective evaluations are noisy; the optimizers are
//! therefore designed for stochastic objectives.
//!
//! An evaluation is a pure function of its point and a seed the optimizer
//! draws from its own stream. That makes the evaluations an optimizer
//! requests at one time independent of each other, so it hands them over as
//! one [`Objective::evaluate_batch`], which an objective may run
//! concurrently without changing any result.

/// A (possibly stochastic) objective function over `[0, 1]^d` to be
/// minimized.
pub trait Objective {
    /// Dimension `d` of the search space.
    fn dimension(&self) -> usize;

    /// Evaluates the objective at `point` (a slice of length
    /// [`Objective::dimension`]). A stochastic objective draws its random
    /// episode realizations from a generator seeded with `seed`, so the
    /// value depends on nothing but `point` and `seed`.
    ///
    /// The optimizers call this once per candidate. An objective that wants
    /// the mean of several noisy samples (the `M = 50` episodes per candidate
    /// of Appendix E) averages them itself.
    fn evaluate(&self, point: &[f64], seed: u64) -> f64;

    /// Evaluates every `(point, seed)` job and returns the values in job
    /// order. The default evaluates them one after the other; an objective
    /// may override it to evaluate them concurrently, which changes no value.
    fn evaluate_batch(&self, jobs: &[(Vec<f64>, u64)]) -> Vec<f64> {
        jobs.iter()
            .map(|(point, seed)| self.evaluate(point, *seed))
            .collect()
    }
}

/// An [`Objective`] wrapping a closure: the fixture the optimizers' unit
/// tests minimize.
#[cfg(test)]
pub(crate) struct FnObjective<F>
where
    F: Fn(&[f64], u64) -> f64,
{
    dimension: usize,
    function: F,
}

#[cfg(test)]
impl<F> FnObjective<F>
where
    F: Fn(&[f64], u64) -> f64,
{
    /// Wraps a closure as an objective of the given dimension.
    pub fn new(dimension: usize, function: F) -> Self {
        FnObjective {
            dimension,
            function,
        }
    }
}

#[cfg(test)]
impl<F> Objective for FnObjective<F>
where
    F: Fn(&[f64], u64) -> f64,
{
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn evaluate(&self, point: &[f64], seed: u64) -> f64 {
        (self.function)(point, seed)
    }
}

/// Wraps a noisy test function so that one evaluation is the mean of
/// `repetitions` calls on one generator seeded with the evaluation's seed.
#[cfg(test)]
pub(crate) fn averaged<F>(repetitions: usize, function: F) -> impl Fn(&[f64], u64) -> f64
where
    F: Fn(&[f64], &mut dyn rand::RngCore) -> f64,
{
    use rand::SeedableRng;
    move |point, seed| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..repetitions)
            .map(|_| function(point, &mut rng))
            .sum::<f64>()
            / repetitions as f64
    }
}

/// Clamps every coordinate of `point` into `[0, 1]`, in place.
pub(crate) fn clamp_unit(point: &mut [f64]) {
    for x in point.iter_mut() {
        *x = x.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn fn_objective_evaluates_closure() {
        let obj = FnObjective::new(2, |x: &[f64], _| x[0] + x[1]);
        assert_eq!(obj.dimension(), 2);
        assert_eq!(obj.evaluate(&[0.25, 0.5], 0), 0.75);
    }

    #[test]
    fn evaluate_mean_averages_noise() {
        use rand::Rng;
        let obj = FnObjective::new(
            1,
            averaged(2000, |x: &[f64], rng: &mut dyn RngCore| {
                x[0] + rng.random_range(-0.5..0.5)
            }),
        );
        let mean = obj.evaluate(&[0.5], 3);
        assert!(
            (mean - 0.5).abs() < 0.05,
            "noisy mean {mean} too far from 0.5"
        );
        assert_eq!(mean.to_bits(), obj.evaluate(&[0.5], 3).to_bits());
    }

    #[test]
    fn the_default_batch_is_the_serial_map_in_job_order() {
        let obj = FnObjective::new(1, |x: &[f64], seed| x[0] + seed as f64);
        let jobs = vec![(vec![0.5], 3), (vec![0.25], 1), (vec![0.0], 2)];
        assert_eq!(obj.evaluate_batch(&jobs), vec![3.5, 1.25, 2.0]);
        assert!(obj.evaluate_batch(&[]).is_empty());
    }

    #[test]
    fn clamp_unit_clamps() {
        let mut p = vec![-0.5, 0.3, 1.7];
        clamp_unit(&mut p);
        assert_eq!(p, vec![0.0, 0.3, 1.0]);
    }
}
