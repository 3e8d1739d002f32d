//! Objective-function abstraction for black-box minimization.
//!
//! All optimizers in this crate minimize a (possibly stochastic) objective
//! over the unit hypercube `[0, 1]^d`. Algorithm 1 of the paper evaluates a
//! threshold vector `θ ∈ [0, 1]^d` by simulating the recovery POMDP for a
//! number of episodes, so objective evaluations are noisy; the optimizers are
//! therefore designed for stochastic objectives and accept an RNG on every
//! evaluation.

use rand::RngCore;

/// A (possibly stochastic) objective function over `[0, 1]^d` to be
/// minimized.
pub trait Objective {
    /// Dimension `d` of the search space.
    fn dimension(&self) -> usize;

    /// Evaluates the objective at `point` (a slice of length
    /// [`Objective::dimension`]). Implementations may use `rng` to draw the
    /// random episode realizations that make the evaluation stochastic.
    ///
    /// The optimizers call this once per candidate. An objective that wants
    /// the mean of several noisy samples (the `M = 50` episodes per candidate
    /// of Appendix E) averages them itself.
    fn evaluate(&self, point: &[f64], rng: &mut dyn RngCore) -> f64;
}

/// An [`Objective`] wrapping a closure: the fixture the optimizers' unit
/// tests minimize.
#[cfg(test)]
pub(crate) struct FnObjective<F>
where
    F: Fn(&[f64], &mut dyn RngCore) -> f64,
{
    dimension: usize,
    function: F,
}

#[cfg(test)]
impl<F> FnObjective<F>
where
    F: Fn(&[f64], &mut dyn RngCore) -> f64,
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
    F: Fn(&[f64], &mut dyn RngCore) -> f64,
{
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn evaluate(&self, point: &[f64], rng: &mut dyn RngCore) -> f64 {
        (self.function)(point, rng)
    }
}

/// Wraps a noisy test function so that one evaluation is the mean of
/// `repetitions` calls.
#[cfg(test)]
pub(crate) fn averaged<F>(
    repetitions: usize,
    function: F,
) -> impl Fn(&[f64], &mut dyn RngCore) -> f64
where
    F: Fn(&[f64], &mut dyn RngCore) -> f64,
{
    move |point, rng| {
        (0..repetitions).map(|_| function(point, rng)).sum::<f64>() / repetitions as f64
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fn_objective_evaluates_closure() {
        let obj = FnObjective::new(2, |x: &[f64], _| x[0] + x[1]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(obj.dimension(), 2);
        assert_eq!(obj.evaluate(&[0.25, 0.5], &mut rng), 0.75);
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
        let mut rng = StdRng::seed_from_u64(3);
        let mean = obj.evaluate(&[0.5], &mut rng);
        assert!(
            (mean - 0.5).abs() < 0.05,
            "noisy mean {mean} too far from 0.5"
        );
    }

    #[test]
    fn clamp_unit_clamps() {
        let mut p = vec![-0.5, 0.3, 1.7];
        clamp_unit(&mut p);
        assert_eq!(p, vec![0.0, 0.3, 1.0]);
    }
}
