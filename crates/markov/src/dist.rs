//! Probability distributions used by the TOLERANCE models.
//!
//! The paper's numeric experiments (Appendix E) model IDS-alert observations
//! with Beta-binomial distributions (or categorical ones estimated from
//! traces), Poisson-distributed alert counts, binomial node survival in the
//! replication CMDP, and sums of independent Bernoulli indicators
//! (Poisson-binomial). All of these are implemented here without external
//! dependencies.

use crate::error::{MarkovError, Result};
use crate::special::{ln_beta, ln_binomial, ln_factorial};
use rand::Rng;

/// Common interface of the discrete distributions in this crate.
///
/// Supports are finite or countable subsets of the non-negative integers;
/// [`DiscreteDistribution::pmf`] returns zero outside the support.
pub trait DiscreteDistribution {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;

    /// Cumulative distribution function `P[X <= k]`.
    fn cdf(&self, k: u64) -> f64 {
        (0..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
    }

    /// Expected value.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;

    /// Draws `n` samples.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Samples from a probability mass function given as a slice via inverse
/// transform sampling. The slice does not need to be normalized.
fn sample_from_weights<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> u64 {
    let total: f64 = weights.iter().sum();
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i as u64;
        }
    }
    (weights.len() - 1) as u64
}

// ---------------------------------------------------------------------------
// Beta-binomial
// ---------------------------------------------------------------------------

/// The Beta-binomial distribution `BetaBin(n, α, β)`.
///
/// This is the observation model used throughout the paper's numerical
/// experiments: `Z_i(· | H) = BetaBin(10, 0.7, 3)` (few alerts while healthy)
/// and `Z_i(· | C) = BetaBin(10, 1, 0.7)` (many alerts while compromised).
///
/// # Example
///
/// ```
/// use tolerance_markov::dist::{BetaBinomial, DiscreteDistribution};
///
/// let healthy = BetaBinomial::new(10, 0.7, 3.0).unwrap();
/// let compromised = BetaBinomial::new(10, 1.0, 0.7).unwrap();
/// assert!(healthy.mean() < compromised.mean());
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BetaBinomial {
    n: u64,
    alpha: f64,
    beta: f64,
}

impl BetaBinomial {
    /// Creates a Beta-binomial distribution with `n` trials and shape
    /// parameters `alpha, beta > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] if `alpha` or `beta` is not
    /// strictly positive and finite.
    pub fn new(n: u64, alpha: f64, beta: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(MarkovError::InvalidParameter {
                name: "alpha",
                reason: format!("must be positive and finite, got {alpha}"),
            });
        }
        if !(beta > 0.0 && beta.is_finite()) {
            return Err(MarkovError::InvalidParameter {
                name: "beta",
                reason: format!("must be positive and finite, got {beta}"),
            });
        }
        Ok(BetaBinomial { n, alpha, beta })
    }

    /// The `alpha` shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The full probability mass function over `0..=n` as a vector.
    pub fn pmf_vector(&self) -> Vec<f64> {
        (0..=self.n).map(|k| self.pmf(k)).collect()
    }
}

impl DiscreteDistribution for BetaBinomial {
    fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        let (n, a, b) = (self.n, self.alpha, self.beta);
        let log_p = ln_binomial(n, k) + ln_beta(k as f64 + a, (n - k) as f64 + b) - ln_beta(a, b);
        log_p.exp()
    }

    fn mean(&self) -> f64 {
        self.n as f64 * self.alpha / (self.alpha + self.beta)
    }

    fn variance(&self) -> f64 {
        let (n, a, b) = (self.n as f64, self.alpha, self.beta);
        n * a * b * (a + b + n) / ((a + b) * (a + b) * (a + b + 1.0))
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_from_weights(&self.pmf_vector(), rng)
    }
}

// ---------------------------------------------------------------------------
// Binomial
// ---------------------------------------------------------------------------

/// The binomial distribution `Bin(n, p)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution with `n` trials and success
    /// probability `p ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] if `p` is outside `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(MarkovError::InvalidParameter {
                name: "p",
                reason: format!("must lie in [0, 1], got {p}"),
            });
        }
        Ok(Binomial { n, p })
    }
}

impl DiscreteDistribution for Binomial {
    fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        (ln_binomial(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln())
        .exp()
    }

    fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        (0..self.n).filter(|_| rng.random::<f64>() < self.p).count() as u64
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// The Poisson distribution with rate `λ`, used for background-client
/// arrivals in the emulation (λ = 20 in the paper).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with rate `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] if `lambda` is not strictly
    /// positive and finite.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(MarkovError::InvalidParameter {
                name: "lambda",
                reason: format!("must be positive and finite, got {lambda}"),
            });
        }
        Ok(Poisson { lambda })
    }
}

impl DiscreteDistribution for Poisson {
    fn pmf(&self, k: u64) -> f64 {
        (k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)).exp()
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Knuth's algorithm for small lambda; split for large lambda to avoid
        // underflow of exp(-lambda).
        if self.lambda < 30.0 {
            let limit = (-self.lambda).exp();
            let mut product = rng.random::<f64>();
            let mut count = 0u64;
            while product > limit {
                product *= rng.random::<f64>();
                count += 1;
            }
            count
        } else {
            // Split: Poisson(a + b) = Poisson(a) + Poisson(b).
            let half = Poisson {
                lambda: self.lambda / 2.0,
            };
            half.sample(rng) + half.sample(rng)
        }
    }
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

/// A categorical distribution over `{0, 1, ..., k-1}` with explicit
/// probabilities. This is the representation used for empirical alert
/// distributions `Ẑ_i` estimated from traces (Fig. 11).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Categorical {
    probabilities: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from (unnormalized, non-negative)
    /// weights.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::EmptyInput`] for an empty weight vector and
    /// [`MarkovError::NotStochastic`] if the weights are negative or sum to
    /// zero.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(MarkovError::EmptyInput("categorical weights"));
        }
        let probabilities = crate::linalg::normalize(&weights)?;
        Ok(Categorical { probabilities })
    }

    /// Builds the empirical distribution of a sample of counts over
    /// `{0, ..., max}` (Laplace-smoothed with `smoothing` pseudo-counts so the
    /// TP-2 / positivity assumptions of Theorem 1 hold).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::EmptyInput`] if `samples` is empty and
    /// [`MarkovError::InvalidParameter`] if `smoothing` is negative.
    pub fn from_samples(samples: &[u64], support_size: usize, smoothing: f64) -> Result<Self> {
        if samples.is_empty() {
            return Err(MarkovError::EmptyInput("samples"));
        }
        if smoothing < 0.0 {
            return Err(MarkovError::InvalidParameter {
                name: "smoothing",
                reason: format!("must be non-negative, got {smoothing}"),
            });
        }
        let mut counts = vec![smoothing; support_size];
        for &s in samples {
            let idx = (s as usize).min(support_size - 1);
            counts[idx] += 1.0;
        }
        Categorical::new(counts)
    }

    /// The normalized probability vector.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Size of the support.
    pub fn support_size(&self) -> usize {
        self.probabilities.len()
    }
}

impl DiscreteDistribution for Categorical {
    fn pmf(&self, k: u64) -> f64 {
        self.probabilities.get(k as usize).copied().unwrap_or(0.0)
    }

    fn mean(&self) -> f64 {
        self.probabilities
            .iter()
            .enumerate()
            .map(|(i, p)| i as f64 * p)
            .sum()
    }

    fn variance(&self) -> f64 {
        let mean = self.mean();
        self.probabilities
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64 - mean).powi(2) * p)
            .sum()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_from_weights(&self.probabilities, rng)
    }
}

// ---------------------------------------------------------------------------
// Poisson-binomial
// ---------------------------------------------------------------------------

/// The Poisson-binomial distribution: the sum of independent Bernoulli
/// variables with (possibly different) success probabilities.
///
/// The replication CMDP's transition function (Eq. 8) is the distribution of
/// `⌊Σ_i (1 - B_i)⌋ + a`, i.e. a Poisson-binomial over the per-node "healthy"
/// indicators with success probabilities `1 - b_i`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PoissonBinomial {
    probabilities: Vec<f64>,
    pmf: Vec<f64>,
}

impl PoissonBinomial {
    /// Creates the distribution of the number of successes among independent
    /// Bernoulli trials with the given probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] if any probability lies
    /// outside `[0, 1]`.
    pub fn new(probabilities: Vec<f64>) -> Result<Self> {
        for (i, &p) in probabilities.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) {
                return Err(MarkovError::InvalidParameter {
                    name: "probabilities",
                    reason: format!("entry {i} must lie in [0, 1], got {p}"),
                });
            }
        }
        // Dynamic-programming convolution: O(n^2).
        let mut pmf = vec![1.0];
        for &p in &probabilities {
            let mut next = vec![0.0; pmf.len() + 1];
            for (k, &mass) in pmf.iter().enumerate() {
                next[k] += mass * (1.0 - p);
                next[k + 1] += mass * p;
            }
            pmf = next;
        }
        Ok(PoissonBinomial { probabilities, pmf })
    }

    /// The per-trial success probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The full probability mass function over `0..=n`.
    pub fn pmf_vector(&self) -> &[f64] {
        &self.pmf
    }
}

impl DiscreteDistribution for PoissonBinomial {
    fn pmf(&self, k: u64) -> f64 {
        self.pmf.get(k as usize).copied().unwrap_or(0.0)
    }

    fn mean(&self) -> f64 {
        self.probabilities.iter().sum()
    }

    fn variance(&self) -> f64 {
        self.probabilities.iter().map(|p| p * (1.0 - p)).sum()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.probabilities
            .iter()
            .filter(|&&p| rng.random::<f64>() < p)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn beta_binomial_pmf_sums_to_one() {
        let d = BetaBinomial::new(10, 0.7, 3.0).unwrap();
        let total: f64 = d.pmf_vector().iter().sum();
        assert_close(total, 1.0, 1e-10);
        assert_eq!(d.pmf(11), 0.0);
        assert_close(d.mean(), 10.0 * 0.7 / 3.7, 1e-10);
    }

    #[test]
    fn beta_binomial_paper_models_are_stochastically_ordered() {
        // Healthy model concentrates on few alerts, compromised on many.
        let healthy = BetaBinomial::new(10, 0.7, 3.0).unwrap();
        let compromised = BetaBinomial::new(10, 1.0, 0.7).unwrap();
        assert!(healthy.mean() < compromised.mean());
        // First-order stochastic dominance of the compromised model.
        for k in 0..10 {
            assert!(compromised.cdf(k) <= healthy.cdf(k) + 1e-12);
        }
    }

    #[test]
    fn beta_binomial_rejects_bad_parameters() {
        assert!(BetaBinomial::new(10, 0.0, 1.0).is_err());
        assert!(BetaBinomial::new(10, 1.0, -1.0).is_err());
        assert!(BetaBinomial::new(10, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn binomial_matches_known_values() {
        let d = Binomial::new(4, 0.5).unwrap();
        assert_close(d.pmf(2), 0.375, 1e-12);
        assert_close(d.mean(), 2.0, 1e-12);
        assert_close(d.variance(), 1.0, 1e-12);
        assert_close(d.cdf(4), 1.0, 1e-12);
        let degenerate = Binomial::new(3, 0.0).unwrap();
        assert_eq!(degenerate.pmf(0), 1.0);
        let sure = Binomial::new(3, 1.0).unwrap();
        assert_eq!(sure.pmf(3), 1.0);
        assert!(Binomial::new(3, 1.5).is_err());
    }

    #[test]
    fn poisson_pmf_and_sampling_mean() {
        let d = Poisson::new(20.0).unwrap();
        let total: f64 = (0..200).map(|k| d.pmf(k)).sum();
        assert_close(total, 1.0, 1e-9);
        let mut r = rng();
        let samples = d.sample_n(&mut r, 4000);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!(
            (mean - 20.0).abs() < 0.5,
            "sample mean {mean} too far from 20"
        );
        assert!(Poisson::new(0.0).is_err());
    }

    #[test]
    fn poisson_large_lambda_sampling() {
        let d = Poisson::new(200.0).unwrap();
        let mut r = rng();
        let samples = d.sample_n(&mut r, 500);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 200.0).abs() < 5.0);
    }

    #[test]
    fn categorical_from_weights_and_samples() {
        let d = Categorical::new(vec![1.0, 1.0, 2.0]).unwrap();
        assert_close(d.pmf(2), 0.5, 1e-12);
        assert_close(d.mean(), 0.25 + 1.0, 1e-12);
        assert_eq!(d.pmf(3), 0.0);
        assert!(Categorical::new(vec![]).is_err());
        assert!(Categorical::new(vec![-1.0, 2.0]).is_err());

        let samples = vec![0, 0, 1, 2, 2, 2];
        let emp = Categorical::from_samples(&samples, 4, 0.0).unwrap();
        assert_close(emp.pmf(2), 0.5, 1e-12);
        assert_close(emp.pmf(3), 0.0, 1e-12);
        let smoothed = Categorical::from_samples(&samples, 4, 1.0).unwrap();
        assert!(smoothed.pmf(3) > 0.0);
        assert!(Categorical::from_samples(&[], 4, 0.0).is_err());
        assert!(Categorical::from_samples(&samples, 4, -1.0).is_err());
    }

    #[test]
    fn categorical_clamps_out_of_range_samples() {
        let emp = Categorical::from_samples(&[100], 4, 0.0).unwrap();
        assert_close(emp.pmf(3), 1.0, 1e-12);
    }

    #[test]
    fn poisson_binomial_reduces_to_binomial() {
        let pb = PoissonBinomial::new(vec![0.3; 5]).unwrap();
        let b = Binomial::new(5, 0.3).unwrap();
        for k in 0..=5u64 {
            assert_close(pb.pmf(k), b.pmf(k), 1e-12);
        }
        assert_close(pb.mean(), b.mean(), 1e-12);
        assert_close(pb.variance(), b.variance(), 1e-12);
    }

    #[test]
    fn poisson_binomial_heterogeneous() {
        let pb = PoissonBinomial::new(vec![0.0, 1.0, 0.5]).unwrap();
        // Exactly one success guaranteed (the p=1 trial), plus maybe the 0.5.
        assert_close(pb.pmf(0), 0.0, 1e-12);
        assert_close(pb.pmf(1), 0.5, 1e-12);
        assert_close(pb.pmf(2), 0.5, 1e-12);
        assert_close(pb.pmf(3), 0.0, 1e-12);
        assert!(PoissonBinomial::new(vec![1.1]).is_err());
    }

    #[test]
    fn sampling_respects_support_bounds() {
        let mut r = rng();
        let bb = BetaBinomial::new(10, 1.0, 0.7).unwrap();
        for s in bb.sample_n(&mut r, 200) {
            assert!(s <= 10);
        }
        let pb = PoissonBinomial::new(vec![0.2, 0.9, 0.4]).unwrap();
        for s in pb.sample_n(&mut r, 200) {
            assert!(s <= 3);
        }
    }
}
