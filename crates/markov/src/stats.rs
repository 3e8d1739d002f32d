//! Summary statistics with confidence half-widths, and the
//! Kullback–Leibler divergence.
//!
//! Every table and figure in the paper reports means with 95% confidence
//! intervals based on the Student-t distribution over 20 random seeds
//! (Appendix E); [`SummaryStatistics`] reproduces that computation.
//! Figures 14 and 18 additionally report
//! Kullback–Leibler divergences between alert distributions, provided by
//! [`kl_divergence`].

use crate::error::{MarkovError, Result};

/// Two-sided 97.5% quantiles of the Student-t distribution for small degrees
/// of freedom (1..=30), used to build 95% confidence intervals.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Returns the 97.5% Student-t quantile for `df` degrees of freedom
/// (normal-approximation 1.96 for `df > 30`).
fn t_quantile_975(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        T_975[df - 1]
    } else {
        1.96
    }
}

/// Mean, standard deviation and 95% confidence half-width of a sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SummaryStatistics {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub std_dev: f64,
    /// Half-width of the 95% Student-t confidence interval.
    pub ci95_half_width: f64,
    /// Number of samples.
    pub count: usize,
}

impl SummaryStatistics {
    /// Computes summary statistics of a sample.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::EmptyInput`] for an empty sample.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(MarkovError::EmptyInput("samples"));
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = variance.sqrt();
        let half_width = if n > 1 {
            t_quantile_975(n - 1) * std_dev / (n as f64).sqrt()
        } else {
            0.0
        };
        Ok(SummaryStatistics {
            mean,
            std_dev,
            ci95_half_width: half_width,
            count: n,
        })
    }

    /// Formats the statistic as `mean ± ci`, as printed in the paper's tables.
    pub fn format_pm(&self, decimals: usize) -> String {
        format!(
            "{:.*} ± {:.*}",
            decimals, self.mean, decimals, self.ci95_half_width
        )
    }
}

/// Kullback–Leibler divergence `D_KL(p ‖ q)` between two discrete
/// distributions given as probability vectors.
///
/// Terms with `p[i] = 0` contribute zero. Terms with `p[i] > 0` and
/// `q[i] = 0` make the divergence infinite.
///
/// # Errors
///
/// Returns [`MarkovError::DimensionMismatch`] if the vectors have different
/// lengths and [`MarkovError::EmptyInput`] if they are empty.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> Result<f64> {
    if p.is_empty() {
        return Err(MarkovError::EmptyInput("distribution"));
    }
    if p.len() != q.len() {
        return Err(MarkovError::DimensionMismatch {
            expected: format!("length {}", p.len()),
            found: format!("length {}", q.len()),
        });
    }
    let mut divergence = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi <= 0.0 {
            continue;
        }
        if qi <= 0.0 {
            return Ok(f64::INFINITY);
        }
        divergence += pi * (pi / qi).ln();
    }
    Ok(divergence)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn summary_statistics_known_values() {
        let stats =
            SummaryStatistics::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_close(stats.mean, 5.0, 1e-12);
        assert_close(stats.std_dev, (32.0f64 / 7.0).sqrt(), 1e-12);
        assert_eq!(stats.count, 8);
        assert!(stats.ci95_half_width > 0.0);
        assert!(stats.format_pm(2).contains("5.00 ±"));
    }

    #[test]
    fn single_sample_has_zero_interval() {
        let stats = SummaryStatistics::from_samples(&[3.0]).unwrap();
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.ci95_half_width, 0.0);
        assert!(SummaryStatistics::from_samples(&[]).is_err());
    }

    #[test]
    fn t_quantile_monotone_towards_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(19));
        assert_close(t_quantile_975(100), 1.96, 1e-12);
        assert_eq!(t_quantile_975(0), f64::INFINITY);
    }

    #[test]
    fn kl_divergence_properties() {
        let p = vec![0.5, 0.5];
        let q = vec![0.9, 0.1];
        let d_pq = kl_divergence(&p, &q).unwrap();
        let d_qp = kl_divergence(&q, &p).unwrap();
        assert!(d_pq > 0.0 && d_qp > 0.0);
        assert!((kl_divergence(&p, &p).unwrap()).abs() < 1e-12);
        // Asymmetric in general.
        assert!((d_pq - d_qp).abs() > 1e-3);
        // Infinite when q has a zero where p has mass.
        assert_eq!(
            kl_divergence(&[1.0, 0.0], &[0.0, 1.0]).unwrap(),
            f64::INFINITY
        );
        // Dimension and emptiness errors.
        assert!(kl_divergence(&[0.5, 0.5], &[1.0]).is_err());
        assert!(kl_divergence(&[], &[]).is_err());
    }
}
