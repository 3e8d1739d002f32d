//! Special functions used by the probability distributions.
//!
//! Only the handful of functions the crate actually needs are provided:
//! the log-gamma function (Lanczos approximation), the log-beta function,
//! log-binomial coefficients and log-factorials.

/// Lanczos coefficients (g = 7, n = 9) for the log-gamma approximation.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEFFICIENTS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`. Accuracy is
/// better than `1e-10` over the range used by this crate.
///
/// # Panics
///
/// Panics if `x` is not finite or if `x` is a non-positive integer (where the
/// gamma function has poles).
fn ln_gamma(x: f64) -> f64 {
    assert!(
        x.is_finite(),
        "ln_gamma requires a finite argument, got {x}"
    );
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        assert!(
            sin_pi_x.abs() > f64::EPSILON,
            "ln_gamma is undefined at non-positive integers, got {x}"
        );
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEFFICIENTS[0];
    for (i, &c) in LANCZOS_COEFFICIENTS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the beta function, `ln B(a, b)` for `a, b > 0`.
pub(crate) fn ln_beta(a: f64, b: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "ln_beta requires positive arguments, got ({a}, {b})"
    );
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns negative infinity when `k > n`.
pub(crate) fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Natural logarithm of `n!`.
pub(crate) fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact binomial coefficient for small arguments: the oracle
    /// `ln_binomial` is checked against.
    fn binomial_coefficient(n: u64, k: u64) -> u128 {
        let k = k.min(n - k);
        (0..k).fold(1u128, |acc, i| acc * (n - i) as u128 / (i as u128 + 1))
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert_close(ln_gamma(1.0), 0.0, 1e-10);
        assert_close(ln_gamma(2.0), 0.0, 1e-10);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-9);
        assert_close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-8);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        assert_close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-9);
        // Γ(3/2) = sqrt(π)/2
        assert_close(
            ln_gamma(1.5),
            0.5 * std::f64::consts::PI.ln() - std::f64::consts::LN_2,
            1e-9,
        );
    }

    #[test]
    fn ln_beta_symmetry_and_known_values() {
        assert_close(ln_beta(1.0, 1.0), 0.0, 1e-10);
        // B(2, 3) = 1/12
        assert_close(ln_beta(2.0, 3.0), (1.0f64 / 12.0).ln(), 1e-9);
        assert_close(ln_beta(0.7, 3.0), ln_beta(3.0, 0.7), 1e-12);
    }

    #[test]
    fn ln_binomial_matches_exact() {
        for n in 0..=20u64 {
            for k in 0..=n {
                let exact = binomial_coefficient(n, k) as f64;
                assert_close(ln_binomial(n, k).exp(), exact, exact * 1e-9 + 1e-9);
            }
        }
        assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive arguments")]
    fn ln_beta_rejects_nonpositive() {
        ln_beta(0.0, 1.0);
    }
}
