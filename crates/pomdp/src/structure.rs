//! Structural checks for the assumptions and conclusions of Theorems 1–2.
//!
//! Theorem 1 of the paper relies on the observation and transition matrices
//! being totally positive of order 2 (TP-2, Krishnamurthy Def. 10.2.1) and on
//! the cost being submodular; its conclusion is that the optimal recovery
//! policy is a belief threshold. Theorem 2 relies on tail-sum supermodularity
//! of the replication transition function and concludes that the optimal
//! replication policy is a (mixture of) state threshold(s). This module
//! provides the corresponding checks, which the core crate uses both to
//! validate model parameters and to verify the structure of computed
//! policies in tests.

/// Returns `true` if the matrix (given as rows) is totally positive of order
/// 2: every 2x2 minor is non-negative, i.e.
/// `m[i1][j1] * m[i2][j2] >= m[i1][j2] * m[i2][j1]` for `i1 < i2`, `j1 < j2`.
pub fn is_tp2(matrix: &[Vec<f64>], tolerance: f64) -> bool {
    let rows = matrix.len();
    if rows == 0 {
        return true;
    }
    let cols = matrix[0].len();
    for i1 in 0..rows {
        for i2 in (i1 + 1)..rows {
            for j1 in 0..cols {
                for j2 in (j1 + 1)..cols {
                    let minor = matrix[i1][j1] * matrix[i2][j2] - matrix[i1][j2] * matrix[i2][j1];
                    if minor < -tolerance {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Returns `true` if the rows of `matrix` are ordered by first-order
/// stochastic dominance: row `i+1` dominates row `i` (higher rows shift mass
/// towards higher column indices). This is Theorem 2's assumption C for the
/// replication transition function.
pub fn rows_are_stochastically_monotone(matrix: &[Vec<f64>], tolerance: f64) -> bool {
    for pair in matrix.windows(2) {
        let (lower, upper) = (&pair[0], &pair[1]);
        let cols = lower.len().min(upper.len());
        // Tail sums of the upper row must dominate those of the lower row.
        let mut lower_tail = 0.0;
        let mut upper_tail = 0.0;
        for j in (0..cols).rev() {
            lower_tail += lower[j];
            upper_tail += upper[j];
            if upper_tail < lower_tail - tolerance {
                return false;
            }
        }
    }
    true
}

/// Returns `true` if a cost matrix `cost[s][a]` is submodular in `(s, a)`:
/// `c(s+1, a+1) - c(s+1, a) <= c(s, a+1) - c(s, a)` (the benefit of the higher
/// action increases with the state). This is the property of the recovery
/// cost function used in the proof of Theorem 1.
pub fn is_submodular(cost: &[Vec<f64>], tolerance: f64) -> bool {
    for s in 0..cost.len().saturating_sub(1) {
        let actions = cost[s].len().min(cost[s + 1].len());
        for a in 0..actions.saturating_sub(1) {
            let upper_diff = cost[s + 1][a + 1] - cost[s + 1][a];
            let lower_diff = cost[s][a + 1] - cost[s][a];
            if upper_diff > lower_diff + tolerance {
                return false;
            }
        }
    }
    true
}

/// The result of checking whether a policy over a 1-D ordered state space is
/// a threshold policy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThresholdCheck {
    /// Whether the policy has threshold structure (at most one switch, from
    /// the low action to the high action).
    pub is_threshold: bool,
    /// The index (or belief-grid point) of the first state where the high
    /// action is taken, if any.
    pub threshold_index: Option<usize>,
    /// Number of switch points observed.
    pub switches: usize,
}

/// Checks whether a sequence of binary actions (indexed by an ordered state
/// or belief grid) has threshold structure: `0...0 1...1`.
pub fn check_threshold_structure(actions: &[usize]) -> ThresholdCheck {
    let mut switches = 0usize;
    let mut threshold_index = None;
    let mut increasing_only = true;
    for i in 1..actions.len() {
        if actions[i] != actions[i - 1] {
            switches += 1;
            if actions[i] < actions[i - 1] {
                increasing_only = false;
            } else if threshold_index.is_none() {
                threshold_index = Some(i);
            }
        }
    }
    if !actions.is_empty() && actions[0] > 0 {
        threshold_index = Some(0);
    }
    ThresholdCheck {
        is_threshold: switches <= 1 && increasing_only,
        threshold_index,
        switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tolerance_markov::dist::{BetaBinomial, DiscreteDistribution};

    #[test]
    fn tp2_holds_for_paper_observation_model() {
        // Theorem 1 assumption E: the BetaBin(10, 0.7, 3) / BetaBin(10, 1, 0.7)
        // observation model of Appendix E is TP-2.
        let healthy = BetaBinomial::new(10, 0.7, 3.0).unwrap();
        let compromised = BetaBinomial::new(10, 1.0, 0.7).unwrap();
        let matrix = vec![
            (0..=10).map(|k| healthy.pmf(k)).collect::<Vec<f64>>(),
            (0..=10).map(|k| compromised.pmf(k)).collect::<Vec<f64>>(),
        ];
        assert!(is_tp2(&matrix, 1e-12));
    }

    #[test]
    fn tp2_rejects_reversed_ordering() {
        let matrix = vec![vec![0.1, 0.9], vec![0.9, 0.1]];
        assert!(!is_tp2(&matrix, 1e-12));
        // Empty matrices are trivially TP-2.
        assert!(is_tp2(&[], 1e-12));
        // Identity-like 2x2 is TP-2.
        assert!(is_tp2(&[vec![0.9, 0.1], vec![0.1, 0.9]], 1e-12));
    }

    #[test]
    fn stochastic_monotonicity() {
        let good = vec![
            vec![0.7, 0.2, 0.1],
            vec![0.3, 0.4, 0.3],
            vec![0.1, 0.2, 0.7],
        ];
        assert!(rows_are_stochastically_monotone(&good, 1e-12));
        let bad = vec![vec![0.1, 0.9], vec![0.9, 0.1]];
        assert!(!rows_are_stochastically_monotone(&bad, 1e-12));
        assert!(rows_are_stochastically_monotone(&[], 1e-12));
    }

    #[test]
    fn submodularity_of_recovery_cost() {
        // Paper cost (Eq. 5): c(s, a) = eta*s - a*eta*s + a  with eta = 2,
        // s in {0 (healthy), 1 (compromised)}, a in {0 (wait), 1 (recover)}.
        let eta = 2.0;
        let cost: Vec<Vec<f64>> = (0..2)
            .map(|s| {
                (0..2)
                    .map(|a| {
                        let (s, a) = (s as f64, a as f64);
                        eta * s - a * eta * s + a
                    })
                    .collect()
            })
            .collect();
        assert!(is_submodular(&cost, 1e-12));
        // A supermodular cost fails the check.
        let bad = vec![vec![0.0, 0.0], vec![0.0, 10.0]];
        assert!(!is_submodular(&bad, 1e-12));
    }

    #[test]
    fn threshold_structure_detection() {
        let perfect = vec![0, 0, 0, 1, 1, 1];
        let check = check_threshold_structure(&perfect);
        assert!(check.is_threshold);
        assert_eq!(check.threshold_index, Some(3));
        assert_eq!(check.switches, 1);

        let constant = vec![0, 0, 0];
        let check = check_threshold_structure(&constant);
        assert!(check.is_threshold);
        assert_eq!(check.threshold_index, None);

        let always_high = vec![1, 1];
        let check = check_threshold_structure(&always_high);
        assert!(check.is_threshold);
        assert_eq!(check.threshold_index, Some(0));

        let non_threshold = vec![0, 1, 0, 1];
        let check = check_threshold_structure(&non_threshold);
        assert!(!check.is_threshold);
        assert_eq!(check.switches, 3);

        let decreasing = vec![1, 0];
        assert!(!check_threshold_structure(&decreasing).is_threshold);
    }
}
