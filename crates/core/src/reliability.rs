//! Reliability analysis of the replicated system (Fig. 6 / Appendix F).
//!
//! When no recoveries or replenishments take place, the number of healthy
//! nodes is a pure-death Markov chain; the system fails at the first time
//! `T(f)` at which fewer than `2f + k + 1` nodes remain (Proposition 1). The
//! mean time to failure is the mean hitting time of that failure set
//! (Fig. 6a) and the reliability function `R(t) = P[T(f) > t]` follows from
//! the Chapman–Kolmogorov equation (Fig. 6b).

use crate::error::{CoreError, Result};
use tolerance_consensus::PARALLEL_RECOVERIES;
use tolerance_markov::chain::MarkovChain;
use tolerance_markov::dist::{Binomial, DiscreteDistribution};

/// Reliability analysis of a system of `n1` initially healthy nodes whose
/// nodes fail (compromise or crash) independently with a per-step
/// probability, with no recoveries, under
/// [`ReliabilityAnalysis::FAULT_THRESHOLD`] and [`PARALLEL_RECOVERIES`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReliabilityAnalysis {
    initial_nodes: usize,
    per_step_failure_probability: f64,
}

impl ReliabilityAnalysis {
    /// The fault threshold `f` the analysis is run for: Fig. 6's setting.
    /// With `k` = [`PARALLEL_RECOVERIES`] the system fails below
    /// `2f + k + 1 = 8` healthy nodes.
    pub const FAULT_THRESHOLD: usize = 3;

    /// Creates the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the failure probability is
    /// outside `(0, 1)` or there are no nodes.
    pub fn new(initial_nodes: usize, per_step_failure_probability: f64) -> Result<Self> {
        if initial_nodes == 0 {
            return Err(CoreError::InvalidParameter {
                name: "initial_nodes",
                reason: "at least one node is required".into(),
            });
        }
        if !(per_step_failure_probability > 0.0 && per_step_failure_probability < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "per_step_failure_probability",
                reason: format!("must lie in (0, 1), got {per_step_failure_probability}"),
            });
        }
        Ok(ReliabilityAnalysis {
            initial_nodes,
            per_step_failure_probability,
        })
    }

    /// The failure boundary: the system has failed once fewer than
    /// `2f + k + 1` healthy nodes remain.
    fn minimum_viable_nodes(&self) -> usize {
        2 * Self::FAULT_THRESHOLD + PARALLEL_RECOVERIES + 1
    }

    /// Builds the pure-death chain over the number of healthy nodes
    /// `{0, ..., n1}` under independent per-node failures.
    fn chain(&self) -> Result<MarkovChain> {
        let n = self.initial_nodes;
        let p_fail = self.per_step_failure_probability;
        let mut rows = Vec::with_capacity(n + 1);
        for healthy in 0..=n {
            let mut row = vec![0.0; n + 1];
            if healthy == 0 {
                row[0] = 1.0;
            } else {
                let failures = Binomial::new(healthy as u64, p_fail)
                    .map_err(|e| CoreError::Markov(e.to_string()))?;
                for lost in 0..=healthy {
                    row[healthy - lost] = failures.pmf(lost as u64);
                }
            }
            rows.push(row);
        }
        Ok(MarkovChain::new(rows)?)
    }

    /// The failure states `{0, ..., 2f + k}` (clamped to the state space).
    fn failure_states(&self) -> Vec<usize> {
        let boundary = self.minimum_viable_nodes().min(self.initial_nodes + 1);
        (0..boundary).collect()
    }

    /// The mean time to failure `E[T(f)]` (Fig. 6a).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Markov`] if the chain computation fails and 0 if
    /// the system starts already failed.
    pub fn mean_time_to_failure(&self) -> Result<f64> {
        if self.initial_nodes < self.minimum_viable_nodes() {
            return Ok(0.0);
        }
        let chain = self.chain()?;
        let hitting = chain.mean_hitting_time(&self.failure_states())?;
        Ok(hitting[self.initial_nodes])
    }

    /// The reliability curve `R(t) = P[T(f) > t]` for `t = 0..=horizon`
    /// (Fig. 6b).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Markov`] if the chain computation fails.
    pub fn reliability_curve(&self, horizon: u32) -> Result<Vec<f64>> {
        if self.initial_nodes < self.minimum_viable_nodes() {
            return Ok(vec![0.0; horizon as usize + 1]);
        }
        let chain = self.chain()?;
        Ok(chain.reliability_curve(self.initial_nodes, &self.failure_states(), horizon)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_inputs() {
        assert!(ReliabilityAnalysis::new(0, 0.1).is_err());
        assert!(ReliabilityAnalysis::new(10, 0.0).is_err());
        assert!(ReliabilityAnalysis::new(10, 1.0).is_err());
        let analysis = ReliabilityAnalysis::new(10, 0.1).unwrap();
        assert_eq!(analysis.minimum_viable_nodes(), 8);
    }

    #[test]
    fn mttf_increases_with_more_initial_nodes() {
        // Fig. 6a: more nodes => longer time to failure.
        let mut previous = 0.0;
        for n1 in [10, 25, 50, 100] {
            let analysis = ReliabilityAnalysis::new(n1, 0.1).unwrap();
            let mttf = analysis.mean_time_to_failure().unwrap();
            assert!(
                mttf > previous,
                "MTTF should grow with N1 ({n1}): {mttf} <= {previous}"
            );
            previous = mttf;
        }
    }

    #[test]
    fn mttf_decreases_with_higher_attack_rate() {
        // Fig. 6a: the p_A = 0.1 curve lies below the p_A = 0.01 curve.
        let aggressive = ReliabilityAnalysis::new(50, 0.1).unwrap();
        let mild = ReliabilityAnalysis::new(50, 0.01).unwrap();
        assert!(mild.mean_time_to_failure().unwrap() > aggressive.mean_time_to_failure().unwrap());
    }

    #[test]
    fn already_failed_system_has_zero_mttf_and_reliability() {
        let analysis = ReliabilityAnalysis::new(5, 0.1).unwrap();
        assert_eq!(analysis.mean_time_to_failure().unwrap(), 0.0);
        let curve = analysis.reliability_curve(10).unwrap();
        assert!(curve.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn reliability_curve_is_monotone_and_ordered_by_n1() {
        // Fig. 6b: curves start at 1, decrease, and larger N1 dominates.
        let small = ReliabilityAnalysis::new(25, 0.05)
            .unwrap()
            .reliability_curve(60)
            .unwrap();
        let large = ReliabilityAnalysis::new(50, 0.05)
            .unwrap()
            .reliability_curve(60)
            .unwrap();
        assert!((small[0] - 1.0).abs() < 1e-9);
        for w in small.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        for t in [10usize, 20, 40, 60] {
            assert!(
                large[t] >= small[t] - 1e-9,
                "more nodes must be at least as reliable at t = {t}"
            );
        }
        // Eventually the system fails with high probability.
        assert!(small[60] < 0.5);
    }

    #[test]
    fn single_step_reliability_matches_binomial_tail() {
        // With n1 = 8, f = 3, k = 1 the system fails as soon as any node
        // fails; R(1) = (1 - p)^8.
        let p = 0.1;
        let analysis = ReliabilityAnalysis::new(8, p).unwrap();
        let curve = analysis.reliability_curve(1).unwrap();
        let expected = (1.0 - p).powi(8);
        assert!((curve[1] - expected).abs() < 1e-9);
    }
}
