//! The intrusion-tolerance metrics of Section III-C.
//!
//! * `T(A)` — average availability: the fraction of time-steps in which the
//!   number of compromised and crashed nodes is at most `f`.
//! * `T(R)` — average time-to-recovery: the mean number of time-steps from a
//!   node compromise until its recovery starts. Intrusions that are never
//!   recovered within an evaluation episode are charged the paper's cap of
//!   `10^3` steps (the value reported for NO-RECOVERY in Table 7).
//! * `F(R)` — recovery frequency: the fraction of time-steps in which a
//!   recovery occurs.

use serde::{Deserialize, Serialize};

/// The cap charged for intrusions that are never recovered (Table 7 reports
/// `10^3` for the NO-RECOVERY baseline).
const UNRECOVERED_CAP: f64 = 1000.0;

/// Accumulator for the three evaluation metrics of an emulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EvaluationMetrics {
    steps: u64,
    available_steps: u64,
    steps_with_recovery: u64,
    recovery_delays: Vec<f64>,
    unrecovered_intrusions: u64,
}

/// The finalized metric values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// Average availability `T(A)`.
    pub availability: f64,
    /// Average time-to-recovery `T(R)` in time-steps.
    pub time_to_recovery: f64,
    /// Recovery frequency `F(R)`.
    pub recovery_frequency: f64,
    /// Number of time-steps the run lasted.
    pub steps: u64,
}

impl EvaluationMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        EvaluationMetrics::default()
    }

    /// Records one time-step of the system.
    ///
    /// * `compromised_and_crashed` — number of nodes that are compromised or
    ///   crashed during the step.
    /// * `fault_threshold` — the `f` the consensus protocol tolerates at the
    ///   current replication factor.
    /// * `recoveries_started` — number of recoveries started this step.
    pub fn record_step(
        &mut self,
        compromised_and_crashed: usize,
        fault_threshold: usize,
        recoveries_started: usize,
    ) {
        self.steps += 1;
        if compromised_and_crashed <= fault_threshold {
            self.available_steps += 1;
        }
        if recoveries_started > 0 {
            self.steps_with_recovery += 1;
        }
    }

    /// Records that an intrusion which began `delay` steps ago was recovered
    /// this step.
    pub fn record_recovery_delay(&mut self, delay: u64) {
        self.recovery_delays.push(delay as f64);
    }

    /// Records an intrusion that was still unrecovered when the run ended; it
    /// is charged the paper's cap of `10^3` steps.
    pub fn record_unrecovered_intrusion(&mut self) {
        self.unrecovered_intrusions += 1;
    }

    /// Number of recorded time-steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Finalizes the metrics. If no intrusion ever occurred the
    /// time-to-recovery is reported as 0.
    pub fn report(&self) -> MetricReport {
        let availability = if self.steps == 0 {
            1.0
        } else {
            self.available_steps as f64 / self.steps as f64
        };
        let recovery_frequency = if self.steps == 0 {
            0.0
        } else {
            self.steps_with_recovery as f64 / self.steps as f64
        };
        let intrusion_count = self.recovery_delays.len() as u64 + self.unrecovered_intrusions;
        let time_to_recovery = if intrusion_count == 0 {
            0.0
        } else {
            let recovered_sum: f64 = self.recovery_delays.iter().sum();
            (recovered_sum + self.unrecovered_intrusions as f64 * UNRECOVERED_CAP)
                / intrusion_count as f64
        };
        MetricReport {
            availability,
            time_to_recovery,
            recovery_frequency,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn empty_run_reports_neutral_values() {
        let report = EvaluationMetrics::new().report();
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.time_to_recovery, 0.0);
        assert_eq!(report.recovery_frequency, 0.0);
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn availability_counts_steps_within_the_fault_budget() {
        let mut metrics = EvaluationMetrics::new();
        // 6 available steps, 4 unavailable.
        for _ in 0..6 {
            metrics.record_step(1, 1, 0);
        }
        for _ in 0..4 {
            metrics.record_step(3, 1, 0);
        }
        let report = metrics.report();
        assert_close(report.availability, 0.6, 1e-12);
        assert_eq!(report.steps, 10);
    }

    #[test]
    fn recovery_frequency_counts_steps_with_recoveries() {
        let mut metrics = EvaluationMetrics::new();
        metrics.record_step(0, 1, 2);
        metrics.record_step(0, 1, 0);
        metrics.record_step(0, 1, 1);
        metrics.record_step(0, 1, 0);
        assert_close(metrics.report().recovery_frequency, 0.5, 1e-12);
    }

    #[test]
    fn time_to_recovery_averages_delays_and_caps_unrecovered() {
        let mut metrics = EvaluationMetrics::new();
        metrics.record_step(0, 1, 0);
        metrics.record_recovery_delay(2);
        metrics.record_recovery_delay(4);
        assert_close(metrics.report().time_to_recovery, 3.0, 1e-12);
        // An unrecovered intrusion pulls the mean towards the cap.
        metrics.record_unrecovered_intrusion();
        assert_close(
            metrics.report().time_to_recovery,
            (2.0 + 4.0 + 1000.0) / 3.0,
            1e-9,
        );
    }

    #[test]
    fn no_recovery_run_reports_the_cap() {
        let mut metrics = EvaluationMetrics::new();
        for _ in 0..100 {
            metrics.record_step(5, 1, 0);
        }
        metrics.record_unrecovered_intrusion();
        metrics.record_unrecovered_intrusion();
        let report = metrics.report();
        assert_close(report.time_to_recovery, UNRECOVERED_CAP, 1e-9);
        assert_close(report.availability, 0.0, 1e-12);
        assert_close(report.recovery_frequency, 0.0, 1e-12);
    }
}
