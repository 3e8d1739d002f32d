//! Registry integration: fault-injection runs as ordinary scenarios.
//!
//! A [`SimnetScenario`] generates a schedule from the seed and executes it,
//! so the PR-1 runtime can sweep fault intensity across seed grids exactly
//! like any other workload — and an invariant violation surfaces as a run
//! error carrying the violated oracle.

use crate::error::{CoreError, Result};
use crate::runtime::{Scenario, ScenarioRegistry};
use crate::simnet::executor::{run_schedule, RunReport};
use crate::simnet::schedule::{FaultKind, FaultSchedule, ScheduleConfig};

/// A randomized fault-injection scenario: seed → schedule → run.
#[derive(Debug, Clone)]
pub struct SimnetScenario {
    label: String,
    config: ScheduleConfig,
}

impl SimnetScenario {
    /// Wraps a schedule configuration under a label.
    pub fn new(label: impl Into<String>, config: ScheduleConfig) -> Self {
        SimnetScenario {
            label: label.into(),
            config,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &ScheduleConfig {
        &self.config
    }
}

impl Scenario for SimnetScenario {
    type Output = RunReport;

    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&self, seed: u64) -> Result<RunReport> {
        let schedule = FaultSchedule::generate(seed, &self.config);
        let report = run_schedule(&schedule, &self.config)?;
        if let Some(violation) = &report.violation {
            return Err(CoreError::Invariant(format!(
                "{violation} (seed {seed}; regenerate the schedule with \
                 FaultSchedule::generate({seed}, config) to reproduce)"
            )));
        }
        Ok(report)
    }
}

/// A chaos grid point: scales the default schedule intensity.
fn chaos_config(intensity: f64) -> ScheduleConfig {
    ScheduleConfig {
        intensity,
        ..ScheduleConfig::default()
    }
}

/// Registers the built-in simnet scenarios:
///
/// * `simnet/chaos-light` — sparse faults (≈1 event per 5 steps),
/// * `simnet/chaos-heavy` — dense faults (≈4 events per 5 steps),
/// * `simnet/partition-churn` — partitions and membership churn only.
pub fn register_simnet_scenarios(registry: &mut ScenarioRegistry) {
    let partition_churn = ScheduleConfig {
        intensity: 0.6,
        enabled: vec![
            FaultKind::Partition,
            FaultKind::AddReplica,
            FaultKind::EvictReplica,
            FaultKind::ClientBurst,
        ],
        ..ScheduleConfig::default()
    };
    for (name, config) in [
        ("simnet/chaos-light", chaos_config(0.2)),
        ("simnet/chaos-heavy", chaos_config(0.8)),
        ("simnet/partition-churn", partition_churn),
    ] {
        registry.register(name, move || {
            Ok(Box::new(SimnetScenario::new(name, config.clone())))
        });
    }
}
