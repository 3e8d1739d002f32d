//! Fault-injection runs as ordinary scenarios.
//!
//! A [`ShardedSimnetScenario`] turns the seed into schedules and executes
//! them, so [`Runner::run_seeds`](crate::runtime::Runner::run_seeds) sweeps
//! fault intensity across seed grids exactly like any other workload — and
//! an invariant violation surfaces as a run error carrying the violated
//! oracle.

use crate::error::{CoreError, Result};
use crate::runtime::Scenario;
use crate::simnet::schedule::ScheduleConfig;
use crate::simnet::sharded::{
    run_sharded_schedule, ShardedFaultSchedule, ShardedRunReport, ShardedScheduleConfig,
};

/// A randomized fault-injection scenario: seed → schedules → run under the
/// full oracle suite.
#[derive(Debug, Clone)]
pub struct ShardedSimnetScenario {
    label: String,
    config: ShardedScheduleConfig,
    /// How a seed becomes the run's schedules.
    generate: fn(u64, &ShardedScheduleConfig) -> ShardedFaultSchedule,
}

impl ShardedSimnetScenario {
    /// Wraps a fleet configuration under a label; a seed's schedules come
    /// from [`ShardedFaultSchedule::generate`].
    pub fn new(label: impl Into<String>, config: ShardedScheduleConfig) -> Self {
        ShardedSimnetScenario {
            label: label.into(),
            config,
            generate: ShardedFaultSchedule::generate,
        }
    }

    /// A single MinBFT group under `base`
    /// ([`ShardedScheduleConfig::single_group`]); a seed's schedule comes
    /// from [`ShardedFaultSchedule::single_group`].
    pub fn single_group(label: impl Into<String>, base: ScheduleConfig) -> Self {
        ShardedSimnetScenario {
            label: label.into(),
            config: ShardedScheduleConfig::single_group(base),
            generate: ShardedFaultSchedule::single_group,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &ShardedScheduleConfig {
        &self.config
    }

    /// The schedules the run of `seed` executes.
    pub fn schedule(&self, seed: u64) -> ShardedFaultSchedule {
        (self.generate)(seed, &self.config)
    }
}

impl Scenario for ShardedSimnetScenario {
    type Output = ShardedRunReport;

    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&self, seed: u64) -> Result<ShardedRunReport> {
        let report = run_sharded_schedule(&self.schedule(seed), &self.config)?;
        if let Some(violation) = &report.violation {
            return Err(CoreError::Invariant(format!(
                "{violation} (seed {seed} of {}; ShardedSimnetScenario::schedule({seed}) \
                 regenerates the schedules to reproduce it)",
                self.label
            )));
        }
        Ok(report)
    }
}
