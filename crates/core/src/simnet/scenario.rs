//! Registry integration: fault-injection runs as ordinary scenarios.
//!
//! A [`ShardedSimnetScenario`] turns the seed into schedules and executes
//! them, so the PR-1 runtime can sweep fault intensity across seed grids
//! exactly like any other workload — and an invariant violation surfaces as
//! a run error carrying the violated oracle.

use crate::error::{CoreError, Result};
use crate::runtime::{MetricScenario, Scenario, ScenarioRegistry};
use crate::simnet::schedule::{FaultKind, ScheduleConfig};
use crate::simnet::sharded::{
    run_sharded_schedule, sharded_chaos_4_config, sharded_fleet_controlled_config,
    sharded_multiput_config, ShardedFaultSchedule, ShardedRunReport, ShardedScheduleConfig,
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

/// A chaos grid point: scales the default schedule intensity.
fn chaos_config(intensity: f64) -> ScheduleConfig {
    ScheduleConfig {
        intensity,
        ..ScheduleConfig::default()
    }
}

/// Registers the built-in single-group scenarios:
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
            let scenario = ShardedSimnetScenario::single_group(name, config.clone());
            Ok(Box::new(scenario) as Box<dyn MetricScenario>)
        });
    }
}

/// Registers the built-in sharded scenarios:
///
/// * `sharded/chaos-2` — two shards under the default chaos mix plus the
///   cross-shard MultiPut driver ([`ShardedScheduleConfig::default`]),
/// * `sharded/chaos-4` — [`sharded_chaos_4_config`],
/// * `sharded/multiput` — [`sharded_multiput_config`],
/// * `sharded/fleet-controlled` — [`sharded_fleet_controlled_config`].
///
/// The acceptance sweep in `tests/sharded.rs` drives the *same*
/// configuration functions, so the CI gate always covers what the
/// registry ships.
pub fn register_sharded_scenarios(registry: &mut ScenarioRegistry) {
    for (name, config) in [
        ("sharded/chaos-2", ShardedScheduleConfig::default()),
        ("sharded/chaos-4", sharded_chaos_4_config()),
        ("sharded/multiput", sharded_multiput_config()),
        (
            "sharded/fleet-controlled",
            sharded_fleet_controlled_config(),
        ),
    ] {
        registry.register(name, move || {
            let scenario = ShardedSimnetScenario::new(name, config.clone());
            Ok(Box::new(scenario) as Box<dyn MetricScenario>)
        });
    }
}
