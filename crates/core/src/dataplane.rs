//! Data-plane throughput scenarios for the scenario runtime.
//!
//! The TOLERANCE architecture assumes its replicated service plane keeps
//! serving client traffic while the two control levels act on it. These
//! scenarios make the service plane sweepable like any other workload: a
//! MinBFT cluster (with configurable leader batching, checkpoint compaction
//! and USIG signature cost) driven by an open- or closed-loop client
//! workload, reporting through the shared
//! [`MetricReport`](crate::metrics::MetricReport) currency of the
//! [`ScenarioRegistry`].

use crate::error::Result;
use crate::metrics::MetricReport;
use crate::runtime::{AsMetricReport, MetricScenario, Scenario, ScenarioRegistry};
use tolerance_consensus::workload::{Arrival, WorkloadConfig, WorkloadReport};
use tolerance_consensus::{MinBftCluster, MinBftConfig};

impl AsMetricReport for WorkloadReport {
    /// Maps the data-plane outcome onto the shared metric currency:
    /// availability is the completed fraction of offered requests,
    /// time-to-recovery doubles as mean request latency, and `steps` counts
    /// completed requests.
    fn metric_report(&self) -> MetricReport {
        MetricReport {
            availability: if self.offered == 0 {
                1.0
            } else {
                self.completed_requests as f64 / self.offered as f64
            },
            time_to_recovery: self.mean_latency,
            recovery_frequency: 0.0,
            steps: self.completed_requests,
        }
    }
}

/// A sweepable data-plane scenario: one MinBFT cluster configuration plus
/// one client workload.
#[derive(Debug, Clone)]
struct DataPlaneScenario {
    label: String,
    cluster: MinBftConfig,
    workload: WorkloadConfig,
}

impl DataPlaneScenario {
    /// Creates a scenario running `workload` against a cluster built from
    /// `cluster` (the per-run seed overrides both configs' seeds).
    pub fn new(label: impl Into<String>, cluster: MinBftConfig, workload: WorkloadConfig) -> Self {
        DataPlaneScenario {
            label: label.into(),
            cluster,
            workload,
        }
    }
}

impl Scenario for DataPlaneScenario {
    type Output = WorkloadReport;

    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&self, seed: u64) -> Result<WorkloadReport> {
        // Sweep axes can produce flush windows below the batch-fill floor
        // (`batch_delay < batch_size × per-message cost`), which silently
        // degrades every batch to a partial flush; the clamp keeps any grid
        // point meaningfully batched (see `MinBftConfig::validate`).
        let mut cluster = MinBftCluster::new(
            MinBftConfig {
                seed,
                ..self.cluster.clone()
            }
            .clamped(),
        );
        let report = cluster.run_workload(&WorkloadConfig {
            seed: seed ^ 0x6461_7461_706c_616e,
            ..self.workload
        });
        Ok(report)
    }
}

fn quick_cluster(batch_size: usize) -> MinBftConfig {
    MinBftConfig {
        initial_replicas: 4,
        batch_size,
        batch_delay: 0.05,
        // A visible signature cost is what batching amortizes.
        signature_time: 0.002,
        checkpoint_period: 50,
        ..MinBftConfig::default()
    }
}

/// Registers the built-in data-plane scenarios: closed-loop workloads at
/// batch sizes 1 and 16 (the like-for-like batching comparison), an
/// open-loop Poisson arrival workload, and `dataplane/load-swing` — the
/// self-tuning plane under a 10x diurnal offered-load swing
/// ([`crate::simnet::sharded::load_swing_config`]), run under the fleet
/// engine's full oracle suite with per-window autotune decisions in the
/// report.
pub fn register_dataplane_scenarios(registry: &mut ScenarioRegistry) {
    let closed = WorkloadConfig {
        clients: 16,
        arrival: Arrival::Closed,
        duration: 1.0,
        ..WorkloadConfig::default()
    };
    for batch_size in [1usize, 16] {
        let workload = closed;
        registry.register(format!("dataplane/closed-b{batch_size}"), move || {
            Ok(Box::new(DataPlaneScenario::new(
                format!("dataplane/closed-b{batch_size}"),
                quick_cluster(batch_size),
                workload,
            )) as Box<dyn MetricScenario>)
        });
    }
    registry.register("dataplane/open-poisson", move || {
        Ok(Box::new(DataPlaneScenario::new(
            "dataplane/open-poisson",
            quick_cluster(8),
            WorkloadConfig {
                clients: 16,
                arrival: Arrival::Open { rate: 60.0 },
                duration: 1.0,
                ..WorkloadConfig::default()
            },
        )) as Box<dyn MetricScenario>)
    });
    registry.register("dataplane/load-swing", || {
        Ok(Box::new(crate::simnet::ShardedSimnetScenario::new(
            "dataplane/load-swing",
            crate::simnet::sharded::load_swing_config(),
        )) as Box<dyn MetricScenario>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runner;

    #[test]
    fn dataplane_scenarios_register_and_run() {
        let mut registry = ScenarioRegistry::new();
        register_dataplane_scenarios(&mut registry);
        for name in [
            "dataplane/closed-b1",
            "dataplane/closed-b16",
            "dataplane/open-poisson",
            "dataplane/load-swing",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        let run = registry
            .run("dataplane/closed-b16", &Runner::serial(), &[1, 2])
            .unwrap();
        assert_eq!(run.reports.len(), 2);
        for report in &run.reports {
            assert!(report.steps > 0, "no requests completed: {report:?}");
            assert!((0.0..=1.0).contains(&report.availability));
            assert!(report.time_to_recovery > 0.0, "latency must be positive");
        }
    }

    #[test]
    fn batching_increases_registry_visible_throughput() {
        // The registry-facing comparison behind the bench: at the same
        // workload and signature cost, batch 16 completes far more requests
        // than batch 1.
        let mut registry = ScenarioRegistry::new();
        register_dataplane_scenarios(&mut registry);
        let runner = Runner::serial();
        let b1 = registry.run("dataplane/closed-b1", &runner, &[7]).unwrap();
        let b16 = registry.run("dataplane/closed-b16", &runner, &[7]).unwrap();
        assert!(
            b16.reports[0].steps > b1.reports[0].steps,
            "batch 16 must outperform batch 1: {} vs {}",
            b16.reports[0].steps,
            b1.reports[0].steps
        );
    }

    #[test]
    fn scenario_runs_are_deterministic_in_the_seed() {
        let scenario = DataPlaneScenario::new(
            "test/dataplane",
            quick_cluster(8),
            WorkloadConfig {
                clients: 8,
                duration: 0.5,
                ..WorkloadConfig::default()
            },
        );
        assert_eq!(scenario.run(5).unwrap(), scenario.run(5).unwrap());
        assert_ne!(scenario.run(5).unwrap(), scenario.run(6).unwrap());
    }
}
