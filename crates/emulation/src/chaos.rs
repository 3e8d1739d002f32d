//! Attacker-driven chaos: fault schedules generated by the emulated
//! attacker instead of uniform sampling.
//!
//! The core simnet generator ([`FaultSchedule::generate`]) draws intrusion
//! events at a constant rate. This module replaces that with the paper's
//! attacker model (Section VIII-A): per node, an [`Attacker`] works through
//! a container-specific intrusion playbook (Table 6); when the playbook
//! completes, the node is compromised and the attacker's sampled
//! post-compromise behaviour becomes the Byzantine mode injected into the
//! cluster. Compromise *timing* therefore follows the playbook lengths of
//! the container catalogue, and the harness's node controllers face the
//! same arrival process as the closed-loop emulation.

use crate::attacker::{Attacker, AttackerBehavior};
use crate::containers::ContainerCatalog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tolerance_consensus::NodeId;
use tolerance_core::runtime::Scenario;
use tolerance_core::simnet::{
    run_sharded_schedule, FaultEvent, FaultKind, FaultSchedule, ScheduleConfig, ScheduledFault,
    ShardedRunReport, ShardedScheduleConfig,
};
use tolerance_core::{CoreError, Result};

/// Generates the intrusion events of an attacker campaign: one [`Attacker`]
/// per initial replica walks the playbook of a (seed-sampled) container;
/// each completed playbook becomes an
/// [`IntrusionBurst`](FaultEvent::IntrusionBurst) paired with a recovery a
/// few steps later. At most `f` replicas are compromised at once (chaos
/// beyond the fault threshold voids the guarantees the oracles check).
fn attacker_driven_intrusions(
    seed: u64,
    config: &ScheduleConfig,
    intrusion_probability: f64,
) -> Vec<ScheduledFault> {
    let catalog = ContainerCatalog::paper_catalog();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa77a_c4e2_c0de_0001);
    let nodes: Vec<NodeId> = (0..config.initial_replicas as NodeId).collect();
    let mut attackers: Vec<(NodeId, Attacker, crate::containers::ContainerConfig)> = nodes
        .iter()
        .map(|&node| {
            (
                node,
                Attacker::new(intrusion_probability),
                catalog.sample(&mut rng).clone(),
            )
        })
        .collect();
    let f = config.fault_threshold().max(1);
    let mut events = Vec::new();
    let mut compromised_until: Vec<(NodeId, u32)> = Vec::new();
    let last_fault_step = config.horizon.saturating_sub(6);
    for step in 0..last_fault_step {
        compromised_until.retain(|&(_, until)| until > step);
        for (node, attacker, container) in &mut attackers {
            let active = compromised_until.iter().any(|&(n, _)| n == *node);
            if active {
                continue;
            }
            if attacker.step(container, u64::from(step), &mut rng) {
                // Playbook complete: the node is compromised.
                let behavior = attacker.behavior().unwrap_or(AttackerBehavior::Silent);
                if compromised_until.len() < f {
                    let recover_at = (step + 3).min(last_fault_step);
                    events.push(ScheduledFault {
                        step,
                        event: FaultEvent::IntrusionBurst {
                            node: *node,
                            mode: behavior.byzantine_mode(),
                        },
                    });
                    events.push(ScheduledFault {
                        step: recover_at,
                        event: FaultEvent::RecoverReplica { node: *node },
                    });
                    compromised_until.push((*node, recover_at));
                }
                // A fresh container (and playbook) after every attempt.
                attacker.reset();
                *container = catalog.sample(&mut rng).clone();
            }
        }
    }
    events
}

/// An attacker-campaign scenario: network/crash/churn chaos from the core
/// generator plus intrusion timing from the emulated attacker playbooks.
#[derive(Debug, Clone)]
pub struct AttackerCampaignScenario {
    label: String,
    config: ScheduleConfig,
    intrusion_probability: f64,
}

impl AttackerCampaignScenario {
    /// Creates a campaign scenario over the given base configuration. The
    /// core generator's replica-fault events (intrusions, Byzantine flips
    /// *and crashes*) are disabled in favour of the attacker-driven ones:
    /// the two generators keep independent fault budgets, so leaving both
    /// active could mark up to `2f` replicas faulty at once and void the
    /// tolerance guarantee the oracles assume.
    pub fn new(
        label: impl Into<String>,
        mut config: ScheduleConfig,
        intrusion_probability: f64,
    ) -> Self {
        config.enabled.retain(|kind| {
            !matches!(
                kind,
                FaultKind::IntrusionBurst | FaultKind::ByzantineFlip | FaultKind::CrashReplica
            )
        });
        AttackerCampaignScenario {
            label: label.into(),
            config,
            intrusion_probability,
        }
    }

    /// Builds the full schedule (core chaos + attacker intrusions) for a
    /// seed.
    pub fn schedule(&self, seed: u64) -> FaultSchedule {
        let mut schedule = FaultSchedule::generate(seed, &self.config);
        let mut events = std::mem::take(&mut schedule.events);
        events.extend(attacker_driven_intrusions(
            seed,
            &self.config,
            self.intrusion_probability,
        ));
        FaultSchedule::scripted(seed, events)
    }
}

impl Scenario for AttackerCampaignScenario {
    type Output = ShardedRunReport;

    fn label(&self) -> String {
        self.label.clone()
    }

    /// Runs the campaign's schedule on a single group.
    fn run(&self, seed: u64) -> Result<ShardedRunReport> {
        let config = ShardedScheduleConfig::single_group(self.config.clone());
        let report = run_sharded_schedule(&self.schedule(seed).into(), &config)?;
        if let Some(violation) = &report.violation {
            return Err(CoreError::Invariant(format!(
                "{violation} (seed {seed} of {})",
                self.label
            )));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> AttackerCampaignScenario {
        AttackerCampaignScenario::new(
            "test/campaign",
            ScheduleConfig {
                horizon: 30,
                intensity: 0.3,
                ..ScheduleConfig::default()
            },
            0.5,
        )
    }

    #[test]
    fn campaigns_generate_paired_playbook_intrusions() {
        let scenario = campaign();
        let schedule = scenario.schedule(3);
        let bursts = schedule
            .events
            .iter()
            .filter(|e| e.event.kind() == FaultKind::IntrusionBurst)
            .count();
        let recoveries = schedule
            .events
            .iter()
            .filter(|e| e.event.kind() == FaultKind::RecoverReplica)
            .count();
        assert!(bursts > 0, "a 0.5 intrusion rate must compromise someone");
        assert!(
            recoveries >= bursts,
            "every burst is paired with a recovery"
        );
        // The core generator's own intrusion kinds are disabled.
        assert!(!scenario.config.enabled.contains(&FaultKind::IntrusionBurst));
        // Determinism.
        assert_eq!(schedule, scenario.schedule(3));
        assert_ne!(schedule, scenario.schedule(4));
    }

    #[test]
    fn campaign_runs_pass_the_oracles() {
        let scenario = campaign();
        for seed in 0..3 {
            let report = scenario.run(seed).unwrap();
            assert!(report.outcome.completed > 0, "seed {seed}");
        }
    }
}
