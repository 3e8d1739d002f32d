//! The built-in scenario catalogue of the emulated testbed.
//!
//! Every entry is an [`EmulationScenario`] registered by name in a
//! [`ScenarioRegistry`], so workloads are declared as data and executed
//! through the shared [`Runner`](tolerance_core::runtime::Runner) rather
//! than through bespoke run loops. The catalogue contains the paper's
//! Table-7 strategies plus workloads **beyond** the paper's grid:
//!
//! * `bursty-attacker` — a campaign-style attacker that concentrates the
//!   same average intrusion pressure into short bursts
//!   ([`AttackProfile::Bursty`]).
//! * `heterogeneous-nodes` — a fleet whose per-node attack/crash
//!   probabilities are jittered by ±60%, breaking the identical-node
//!   assumption of the paper's evaluation.

use crate::attacker::AttackProfile;
use crate::emulation::{EmulationConfig, StrategyKind};
use crate::eval::EmulationScenario;
use tolerance_core::runtime::{MetricScenario, ScenarioRegistry};

/// Horizon used by the registered scenarios: long enough for the metrics to
/// stabilize, short enough for registry-driven sweeps to stay interactive.
const REGISTRY_HORIZON: u32 = 300;

fn base_config(strategy: StrategyKind) -> EmulationConfig {
    EmulationConfig {
        initial_nodes: 6,
        delta_r: Some(15),
        strategy,
        horizon: REGISTRY_HORIZON,
        ..EmulationConfig::default()
    }
}

/// The configuration of the `bursty-attacker` scenario: TOLERANCE facing a
/// campaign attacker that is dormant for 40 of every 50 steps and attacks
/// at 5× pressure for the remaining 10.
pub fn bursty_attacker_config() -> EmulationConfig {
    EmulationConfig {
        attack_profile: AttackProfile::Bursty {
            period: 50,
            active_steps: 10,
            multiplier: 5.0,
        },
        ..base_config(StrategyKind::Tolerance)
    }
}

/// The configuration of the `heterogeneous-nodes` scenario: TOLERANCE over
/// a fleet whose per-node attack/crash probabilities vary by ±60%.
pub fn heterogeneous_nodes_config() -> EmulationConfig {
    EmulationConfig {
        parameter_jitter: 0.6,
        ..base_config(StrategyKind::Tolerance)
    }
}

/// Builds the registry of built-in emulation scenarios: one entry per
/// Table-7 strategy (at `N_1 = 6`, `Δ_R = 15`) under `paper/<strategy>`,
/// the non-paper workloads described in the module docs, the
/// fault-injection scenarios of the simnet harness (`simnet/*`), so
/// experiment sweeps treat fault intensity like any other grid axis, the
/// multi-shard fleet scenarios (`sharded/*`: per-shard chaos with the
/// routing/atomicity oracles and the fleet control plane), the service
/// data-plane throughput workloads (`dataplane/*`: closed-loop batching
/// comparison and open-loop Poisson arrival), and the closed-loop
/// control-plane scenarios (`controlled/*`: the live two-level loop on the
/// threaded service plus its oracle-checked simnet twin).
pub fn builtin_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    for strategy in StrategyKind::paper_set() {
        register_config(
            &mut registry,
            format!("paper/{}", strategy.name()),
            base_config(strategy),
        );
    }
    register_config(&mut registry, "bursty-attacker", bursty_attacker_config());
    register_config(
        &mut registry,
        "heterogeneous-nodes",
        heterogeneous_nodes_config(),
    );
    tolerance_core::simnet::register_simnet_scenarios(&mut registry);
    tolerance_core::simnet::register_sharded_scenarios(&mut registry);
    tolerance_core::simnet::register_adversary_scenarios(&mut registry);
    crate::chaos::register_chaos_scenarios(&mut registry);
    tolerance_core::dataplane::register_dataplane_scenarios(&mut registry);
    tolerance_core::controlplane::register_controlled_scenarios(&mut registry);
    registry
}

/// Registers an emulation configuration as a named scenario.
pub fn register_config(
    registry: &mut ScenarioRegistry,
    name: impl Into<String>,
    config: EmulationConfig,
) {
    registry.register(name, move || {
        Ok(Box::new(EmulationScenario::new(config.clone())) as Box<dyn MetricScenario>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tolerance_core::runtime::Runner;

    #[test]
    fn builtin_registry_contains_paper_novel_and_simnet_scenarios() {
        let registry = builtin_registry();
        assert_eq!(registry.len(), 51);
        for name in [
            "paper/tolerance",
            "paper/no-recovery",
            "paper/periodic",
            "paper/periodic-adaptive",
            "bursty-attacker",
            "heterogeneous-nodes",
            "simnet/chaos-light",
            "simnet/chaos-heavy",
            "simnet/partition-churn",
            "simnet/attacker-campaign",
            "sharded/chaos-2",
            "sharded/chaos-4",
            "sharded/multiput",
            "sharded/fleet-controlled",
            "dataplane/closed-b1",
            "dataplane/closed-b16",
            "dataplane/open-poisson",
            "dataplane/load-swing",
            "controlled/intrusion-burst",
            "controlled/uncontrolled-baseline",
            "controlled/sim-intrusion-burst",
            "adversary/equivocating-leader/sync",
            "adversary/vote-withholding/gst",
            "adversary/delayed-votes/storm",
            "adversary/lying-donor/sync",
            "adversary/reply-suppression/gst",
            "adversary/sharded/equivocating-leader/gst",
            "adversary/sharded/reply-suppression/storm",
        ] {
            assert!(registry.contains(name), "missing scenario {name}");
        }
        // The live threaded scenarios are wall-clock: registered without a
        // replay guarantee, while the simnet twin stays deterministic.
        let deterministic = registry.deterministic_names();
        assert!(!deterministic.contains(&"controlled/intrusion-burst"));
        assert!(!deterministic.contains(&"controlled/uncontrolled-baseline"));
        assert!(deterministic.contains(&"controlled/sim-intrusion-burst"));
        assert!(deterministic.contains(&"sharded/chaos-2"));
        assert!(deterministic.contains(&"adversary/equivocating-leader/gst"));
        assert_eq!(deterministic.len(), 49);
    }

    #[test]
    fn novel_scenarios_extend_the_paper_grid() {
        let bursty = bursty_attacker_config();
        assert_ne!(bursty.attack_profile, AttackProfile::Constant);
        let heterogeneous = heterogeneous_nodes_config();
        assert!(heterogeneous.parameter_jitter > 0.0);
        // Both differ from every paper cell, which uses the default profile
        // and an identical fleet.
        let paper = base_config(StrategyKind::Tolerance);
        assert_eq!(paper.attack_profile, AttackProfile::Constant);
        assert_eq!(paper.parameter_jitter, 0.0);
    }

    #[test]
    fn registered_scenarios_run_through_the_runner() {
        let registry = builtin_registry();
        let runner = Runner::parallel();
        let seeds = [0, 1];
        for name in ["bursty-attacker", "heterogeneous-nodes"] {
            let run = registry.run(name, &runner, &seeds).unwrap();
            assert_eq!(run.reports.len(), 2, "{name}");
            assert_eq!(run.summary.samples, 2, "{name}");
            for report in &run.reports {
                assert!((0.0..=1.0).contains(&report.availability), "{name}");
                assert_eq!(report.steps, u64::from(REGISTRY_HORIZON), "{name}");
            }
        }
    }

    #[test]
    fn bursty_attacks_change_the_outcome_relative_to_constant_pressure() {
        let registry = builtin_registry();
        let runner = Runner::parallel();
        let seeds: Vec<u64> = (0..3).collect();
        let constant = registry.run("paper/tolerance", &runner, &seeds).unwrap();
        let bursty = registry.run("bursty-attacker", &runner, &seeds).unwrap();
        assert_ne!(
            constant.reports, bursty.reports,
            "the burst profile must actually alter the closed-loop dynamics"
        );
    }
}
