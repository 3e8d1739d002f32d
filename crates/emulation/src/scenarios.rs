//! Emulation workloads beyond the paper's grid.
//!
//! Each configuration is run as an [`EmulationScenario`](crate::EmulationScenario)
//! through the shared [`Runner`](tolerance_core::runtime::Runner), like the
//! Table-7 cells of [`EvaluationGrid`](crate::EvaluationGrid):
//!
//! * [`bursty_attacker_config`] — a campaign-style attacker that
//!   concentrates the same average intrusion pressure into short bursts
//!   ([`AttackProfile::Bursty`]).
//! * [`heterogeneous_nodes_config`] — a fleet whose per-node attack/crash
//!   probabilities are jittered by ±60%, breaking the identical-node
//!   assumption of the paper's evaluation.

use crate::attacker::AttackProfile;
use crate::emulation::{EmulationConfig, StrategyKind};

/// Horizon of these workloads: long enough for the metrics to stabilize,
/// short enough for seed sweeps to stay interactive.
const HORIZON: u32 = 300;

fn base_config(strategy: StrategyKind) -> EmulationConfig {
    EmulationConfig {
        initial_nodes: 6,
        delta_r: Some(15),
        strategy,
        horizon: HORIZON,
        ..EmulationConfig::default()
    }
}

/// The `bursty-attacker` workload: TOLERANCE facing a campaign attacker
/// that is dormant for 40 of every 50 steps and attacks at 5× pressure for
/// the remaining 10.
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

/// The `heterogeneous-nodes` workload: TOLERANCE over a fleet whose
/// per-node attack/crash probabilities vary by ±60%.
pub fn heterogeneous_nodes_config() -> EmulationConfig {
    EmulationConfig {
        parameter_jitter: 0.6,
        ..base_config(StrategyKind::Tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmulationScenario;
    use tolerance_core::runtime::Runner;

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
    fn novel_scenarios_run_for_the_whole_horizon() {
        let cells = [
            EmulationScenario::new(bursty_attacker_config()),
            EmulationScenario::new(heterogeneous_nodes_config()),
        ];
        let outcomes = Runner::parallel().run_cells(&cells, &[0, 1]).unwrap();
        for (cell, cell_outcomes) in cells.iter().zip(&outcomes) {
            assert_eq!(cell_outcomes.len(), 2);
            for outcome in cell_outcomes {
                let report = outcome.metrics;
                assert!((0.0..=1.0).contains(&report.availability), "{cell:?}");
                assert_eq!(report.steps, u64::from(HORIZON), "{cell:?}");
            }
        }
    }
}
