//! TOLERANCE vs the baseline strategies on the emulated testbed.
//!
//! A miniature of the paper's Table 7: run the closed-loop emulation with
//! `N_1 = 6` nodes and `Δ_R = 15` for the four control strategies and print
//! the availability, time-to-recovery and recovery frequency of each.
//!
//! Run with `cargo run --release --example emulated_comparison`.

use tolerance::core::baselines::BaselineKind;
use tolerance::emulation::{Emulation, EmulationConfig, StrategyKind};

fn main() -> tolerance::core::Result<()> {
    let strategies = [
        StrategyKind::Tolerance,
        StrategyKind::Baseline(BaselineKind::NoRecovery),
        StrategyKind::Baseline(BaselineKind::Periodic),
        StrategyKind::Baseline(BaselineKind::PeriodicAdaptive),
    ];
    println!(
        "{:<20} {:>8} {:>8} {:>8} {:>10}",
        "strategy", "T(A)", "T(R)", "F(R)", "recoveries"
    );
    for strategy in strategies {
        let config = EmulationConfig {
            initial_nodes: 6,
            delta_r: Some(15),
            strategy,
            horizon: 500,
            seed: 20,
            ..EmulationConfig::default()
        };
        let outcome = Emulation::new(config)?.run();
        println!(
            "{:<20} {:>8.3} {:>8.1} {:>8.3} {:>10}",
            strategy.name(),
            outcome.metrics.availability,
            outcome.metrics.time_to_recovery,
            outcome.metrics.recovery_frequency,
            outcome.recoveries
        );
    }
    println!("\n(compare with Table 7 of the paper: TOLERANCE keeps T(A) near 1 with a time-to-recovery an order of magnitude below the periodic baselines)");
    Ok(())
}
