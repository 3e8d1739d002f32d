//! The Table 7 / Fig. 12 comparison harness.
//!
//! Runs the closed-loop emulation for every combination of control strategy,
//! initial system size `N_1` and recovery period `Δ_R`, over multiple random
//! seeds, and reports the mean and 95% confidence interval of the three
//! evaluation metrics — exactly the grid the paper reports in Table 7.
//!
//! The grid is executed through the shared scenario runtime of
//! `tolerance-core`: each (strategy, `N_1`, `Δ_R`) cell becomes an
//! [`EmulationScenario`], and the [`Runner`] pools all (cell, seed) pairs
//! into one embarrassingly parallel job queue. Because every run is
//! deterministic in its seed and outputs are collected in input order, a
//! parallel grid is byte-identical to a serial one.

use crate::emulation::{Emulation, EmulationConfig, EmulationOutcome, StrategyKind};
use serde::{Deserialize, Serialize};
use tolerance_core::runtime::{MetricSummary, Runner, Scenario};

/// One cell of an evaluation grid: a full emulation configuration whose
/// seed is supplied per run by the [`Runner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmulationScenario {
    config: EmulationConfig,
}

impl EmulationScenario {
    /// Wraps an emulation configuration (its `seed` field is ignored; the
    /// runner supplies the seed of each run).
    pub fn new(config: EmulationConfig) -> Self {
        EmulationScenario { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &EmulationConfig {
        &self.config
    }
}

impl Scenario for EmulationScenario {
    type Output = EmulationOutcome;

    fn label(&self) -> String {
        format!(
            "{}/n{}/dr-{}",
            self.config.strategy.name(),
            self.config.initial_nodes,
            format_delta_r(self.config.delta_r)
        )
    }

    fn run(&self, seed: u64) -> tolerance_core::Result<EmulationOutcome> {
        let mut config = self.config.clone();
        config.seed = seed;
        Ok(Emulation::new(config)?.run())
    }
}

/// One row of the comparison (one strategy at one grid point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// The control strategy.
    pub strategy: String,
    /// Initial number of nodes `N_1`.
    pub initial_nodes: usize,
    /// Recovery period `Δ_R` (`None` = ∞).
    pub delta_r: Option<u32>,
    /// Mean availability `T(A)` and its 95% CI half-width.
    pub availability: (f64, f64),
    /// Mean time-to-recovery `T(R)` and its 95% CI half-width.
    pub time_to_recovery: (f64, f64),
    /// Mean recovery frequency `F(R)` and its 95% CI half-width.
    pub recovery_frequency: (f64, f64),
    /// Number of seeds.
    pub seeds: usize,
}

/// The evaluation grid of Table 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationGrid {
    /// Values of `N_1` to evaluate (paper: 3, 6, 9).
    pub initial_nodes: Vec<usize>,
    /// Values of `Δ_R` to evaluate (paper: 15, 25, ∞).
    pub delta_r: Vec<Option<u32>>,
    /// Strategies to compare.
    pub strategies: Vec<StrategyKind>,
    /// Number of random seeds per cell (paper: 20).
    pub seeds: usize,
    /// Emulation horizon in time-steps (paper: 1000).
    pub horizon: u32,
}

impl Default for EvaluationGrid {
    fn default() -> Self {
        EvaluationGrid {
            initial_nodes: vec![3, 6, 9],
            delta_r: vec![Some(15), Some(25), None],
            strategies: StrategyKind::paper_set().to_vec(),
            seeds: 20,
            horizon: 1000,
        }
    }
}

impl EvaluationGrid {
    /// A reduced grid for quick runs and tests.
    pub fn quick() -> Self {
        EvaluationGrid {
            initial_nodes: vec![3, 6],
            delta_r: vec![Some(15), None],
            seeds: 3,
            horizon: 200,
            ..EvaluationGrid::default()
        }
    }

    /// The grid cells as scenarios, in row order
    /// (`N_1` outer, `Δ_R` middle, strategy inner — the paper's table
    /// order).
    pub fn cells(&self) -> Vec<EmulationScenario> {
        let mut cells = Vec::new();
        for &n1 in &self.initial_nodes {
            for &delta_r in &self.delta_r {
                for &strategy in &self.strategies {
                    cells.push(EmulationScenario::new(EmulationConfig {
                        initial_nodes: n1,
                        delta_r,
                        strategy,
                        horizon: self.horizon,
                        ..EmulationConfig::default()
                    }));
                }
            }
        }
        cells
    }

    /// Runs the full grid in parallel (one worker per CPU) and returns one
    /// row per (strategy, `N_1`, `Δ_R`) cell.
    ///
    /// # Errors
    ///
    /// Propagates emulation-construction failures.
    pub fn run(&self) -> tolerance_core::Result<Vec<ComparisonRow>> {
        self.run_with(&Runner::parallel())
    }

    /// Runs the full grid through the given runner. The result does not
    /// depend on the runner's execution mode.
    ///
    /// # Errors
    ///
    /// Propagates emulation-construction failures.
    pub fn run_with(&self, runner: &Runner) -> tolerance_core::Result<Vec<ComparisonRow>> {
        let cells = self.cells();
        let seeds: Vec<u64> = (0..self.seeds as u64).collect();
        let outcomes = runner.run_cells(&cells, &seeds)?;
        cells
            .iter()
            .zip(outcomes)
            .map(|(cell, cell_outcomes)| {
                let reports: Vec<_> = cell_outcomes
                    .iter()
                    .map(|outcome| outcome.metrics)
                    .collect();
                let summary = MetricSummary::from_reports(&reports)?;
                let config = cell.config();
                Ok(ComparisonRow {
                    strategy: config.strategy.name().to_string(),
                    initial_nodes: config.initial_nodes,
                    delta_r: config.delta_r,
                    availability: summary.availability,
                    time_to_recovery: summary.time_to_recovery,
                    recovery_frequency: summary.recovery_frequency,
                    seeds: summary.samples,
                })
            })
            .collect()
    }
}

/// Formats a `Δ_R` value the way the paper's tables do.
fn format_delta_r(delta_r: Option<u32>) -> String {
    match delta_r {
        Some(d) => d.to_string(),
        None => "inf".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_reproduces_the_papers_qualitative_ordering() {
        let grid = EvaluationGrid {
            initial_nodes: vec![3],
            delta_r: vec![Some(15)],
            seeds: 3,
            horizon: 200,
            ..EvaluationGrid::default()
        };
        let rows = grid.run().unwrap();
        assert_eq!(rows.len(), 4);
        let get = |name: &str| rows.iter().find(|r| r.strategy == name).unwrap();
        let tolerance = get("tolerance");
        let no_recovery = get("no-recovery");
        let periodic = get("periodic");

        // Table 7 shape: TOLERANCE has the highest availability and the
        // lowest time-to-recovery; NO-RECOVERY collapses.
        assert!(tolerance.availability.0 > 0.9);
        assert!(no_recovery.availability.0 < 0.5);
        assert!(tolerance.availability.0 >= periodic.availability.0 - 0.05);
        assert!(tolerance.time_to_recovery.0 < periodic.time_to_recovery.0);
        assert!(no_recovery.time_to_recovery.0 > 500.0);
    }

    #[test]
    fn grid_enumerates_all_cells() {
        let grid = EvaluationGrid {
            initial_nodes: vec![3, 6],
            delta_r: vec![Some(15), None],
            strategies: vec![StrategyKind::Tolerance],
            seeds: 1,
            horizon: 50,
        };
        assert_eq!(grid.cells().len(), 4);
        let rows = grid.run().unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.seeds == 1));
    }

    #[test]
    fn serial_and_parallel_grids_are_identical() {
        let grid = EvaluationGrid {
            initial_nodes: vec![3],
            delta_r: vec![Some(15), None],
            seeds: 2,
            horizon: 60,
            ..EvaluationGrid::default()
        };
        let serial = grid.run_with(&Runner::serial()).unwrap();
        let parallel = grid.run_with(&Runner::parallel()).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn scenario_labels_identify_the_cell() {
        let scenario = EmulationScenario::new(EmulationConfig {
            initial_nodes: 6,
            delta_r: Some(15),
            ..EmulationConfig::default()
        });
        assert_eq!(scenario.label(), "tolerance/n6/dr-15");
        assert_eq!(scenario.config().initial_nodes, 6);
    }

    #[test]
    fn delta_r_formatting() {
        assert_eq!(format_delta_r(Some(15)), "15");
        assert_eq!(format_delta_r(None), "inf");
    }

    #[test]
    fn default_grid_matches_the_paper() {
        let grid = EvaluationGrid::default();
        assert_eq!(grid.initial_nodes, vec![3, 6, 9]);
        assert_eq!(grid.delta_r.len(), 3);
        assert_eq!(grid.strategies.len(), 4);
        assert_eq!(grid.seeds, 20);
        assert_eq!(grid.horizon, 1000);
        let quick = EvaluationGrid::quick();
        assert!(quick.seeds < grid.seeds);
    }
}
