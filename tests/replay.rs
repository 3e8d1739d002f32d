//! Deterministic-replay tests of the scenario runtime: the same scenario +
//! seed must produce identical results whether it runs serially, through
//! the parallel runner, or twice in a row — and the Table-7 comparison rows
//! must be byte-identical across execution modes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tolerance::core::controlplane::sim_intrusion_burst_config;
use tolerance::core::metrics::MetricReport;
use tolerance::core::prelude::{
    Alg1, Alg1Config, NodeModel, NodeParameters, ObservationModel, OptimizerKind, RecoveryConfig,
    RecoveryProblem, ThresholdStrategy,
};
use tolerance::core::runtime::{Runner, Scenario};
use tolerance::core::simnet::{
    adversary_config, adversary_matrix, adversary_sharded_config, load_swing_config,
    sharded_chaos_4_config, sharded_fleet_controlled_config, sharded_multiput_config, FaultKind,
    ScheduleConfig, ShardedScheduleConfig, ShardedSimnetScenario,
};
use tolerance::emulation::scenarios::{bursty_attacker_config, heterogeneous_nodes_config};
use tolerance::emulation::{
    AttackProfile, AttackerCampaignScenario, EmulationConfig, EmulationScenario, EvaluationGrid,
};
use tolerance::optim::bayesian::{BayesianOptimization, BoConfig};
use tolerance::optim::cem::{CemConfig, CrossEntropyMethod};
use tolerance::optim::de::{DeConfig, DifferentialEvolution};
use tolerance::optim::objective::Objective;
use tolerance::optim::optimizer::Optimizer;
use tolerance::optim::spsa::{Spsa, SpsaConfig};

fn quick_grid() -> EvaluationGrid {
    EvaluationGrid {
        initial_nodes: vec![3, 6],
        delta_r: vec![Some(15), None],
        seeds: 3,
        horizon: 120,
        ..EvaluationGrid::default()
    }
}

#[test]
fn quick_grid_is_byte_identical_serial_vs_parallel() {
    let grid = quick_grid();
    let serial = grid.run_with(&Runner::serial()).unwrap();
    let parallel = grid.run_with(&Runner::parallel()).unwrap();
    let four_workers = grid.run_with(&Runner::with_threads(4)).unwrap();

    // Structural equality...
    assert_eq!(serial, parallel);
    assert_eq!(serial, four_workers);
    // ...and byte-identical serialized artifacts (what lands in
    // results/*.json must not depend on the execution mode).
    let serial_json = serde_json::to_string_pretty(&serial).unwrap();
    let parallel_json = serde_json::to_string_pretty(&parallel).unwrap();
    assert_eq!(serial_json, parallel_json);
}

#[test]
fn evaluation_grid_quick_runs_through_the_shared_runner() {
    // `quick()` is the configuration the experiment binary uses without
    // `--full`; the acceptance gate for the runtime refactor.
    let mut grid = EvaluationGrid::quick();
    grid.horizon = 100; // keep the replay fast; still 16 cells x 3 seeds
    let rows = grid.run_with(&Runner::with_threads(2)).unwrap();
    assert_eq!(rows.len(), grid.cells().len());
    let replay = grid.run_with(&Runner::with_threads(2)).unwrap();
    assert_eq!(
        rows, replay,
        "replaying the same grid must be deterministic"
    );
}

#[test]
fn scenario_runs_are_deterministic_in_the_seed() {
    let scenario = EmulationScenario::new(bursty_attacker_config());
    let first = scenario.run(42).unwrap();
    let second = scenario.run(42).unwrap();
    assert_eq!(first, second);
    let other_seed = scenario.run(43).unwrap();
    assert_ne!(
        first, other_seed,
        "different seeds must explore different trajectories"
    );
}

/// The paper's four strategies at `N_1 = 6`, `Δ_R = 15` and the two
/// workloads beyond the paper's grid, all with a 300-step horizon.
fn emulation_scenarios() -> Vec<EmulationScenario> {
    let paper = EvaluationGrid {
        initial_nodes: vec![6],
        delta_r: vec![Some(15)],
        horizon: 300,
        ..EvaluationGrid::default()
    };
    let mut cells = paper.cells();
    cells.push(EmulationScenario::new(bursty_attacker_config()));
    cells.push(EmulationScenario::new(heterogeneous_nodes_config()));
    cells
}

/// Every fleet and single-group fault-injection configuration the crates
/// ship: three chaos mixes, four fleets, the 30 adversary cells, the
/// controlled loop's simnet twin and the autotuned load swing.
fn simnet_scenarios() -> Vec<ShardedSimnetScenario> {
    let chaos = |intensity| ScheduleConfig {
        intensity,
        ..ScheduleConfig::default()
    };
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
    let mut scenarios = vec![
        ShardedSimnetScenario::single_group("simnet/chaos-light", chaos(0.2)),
        ShardedSimnetScenario::single_group("simnet/chaos-heavy", chaos(0.8)),
        ShardedSimnetScenario::single_group("simnet/partition-churn", partition_churn),
        ShardedSimnetScenario::new("sharded/chaos-2", ShardedScheduleConfig::default()),
        ShardedSimnetScenario::new("sharded/chaos-4", sharded_chaos_4_config()),
        ShardedSimnetScenario::new("sharded/multiput", sharded_multiput_config()),
        ShardedSimnetScenario::new(
            "sharded/fleet-controlled",
            sharded_fleet_controlled_config(),
        ),
    ];
    for (attacker, condition) in adversary_matrix() {
        let cell = format!("{}/{}", attacker.name(), condition.name());
        scenarios.push(ShardedSimnetScenario::single_group(
            format!("adversary/{cell}"),
            adversary_config(attacker, condition),
        ));
        scenarios.push(ShardedSimnetScenario::new(
            format!("adversary/sharded/{cell}"),
            adversary_sharded_config(attacker, condition),
        ));
    }
    scenarios.push(ShardedSimnetScenario::single_group(
        "controlled/sim-intrusion-burst",
        sim_intrusion_burst_config(),
    ));
    scenarios.push(ShardedSimnetScenario::new(
        "load-swing",
        load_swing_config(),
    ));
    scenarios
}

/// Runs every cell on `seeds` serially and on three workers; each cell's
/// outputs must be equal. Returns the number of cells.
fn assert_replays_across_execution_modes<S>(cells: &[S], seeds: &[u64]) -> usize
where
    S: Scenario,
    S::Output: PartialEq + std::fmt::Debug,
{
    let serial = Runner::serial().run_cells(cells, seeds).unwrap();
    let parallel = Runner::with_threads(3).run_cells(cells, seeds).unwrap();
    for ((cell, serial), parallel) in cells.iter().zip(&serial).zip(&parallel) {
        assert_eq!(serial, parallel, "{}", cell.label());
    }
    cells.len()
}

#[test]
fn every_deterministic_scenario_replays_identically_across_execution_modes() {
    let seeds: Vec<u64> = (0..4).collect();
    let campaign = AttackerCampaignScenario::new(
        "simnet/attacker-campaign",
        ScheduleConfig {
            intensity: 0.3,
            ..ScheduleConfig::default()
        },
        0.2,
    );
    let cells = assert_replays_across_execution_modes(&emulation_scenarios(), &seeds)
        + assert_replays_across_execution_modes(&simnet_scenarios(), &seeds)
        + assert_replays_across_execution_modes(&[campaign], &seeds);
    assert_eq!(cells, 46);
}

#[test]
fn non_paper_scenarios_change_the_closed_loop_outcome() {
    // The paper's TOLERANCE cell: constant attack pressure, identical nodes.
    let paper = EmulationConfig {
        attack_profile: AttackProfile::Constant,
        parameter_jitter: 0.0,
        ..bursty_attacker_config()
    };
    let cells = [
        paper,
        bursty_attacker_config(),
        heterogeneous_nodes_config(),
    ]
    .map(EmulationScenario::new);
    let reports: Vec<Vec<MetricReport>> = Runner::parallel()
        .run_cells(&cells, &[0, 1])
        .unwrap()
        .iter()
        .map(|outcomes| outcomes.iter().map(|outcome| outcome.metrics).collect())
        .collect();

    // The novel workloads genuinely change the closed-loop dynamics.
    assert_ne!(reports[1], reports[0], "bursty vs constant pressure");
    assert_ne!(reports[2], reports[0], "heterogeneous vs identical nodes");
    for report in reports.iter().flatten() {
        assert!((0.0..=1.0).contains(&report.availability));
        assert!(report.time_to_recovery >= 0.0);
    }
}

/// Algorithm 1's objective written against the public rollout, without a
/// batch override: every evaluation on the calling thread, in job order.
struct SerialRollouts {
    problem: RecoveryProblem,
    delta_r: Option<u32>,
    episodes: usize,
    horizon: u32,
}

impl Objective for SerialRollouts {
    fn dimension(&self) -> usize {
        self.delta_r
            .map_or(1, |d| (d as usize).saturating_sub(1).max(1))
    }

    fn evaluate(&self, point: &[f64], seed: u64) -> f64 {
        let thresholds = point.iter().map(|p| p.clamp(0.0, 1.0)).collect();
        let strategy = ThresholdStrategy::new(thresholds, self.delta_r).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        self.problem
            .evaluate_strategy(&strategy, self.episodes, self.horizon, &mut rng)
    }
}

/// The optimizer `Alg1::solve` configures for `kind`.
fn alg1_optimizer(kind: OptimizerKind, config: &Alg1Config) -> Box<dyn Optimizer> {
    match kind {
        OptimizerKind::Cem => Box::new(CrossEntropyMethod::new(CemConfig {
            population: config.population,
            iterations: config.iterations,
            ..CemConfig::default()
        })),
        OptimizerKind::De => Box::new(DifferentialEvolution::new(DeConfig {
            population: config.population.max(4),
            generations: config.iterations,
            ..DeConfig::default()
        })),
        OptimizerKind::Bo => Box::new(BayesianOptimization::new(BoConfig {
            initial_points: 8,
            iterations: config.iterations,
            ..BoConfig::default()
        })),
        OptimizerKind::Spsa => Box::new(Spsa::new(SpsaConfig {
            iterations: config.iterations * config.population / 3,
            ..SpsaConfig::default()
        })),
    }
}

#[test]
fn alg1_on_the_worker_pool_equals_a_serial_objective_field_for_field() {
    let config = Alg1Config {
        evaluation_episodes: 10,
        horizon: 60,
        iterations: 6,
        population: 12,
        seed: 0,
    };
    let alg1 = Alg1::new(config.clone());
    for delta_r in [None, Some(5)] {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        let problem = RecoveryProblem::new(model, RecoveryConfig { eta: 2.0, delta_r }).unwrap();
        let serial = SerialRollouts {
            problem: problem.clone(),
            delta_r,
            episodes: config.evaluation_episodes,
            horizon: config.horizon,
        };
        for seed in [0u64, 7, 29] {
            for kind in [
                OptimizerKind::Cem,
                OptimizerKind::De,
                OptimizerKind::Bo,
                OptimizerKind::Spsa,
            ] {
                let case = format!("{} delta_r {delta_r:?} seed {seed}", kind.name());
                let outcome = alg1
                    .solve(&problem, kind, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                let expected = alg1_optimizer(kind, &config)
                    .minimize(&serial, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                let result = &outcome.optimization;
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&result.best_point),
                    bits(&expected.best_point),
                    "{case}"
                );
                assert_eq!(
                    result.best_value.to_bits(),
                    expected.best_value.to_bits(),
                    "{case}"
                );
                assert_eq!(result.evaluations, expected.evaluations, "{case}");
                let curve = |result: &tolerance::optim::optimizer::OptimizationResult| {
                    result
                        .history
                        .iter()
                        .map(|point| (point.evaluations, point.best_value.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(curve(result), curve(&expected), "{case}");
                assert_eq!(outcome.objective.to_bits(), expected.best_value.to_bits());
                assert_eq!(
                    outcome.strategy.thresholds(),
                    &expected.best_point[..],
                    "{case}"
                );
            }
        }
    }
}
