//! Workspace-level integration tests: they exercise the public API across
//! crate boundaries (core + pomdp + optim + emulation + consensus) the way a
//! downstream user of the `tolerance` facade would.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tolerance::core::baselines::BaselineKind;
use tolerance::core::node_model::NodeAction;
use tolerance::core::prelude::*;
use tolerance::emulation::{Emulation, EmulationConfig, StrategyKind};
use tolerance::pomdp::solvers::IncrementalPruning;
use tolerance::pomdp::structure::{check_threshold_structure, is_tp2};
use tolerance::pomdp::ValueFunction;

fn paper_problem(delta_r: Option<u32>) -> RecoveryProblem {
    let model =
        NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
    RecoveryProblem::new(model, RecoveryConfig { eta: 2.0, delta_r }).unwrap()
}

#[test]
fn end_to_end_alg1_threshold_beats_naive_strategies() {
    let problem = paper_problem(None);
    let config = Alg1Config {
        evaluation_episodes: 20,
        horizon: 80,
        iterations: 10,
        population: 20,
        seed: 3,
    };
    let learned = problem.solve_with_cem(&config).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let learned_cost = problem.evaluate_strategy(&learned, 50, 120, &mut rng);
    let never = ThresholdStrategy::stationary(1.0).unwrap();
    let never_cost = problem.evaluate_strategy(&never, 50, 120, &mut rng);
    let always = ThresholdStrategy::stationary(0.0).unwrap();
    let always_cost = problem.evaluate_strategy(&always, 50, 120, &mut rng);
    assert!(
        learned_cost < never_cost,
        "learned {learned_cost} vs never {never_cost}"
    );
    assert!(
        learned_cost < always_cost,
        "learned {learned_cost} vs always {always_cost}"
    );
}

#[test]
fn theorem1_structure_holds_for_the_exact_solution() {
    // Solve the recovery POMDP exactly and verify the greedy policy over the
    // belief grid is a threshold policy (Theorem 1): one switch, from Wait to
    // Recover, at horizons 5, 10 and 12.
    let problem = paper_problem(None);
    let pomdp = problem.model().to_pomdp(2.0, 0.95).unwrap();
    let solver = IncrementalPruning::default();
    let mut value_function = ValueFunction::default();
    for horizon in 1..=12 {
        value_function = solver.backup(&pomdp, &value_function).unwrap();
        if ![5, 10, 12].contains(&horizon) {
            continue;
        }
        let actions: Vec<usize> = (0..=100)
            .map(|i| value_function.greedy_action(i as f64 / 100.0).unwrap())
            .collect();
        let check = check_threshold_structure(&actions);
        assert!(
            check.is_threshold && check.switches == 1,
            "horizon {horizon}: {} switches in {actions:?}",
            check.switches
        );
        assert_eq!(actions[0], 0, "waiting must be optimal at belief 0");
    }
    // The observation model satisfies the TP-2 assumption the theorem needs.
    let observation = ObservationModel::paper_default();
    let matrix = vec![
        observation.healthy_distribution().to_vec(),
        observation.compromised_distribution().to_vec(),
    ];
    assert!(is_tp2(&matrix, 1e-9));
}

#[test]
fn every_backup_of_the_paper_node_pomdp_is_the_bellman_step() {
    // Uncapped and exact: the stages hold 2, 5, 13, 38, 115, 331, 963,
    // 2,774, 8,010 and 20,655 lines, and each one equals the scalar Bellman
    // step of the one before on a 1,001-point grid.
    let pomdp = paper_problem(None).model().to_pomdp(2.0, 0.95).unwrap();
    let solver = IncrementalPruning::default();
    let mut value = ValueFunction::default();
    for horizon in 1..=10 {
        let backup = solver.backup(&pomdp, &value).unwrap();
        for i in 0..=1000 {
            let b = i as f64 / 1000.0;
            let expected = common::bellman_step(&pomdp, 0.95, &value, b);
            assert!(
                (backup.evaluate(b) - expected).abs() <= 1e-12,
                "horizon {horizon}, b = {b}: backup {} vs Bellman step {expected}",
                backup.evaluate(b)
            );
        }
        value = backup;
    }
    assert_eq!(value.len(), 20_655);
}

#[test]
fn theorem2_structure_holds_for_algorithm2() {
    let problem = ReplicationProblem::new(ReplicationConfig {
        s_max: 13,
        fault_threshold: 2,
        availability_target: 0.9,
        node_survival_probability: 0.9,
    })
    .unwrap();
    let strategy = problem.solve().unwrap();
    assert!(strategy.has_threshold_structure(1e-6));
    assert!(strategy.availability() >= 0.9 - 1e-6);
    // The add probability is monotonically non-increasing in the number of
    // healthy nodes (the threshold-mixture shape of Fig. 13a).
    let probabilities = strategy.add_probabilities();
    for pair in probabilities.windows(2) {
        assert!(pair[1] <= pair[0] + 1e-9);
    }
}

#[test]
fn emulation_reproduces_the_papers_qualitative_ranking() {
    let mut results = Vec::new();
    for strategy in [
        StrategyKind::Tolerance,
        StrategyKind::Baseline(BaselineKind::Periodic),
        StrategyKind::Baseline(BaselineKind::NoRecovery),
    ] {
        let config = EmulationConfig {
            initial_nodes: 6,
            delta_r: Some(15),
            strategy,
            horizon: 300,
            seed: 7,
            ..EmulationConfig::default()
        };
        let outcome = Emulation::new(config).unwrap().run();
        results.push((strategy.name(), outcome.metrics));
    }
    let availability = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
            .availability
    };
    let ttr = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
            .time_to_recovery
    };
    assert!(availability("tolerance") > availability("no-recovery"));
    assert!(availability("periodic") > availability("no-recovery"));
    assert!(ttr("tolerance") < ttr("periodic"));
    assert!(ttr("periodic") < ttr("no-recovery"));
}

#[test]
fn controllers_drive_a_consensus_cluster_correctly() {
    // Full stack: emulation loop + MinBFT cluster, checking that the service
    // answers clients correctly while intrusions and recoveries happen.
    let mut emulation = Emulation::new(EmulationConfig {
        initial_nodes: 4,
        horizon: 30,
        strategy: StrategyKind::Tolerance,
        seed: 11,
        ..EmulationConfig::default()
    })
    .unwrap();
    let (outcome, success_rate) = emulation.run_with_consensus(30);
    assert!(success_rate > 0.8, "request success rate {success_rate}");
    assert!(outcome.metrics.availability > 0.7);
}

#[test]
fn node_controller_and_strategy_agree_on_decisions() {
    let model =
        NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
    let strategy = ThresholdStrategy::stationary(0.76).unwrap();
    let mut controller = NodeController::new(model.clone(), strategy.clone());
    // Feed the same observation sequence to the controller and to a manual
    // belief recursion + strategy: the decisions must match.
    let mut belief = model.parameters().p_attack;
    let mut previous = NodeAction::Wait;
    for alerts in [0u64, 1, 9, 9, 9, 9, 2, 0, 8, 9, 9] {
        let expected_belief = model.belief_update(belief, previous, alerts);
        let expected_action = strategy.decide(expected_belief, 0);
        let action = controller.observe_and_decide(alerts);
        assert_eq!(action, expected_action);
        belief = if expected_action == NodeAction::Recover {
            model.parameters().p_attack
        } else {
            expected_belief
        };
        previous = expected_action;
    }
}

/// The strategies the rollout pins evaluate: the four stationary thresholds
/// that span always- to never-recover, and one BTR period with a threshold
/// per position.
fn pinned_strategies() -> Vec<(RecoveryProblem, ThresholdStrategy)> {
    let mut cases: Vec<(RecoveryProblem, ThresholdStrategy)> = [0.0, 0.3, 0.7, 1.0]
        .into_iter()
        .map(|threshold| {
            (
                paper_problem(None),
                ThresholdStrategy::stationary(threshold).unwrap(),
            )
        })
        .collect();
    cases.push((
        paper_problem(Some(5)),
        ThresholdStrategy::new(vec![0.2, 0.4, 0.6, 0.8], Some(5)).unwrap(),
    ));
    cases
}

/// FNV-1a over the bits of every `(evaluations, best_value)` point of a
/// convergence history, in iteration order; the wall-clock column is skipped.
fn history_digest(history: &[tolerance::optim::optimizer::ConvergencePoint]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for point in history {
        for word in [point.evaluations as u64, point.best_value.to_bits()] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

// The rollout pins. Both tables were generated by commit 42d6fac, before
// Eq. 2 became a table and `simulate_policy` was rewritten over it; a change
// to the rollout that moves one bit of them changed Algorithm 1's objective.

#[test]
fn rollout_pins_evaluate_strategy_bits() {
    // `evaluate_strategy(strategy, 50, 100, StdRng(seed))` on seeds 0 and 7.
    let expected: [[f64; 2]; 5] = [
        [1.0, 1.0],
        [0.29031578947368425, 0.2864],
        [0.35495939849624064, 0.3678000000000001],
        [1.5142898177562691, 1.6089565217391313],
        [0.3922736842105262, 0.3974000000000001],
    ];
    for ((problem, strategy), expected) in pinned_strategies().into_iter().zip(expected) {
        for (seed, expected) in [0u64, 7].into_iter().zip(expected) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cost = problem.evaluate_strategy(&strategy, 50, 100, &mut rng);
            assert_eq!(
                cost.to_bits(),
                expected.to_bits(),
                "thresholds {:?} seed {seed}: {cost:?}, pinned {expected:?}",
                strategy.thresholds()
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight full Algorithm 1 solves; CI runs them in release by name"
)]
fn rollout_pins_alg1_objectives() {
    // The `paper-eval` solves: `Alg1Config::default()` seeded from the
    // benchmark seed, optimizer `index` on `StdRng(seed ^ (index + 1))`.
    // Per seed, for CEM, DE, BO, SPSA: the objective, the objective
    // evaluations, the best point, and the length and `history_digest` of
    // the convergence history. The best points and histories were generated
    // by commit 100694f, before the optimizers evaluated in batches.
    type Pin = (f64, usize, f64, usize, u64);
    let expected: [(u64, [Pin; 4]); 2] = [
        (
            0,
            [
                (0.2566, 1200, 0.25888547466885403, 30, 0x091959812b1d28f9),
                (
                    0.25022500000000003,
                    1240,
                    0.3033929831960239,
                    31,
                    0xd227232aaccc419c,
                ),
                (
                    0.2633586206896551,
                    38,
                    0.28796533147477965,
                    31,
                    0x6bd1e346e5d28cc0,
                ),
                (
                    0.2532000000000001,
                    1200,
                    0.27542908733470467,
                    400,
                    0x20d097288fc03c3a,
                ),
            ],
        ),
        (
            7,
            [
                (
                    0.25099999999999995,
                    1200,
                    0.2882467998749172,
                    30,
                    0xc751f52ce5ba6aba,
                ),
                (
                    0.25071111111111116,
                    1240,
                    0.3150294420585519,
                    31,
                    0x678afeb982f086ab,
                ),
                (
                    0.26397499999999996,
                    38,
                    0.2302352252540879,
                    31,
                    0x71dbafa9dc366573,
                ),
                (
                    0.25062015786278075,
                    1200,
                    0.3255403882145115,
                    400,
                    0x3b502e06335b0e28,
                ),
            ],
        ),
    ];
    let kinds = [
        OptimizerKind::Cem,
        OptimizerKind::De,
        OptimizerKind::Bo,
        OptimizerKind::Spsa,
    ];
    let problem = paper_problem(None);
    for (seed, expected) in expected {
        let alg1 = Alg1::new(Alg1Config {
            seed,
            ..Alg1Config::default()
        });
        for (index, (kind, pin)) in kinds.into_iter().zip(expected).enumerate() {
            let (objective, evaluations, best_point, history_len, digest) = pin;
            let mut rng = StdRng::seed_from_u64(seed ^ (index as u64 + 1));
            let outcome = alg1.solve(&problem, kind, &mut rng).unwrap();
            let result = &outcome.optimization;
            assert_eq!(
                (outcome.objective.to_bits(), result.evaluations),
                (objective.to_bits(), evaluations),
                "{} seed {seed}: {:?} in {} evaluations, pinned {objective:?} in {evaluations}",
                kind.name(),
                outcome.objective,
                result.evaluations
            );
            assert_eq!(
                result
                    .best_point
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                vec![best_point.to_bits()],
                "{} seed {seed}: best point {:?}, pinned [{best_point:?}]",
                kind.name(),
                result.best_point
            );
            assert_eq!(
                (result.history.len(), history_digest(&result.history)),
                (history_len, digest),
                "{} seed {seed}: convergence history moved",
                kind.name()
            );
        }
    }
}

// The Algorithm 2 and incremental-pruning pins: every `SystemController`'s
// `s_max` 13 strategy goes through `optim::simplex`, and incremental pruning
// sums concave envelopes by a merge. The incremental-pruning table moved
// once, when the solver stopped capping a stage at 32 lines: horizons 10 and
// 20 read threshold 0.29 and objective 0.28911578947368416 under the cap.
// The exact solve's threshold is 0.285 at all three horizons, so its
// objective is the horizon-5 row's (same threshold, same seed).

#[test]
fn ip_pins_thresholds_and_objectives() {
    // The `paper-eval` incremental-pruning solve (horizon 10) and one on
    // either side.
    let expected: [(usize, f64, f64); 3] = [
        (5, 0.285, 0.2879157894736842),
        (10, 0.285, 0.2879157894736842),
        (20, 0.285, 0.2879157894736842),
    ];
    let problem = paper_problem(None);
    let alg1 = Alg1::new(Alg1Config {
        seed: 0,
        ..Alg1Config::default()
    });
    for (horizon, threshold, objective) in expected {
        let outcome = alg1
            .solve_with_incremental_pruning(&problem, 0.95, Some(horizon))
            .unwrap_or_else(|error| panic!("horizon {horizon}: {error}"));
        assert_eq!(
            (outcome.strategy.thresholds(), outcome.objective.to_bits()),
            (&[threshold][..], objective.to_bits()),
            "horizon {horizon}: objective {:?}, pinned {objective:?}",
            outcome.objective
        );
    }
}

#[test]
fn alg2_pins_the_s_max_13_strategy() {
    // `ReplicationConfig::default()`: the LP every `SystemController` in the
    // golden digests solves at construction. The optimal vertex randomizes in
    // state 5 and visits states 0..=6; the pinned numbers are that vertex
    // solved in rational arithmetic over the `f64` transition rows (an 8 x 8
    // system). Commit 21fea10 pinned what its simplex returned for the same
    // vertex, 5.153260306739111 and 0.27033208191444585: 6.9e-13 and 1.1e-12
    // away from these. The simplex that scales rows by powers of two returns
    // them to within 1e-15.
    let problem = ReplicationProblem::new(ReplicationConfig::default()).unwrap();
    let strategy = problem.solve().unwrap();
    let close = |value: f64, pinned: f64| (value - pinned).abs() < 1e-12;
    assert!(
        close(strategy.expected_cost(), 5.153260306739797),
        "expected cost {:?}",
        strategy.expected_cost()
    );
    assert!(
        close(strategy.availability(), 0.9),
        "availability {:?}",
        strategy.availability()
    );
    let mut pinned = [0.0; 14];
    pinned[..5].fill(1.0);
    pinned[5] = 0.2703320819155486;
    let probabilities = strategy.add_probabilities();
    assert_eq!(probabilities.len(), pinned.len());
    for (state, (&value, pinned)) in probabilities.iter().zip(pinned).enumerate() {
        assert!(close(value, pinned), "π(add | {state}) = {value:?}");
    }
}
