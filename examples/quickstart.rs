//! Quickstart: compute the two optimal control strategies of TOLERANCE.
//!
//! 1. Solve the node-level intrusion-recovery problem (Problem 1) with
//!    Algorithm 1 and print the resulting belief threshold (Theorem 1).
//! 2. Solve the system-level replication problem (Problem 2) with
//!    Algorithm 2 and print the resulting add-probabilities (Theorem 2).
//!
//! Run with `cargo run --release --example quickstart`.

use tolerance::core::prelude::*;

fn main() -> tolerance::core::Result<()> {
    // ---- Local level: when should a node recover its replica? ----
    let parameters = NodeParameters::default(); // p_A = 0.1, p_C1 = 1e-5, ...
    let observations = ObservationModel::paper_default(); // BetaBin alert model
    let model = NodeModel::new(parameters, observations)?;
    let problem = RecoveryProblem::new(
        model,
        RecoveryConfig {
            eta: 2.0,
            delta_r: None,
        },
    )?;

    let config = Alg1Config {
        evaluation_episodes: 30,
        horizon: 100,
        iterations: 15,
        population: 30,
        seed: 1,
    };
    let strategy = problem.solve_with_cem(&config)?;
    println!(
        "node-level recovery threshold alpha* = {:.2}",
        strategy.threshold_at(0)
    );
    println!("  (recover the replica as soon as P[compromised] reaches this value)");

    // ---- Global level: when should the system add a node? ----
    let replication = ReplicationProblem::new(ReplicationConfig {
        s_max: 13,
        fault_threshold: 2,
        availability_target: 0.9,
        node_survival_probability: 0.95,
    })?;
    let replication_strategy = replication.solve()?;
    println!(
        "system-level strategy: expected cost {:.2} nodes, availability {:.3}",
        replication_strategy.expected_cost(),
        replication_strategy.availability()
    );
    for (healthy, probability) in replication_strategy.add_probabilities().iter().enumerate() {
        if *probability > 0.0 {
            println!("  pi(add | {healthy} healthy nodes) = {probability:.2}");
        }
    }
    Ok(())
}
