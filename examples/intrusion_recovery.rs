//! A node controller reacting to an emulated intrusion.
//!
//! The example replays the paper's local control loop: a replica (container 1
//! of Table 4, an FTP server with a weak password) is attacked; the Snort-like
//! IDS produces weighted alert counts; the node controller updates its
//! compromise belief (Eq. 4) and recovers the replica once the belief crosses
//! the threshold.
//!
//! Run with `cargo run --release --example intrusion_recovery`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tolerance::core::node_model::{NodeAction, NodeState};
use tolerance::core::prelude::*;
use tolerance::core::recovery::PAPER_RECOVERY_THRESHOLD;
use tolerance::emulation::{Attacker, ContainerCatalog, IdsModel};

fn main() -> tolerance::core::Result<()> {
    let catalog = ContainerCatalog::paper_catalog();
    let container = catalog.by_id(1).expect("container 1 exists");
    let ids = IdsModel::for_container(container);

    let model = NodeModel::new(NodeParameters::default(), ids.observation_model().clone())?;
    let controller_model = model.clone();
    let mut controller = NodeController::new(
        controller_model,
        ThresholdStrategy::stationary(PAPER_RECOVERY_THRESHOLD)?,
    );

    let mut attacker = Attacker::new(0.0); // the intrusion is scripted below
    let mut state = NodeState::Healthy;
    let mut rng = StdRng::seed_from_u64(42);

    println!("step | state        | alerts | belief | action");
    println!("-----+--------------+--------+--------+--------");
    for step in 0..40u64 {
        // Script: the attacker starts its playbook at step 10.
        if step == 10 {
            attacker = Attacker::new(1.0);
        }
        if state == NodeState::Healthy && attacker.step(container, step, &mut rng) {
            state = NodeState::Compromised;
        }
        let alerts = ids.sample_alerts(state, attacker.step_intensity(container), &mut rng);
        let action = controller.observe_and_decide(alerts);
        println!(
            "{step:4} | {:<12} | {alerts:6} | {:.3}  | {:?}",
            format!("{state:?}"),
            controller.belief(),
            action
        );
        if action == NodeAction::Recover {
            println!("     -> replica replaced with a fresh container; attacker evicted");
            state = NodeState::Healthy;
            attacker.reset();
        }
    }
    println!(
        "\nrecoveries: {} over {} steps (recovery frequency {:.2})",
        controller.recoveries(),
        controller.steps(),
        controller.recoveries() as f64 / controller.steps() as f64
    );
    Ok(())
}
