//! Helpers shared by the integration suites: where regression inputs are
//! read from (tracked, under `tests/fixtures/`), where run artifacts are
//! written to (untracked, under `target/`), the single-group smoke
//! configurations that both the smoke suite and the golden digests drive,
//! and the scalar Bellman step the node solver's backups are held to.

// Each suite uses its own subset.
#![allow(dead_code)]

use tolerance::core::simnet::{ScheduleConfig, ShardedCounterexample, ShardedScheduleConfig};
use tolerance::pomdp::{Pomdp, ValueFunction};

/// The pinned single-group counterexamples under
/// `tests/fixtures/counterexamples/` (one-shard fleet documents).
pub const ARCHIVED_COUNTEREXAMPLES: [&str; 4] = [
    "expected-double-commit.json",
    "expected-liveness-after-gst.json",
    "adversary-lying-donor-gst-seed19.json",
    "expected-evict-during-rebuild.json",
];

/// Reads and decodes one of the [`ARCHIVED_COUNTEREXAMPLES`].
pub fn archived_counterexample(name: &str) -> ShardedCounterexample {
    ShardedCounterexample::from_json(&read_fixture(&format!("counterexamples/{name}")))
        .unwrap_or_else(|e| panic!("decode {name}: {e}"))
}

/// Absolute path of a tracked regression input under `tests/fixtures/`.
pub fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).join(name)
}

/// Reads a tracked regression input.
pub fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Writes a counterexample document (the caller passes its `to_json()`)
/// where the CI jobs pick it up as an artifact.
pub fn publish_counterexample(name: &str, json: &str) {
    let dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/simnet-counterexamples"
    ));
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.json")), json);
    }
}

/// The single-group configurations of the smoke suite.
pub fn smoke_configs() -> Vec<(&'static str, ShardedScheduleConfig)> {
    smoke_bases()
        .into_iter()
        .map(|(name, base)| (name, ShardedScheduleConfig::single_group(base)))
        .collect()
}

fn smoke_bases() -> Vec<(&'static str, ScheduleConfig)> {
    vec![
        (
            "light",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.2,
                ..ScheduleConfig::default()
            },
        ),
        (
            "heavy",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.8,
                ..ScheduleConfig::default()
            },
        ),
        (
            "full-stack",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.5,
                system_controller: true,
                ..ScheduleConfig::default()
            },
        ),
        (
            // The data-plane configuration: leader batching plus an
            // aggressive checkpoint period, so recovery and view changes
            // run from *truncated* logs (state transfer from the stable
            // checkpoint, no re-execution of compacted requests) under the
            // same chaos schedules and oracles.
            "gc-batch",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.5,
                checkpoint_period: 8,
                batch_size: 4,
                ..ScheduleConfig::default()
            },
        ),
        (
            // The PR-6 pipelined data plane: a watermark window above 1
            // keeps several uncommitted sequences in flight, so view
            // changes, recoveries and state transfers triggered by the
            // chaos schedule must cope with multiple concurrently proposed
            // batches (and the aggressive checkpoint period keeps those
            // interacting with compaction).
            "pipelined",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.5,
                checkpoint_period: 8,
                batch_size: 4,
                pipeline_window: 4,
                ..ScheduleConfig::default()
            },
        ),
    ]
}

/// One step of the Bellman recursion on the scalar belief, independent of
/// the alpha vectors: `min_a [c_a(b) + γ Σ_o Pr(o | b, a) V(τ(b, a, o))]`,
/// with `V = 0` for the empty (terminal) value function.
pub fn bellman_step(model: &Pomdp, discount: f64, next: &ValueFunction, b: f64) -> f64 {
    (0..model.num_actions())
        .map(|action| {
            let immediate = (1.0 - b) * model.cost(0, action) + b * model.cost(1, action);
            let compromised = (1.0 - b) * model.transition_probability(0, action, 1)
                + b * model.transition_probability(1, action, 1);
            let continuation: f64 = (0..model.num_observations())
                .map(|observation| {
                    let joint = compromised * model.observation_probability(1, observation);
                    let p =
                        (1.0 - compromised) * model.observation_probability(0, observation) + joint;
                    if p > 0.0 && !next.is_empty() {
                        p * next.evaluate(joint / p)
                    } else {
                        0.0
                    }
                })
                .sum();
            immediate + discount * continuation
        })
        .fold(f64::INFINITY, f64::min)
}
