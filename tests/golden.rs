//! Cross-commit golden digests: the byte-identity licence for refactors.
//!
//! The determinism suites compare a run with itself; this suite compares
//! it with the commit that generated `tests/fixtures/report-digests.json`.
//! Every pinned single-group and fleet configuration is executed on seeds
//! 0..4 and the `crypto::digest` of the *whole serialized report* (outcome,
//! trace, violation, `multi_puts`, `autotune`) must equal the committed
//! one, as must the replay result of every archived counterexample. A
//! change that moves a digest changed simulated behaviour; if that is
//! intended, regenerate the fixture in the same commit and say why:
//!
//! ```text
//! cargo test --release --test golden -- --ignored regenerate
//! ```

mod common;

use tolerance::consensus::crypto::digest;
use tolerance::core::controlplane::scenario::sim_intrusion_burst_config;
use tolerance::core::simnet::{
    adversary_config, adversary_matrix, fleet_scale_config, load_swing_config, run_schedule,
    run_sharded_schedule, sharded_fleet_controlled_config, sharded_multiput_config, FaultSchedule,
    ScheduleConfig, ShardedFaultSchedule, ShardedScheduleConfig,
};

const SEEDS: std::ops::Range<u64> = 0..5;
const FIXTURE: &str = "report-digests.json";

fn single_group_configs() -> Vec<(String, ScheduleConfig)> {
    let mut configs: Vec<(String, ScheduleConfig)> = common::smoke_configs()
        .into_iter()
        .map(|(name, config)| (name.to_string(), config))
        .collect();
    configs.push(("sim-intrusion-burst".into(), sim_intrusion_burst_config()));
    for (attacker, condition) in adversary_matrix() {
        configs.push((
            format!("adversary-{}-{}", attacker.name(), condition.name()),
            adversary_config(attacker, condition),
        ));
    }
    configs
}

fn fleet_configs() -> Vec<(&'static str, ShardedScheduleConfig)> {
    vec![
        ("default", ShardedScheduleConfig::default()),
        ("multiput", sharded_multiput_config()),
        ("fleet-controlled", sharded_fleet_controlled_config()),
        ("scale-16", fleet_scale_config(16)),
        ("load-swing", load_swing_config()),
    ]
}

/// Every pinned case as `(name, digest of the serialized result)`, in
/// fixture order.
fn current_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for (name, config) in single_group_configs() {
        for seed in SEEDS {
            let schedule = FaultSchedule::generate(seed, &config);
            let report = run_schedule(&schedule, &config).expect("harness constructs");
            let json = serde_json::to_string(&report).expect("serializable");
            digests.push((
                format!("single/{name}/seed{seed}"),
                digest(json.as_bytes()).0,
            ));
        }
    }
    for (name, config) in fleet_configs() {
        for seed in SEEDS {
            let schedule = ShardedFaultSchedule::generate(seed, &config);
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
            let json = serde_json::to_string(&report).expect("serializable");
            digests.push((
                format!("fleet/{name}/seed{seed}"),
                digest(json.as_bytes()).0,
            ));
        }
    }
    for name in common::ARCHIVED_COUNTEREXAMPLES {
        let replayed = common::archived_counterexample(name)
            .replay()
            .expect("replay constructs");
        let json = serde_json::to_string(&replayed).expect("serializable");
        digests.push((format!("counterexample/{name}"), digest(json.as_bytes()).0));
    }
    digests
}

/// One `"name": "digest"` line per case, so the fixture is valid JSON and
/// a mismatch is found by comparing lines.
fn render(digests: &[(String, u64)]) -> String {
    let lines: Vec<String> = digests
        .iter()
        .map(|(name, value)| format!("  \"{name}\": \"{value:016x}\""))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[test]
fn every_pinned_report_matches_its_committed_digest() {
    let expected = common::read_fixture(FIXTURE);
    serde_json::parse_value(&expected).expect("the fixture is well-formed JSON");
    let actual = render(&current_digests());
    if expected == actual {
        return;
    }
    let mismatches: Vec<String> = actual
        .lines()
        .zip(expected.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(now, committed)| now != committed)
        .map(|(now, committed)| {
            format!(
                "  now       {}\n  committed {}",
                now.trim(),
                committed.trim()
            )
        })
        .collect();
    panic!(
        "{} pinned report(s) moved (fixture: {} lines, now: {} lines):\n{}",
        mismatches.len(),
        expected.lines().count(),
        actual.lines().count(),
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/fixtures/report-digests.json from the current tree"]
fn regenerate_report_digests() {
    std::fs::write(common::fixture_path(FIXTURE), render(&current_digests()))
        .expect("the fixture is writable");
}
