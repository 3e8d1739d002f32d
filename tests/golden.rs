//! Cross-commit golden digests: the byte-identity licence for refactors.
//!
//! The determinism suites compare a run with itself; this suite compares
//! it with the commit that generated `tests/fixtures/report-digests.json`.
//! Every pinned single-group (one-shard fleet) and fleet configuration is
//! executed on seeds 0..4 and the `crypto::digest` of the *whole serialized
//! report* (outcome, trace, violation, `multi_puts`, `autotune`) must equal
//! the committed one, as must the replay result of every archived
//! counterexample. The `emulation/*` family pins the serialized
//! `EmulationOutcome` of every `EvaluationGrid::quick()` cell and of the two
//! non-paper emulation scenarios on seeds 0..2, which gives the closed-loop
//! emulation the same licence. A change that moves a digest changed simulated behaviour; if
//! that is intended, regenerate the fixture in the same commit and say why:
//!
//! ```text
//! cargo test --release --test golden -- --ignored regenerate
//! ```

mod common;

use tolerance::consensus::crypto::digest;
use tolerance::core::controlplane::scenario::sim_intrusion_burst_config;
use tolerance::core::runtime::Scenario;
use tolerance::core::simnet::{
    adversary_config, adversary_matrix, fleet_scale_config, load_swing_config,
    run_sharded_schedule, sharded_fleet_controlled_config, sharded_multiput_config,
    ShardedFaultSchedule, ShardedScheduleConfig,
};
use tolerance::emulation::scenarios::{bursty_attacker_config, heterogeneous_nodes_config};
use tolerance::emulation::{EmulationScenario, EvaluationGrid};

const SEEDS: std::ops::Range<u64> = 0..5;
const EMULATION_SEEDS: std::ops::Range<u64> = 0..3;
const EMULATION_FAMILY: &str = "emulation/";
const FIXTURE: &str = "report-digests.json";

fn single_group_configs() -> Vec<(String, ShardedScheduleConfig)> {
    let mut configs: Vec<(String, ShardedScheduleConfig)> = common::smoke_configs()
        .into_iter()
        .map(|(name, config)| (name.to_string(), config))
        .collect();
    configs.push((
        "sim-intrusion-burst".into(),
        ShardedScheduleConfig::single_group(sim_intrusion_burst_config()),
    ));
    for (attacker, condition) in adversary_matrix() {
        configs.push((
            format!("adversary-{}-{}", attacker.name(), condition.name()),
            ShardedScheduleConfig::single_group(adversary_config(attacker, condition)),
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

/// Every pinned simnet case as `(name, digest of the serialized result)`,
/// in fixture order.
fn simnet_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for (name, config) in single_group_configs() {
        for seed in SEEDS {
            let schedule = ShardedFaultSchedule::single_group(seed, &config);
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
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

/// Every pinned emulation run as `(name, digest of the serialized
/// outcome)`: the quick Table-7 grid, then the two non-paper scenarios that
/// leave the paper's setting (attack profile, parameter jitter).
fn emulation_digests() -> Vec<(String, u64)> {
    let mut cells: Vec<(String, EmulationScenario)> = EvaluationGrid::quick()
        .cells()
        .into_iter()
        .map(|cell| (cell.label(), cell))
        .collect();
    for (name, config) in [
        ("bursty-attacker", bursty_attacker_config()),
        ("heterogeneous-nodes", heterogeneous_nodes_config()),
    ] {
        cells.push((name.to_string(), EmulationScenario::new(config)));
    }
    let mut digests = Vec::new();
    for (name, cell) in cells {
        for seed in EMULATION_SEEDS {
            let outcome = cell.run(seed).expect("emulation constructs");
            let json = serde_json::to_string(&outcome).expect("serializable");
            digests.push((
                format!("{EMULATION_FAMILY}{name}/seed{seed}"),
                digest(json.as_bytes()).0,
            ));
        }
    }
    digests
}

/// One `"name": "digest"` line per case, so the fixture is valid JSON and
/// a mismatch is found by comparing lines.
fn render_lines(digests: &[(String, u64)]) -> Vec<String> {
    digests
        .iter()
        .map(|(name, value)| format!("  \"{name}\": \"{value:016x}\""))
        .collect()
}

fn render(digests: &[(String, u64)]) -> String {
    format!("{{\n{}\n}}\n", render_lines(digests).join(",\n"))
}

/// The committed case lines of one family (the emulation one, or every
/// other), without the separating commas.
fn committed_lines(emulation: bool) -> Vec<String> {
    let expected = common::read_fixture(FIXTURE);
    serde_json::parse_value(&expected).expect("the fixture is well-formed JSON");
    expected
        .lines()
        .filter(|line| line.trim_start().starts_with('"'))
        .filter(|line| line.contains(&format!("\"{EMULATION_FAMILY}")) == emulation)
        .map(|line| line.trim_end_matches(',').to_string())
        .collect()
}

fn assert_family_matches(committed: &[String], digests: &[(String, u64)]) {
    let actual = render_lines(digests);
    if committed == actual {
        return;
    }
    let mismatches: Vec<String> = actual
        .iter()
        .map(String::as_str)
        .zip(
            committed
                .iter()
                .map(String::as_str)
                .chain(std::iter::repeat("<missing>")),
        )
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
        "{} pinned report(s) moved (fixture: {} cases, now: {} cases):\n{}",
        mismatches.len(),
        committed.len(),
        actual.len(),
        mismatches.join("\n")
    );
}

#[test]
fn every_pinned_report_matches_its_committed_digest() {
    assert_family_matches(&committed_lines(false), &simnet_digests());
}

#[test]
fn every_emulation_outcome_matches_its_committed_digest() {
    assert_family_matches(&committed_lines(true), &emulation_digests());
}

#[test]
#[ignore = "rewrites tests/fixtures/report-digests.json from the current tree"]
fn regenerate_report_digests() {
    let mut digests = simnet_digests();
    digests.extend(emulation_digests());
    std::fs::write(common::fixture_path(FIXTURE), render(&digests))
        .expect("the fixture is writable");
}
