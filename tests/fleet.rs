//! Acceptance tests of the fleet harness's scheduler: the determinism
//! contract (byte-identical reports across 1/2/4/8 scheduler workers, on
//! the default and windowed configurations, the pinned fleet
//! counterexample and the archived single-group counterexamples),
//! plus the release-only fleet smoke — a 64-shard × 6-replica sweep under
//! the full oracle suite and a 256-shard completion check.
//!
//! The release-only tests double as the CI `fleet-smoke` job: any emitted
//! counterexample is written to `target/simnet-counterexamples/` and
//! uploaded as a workflow artifact.

mod common;

use tolerance::consensus::sharded::shard_seed;
use tolerance::core::simnet::oracle::{InvariantKind, Violation};
use tolerance::core::simnet::{
    find_sharded_counterexample, fleet_scale_config, load_swing_config, run_sharded_schedule,
    run_sharded_schedule_on, FaultEvent, FaultSchedule, ScheduledFault, ShardedCounterexample,
    ShardedFaultSchedule, ShardedRunReport, ShardedScheduleConfig,
};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// Runs the schedule at every worker count of the grid and asserts every
/// report (trace bytes included) is identical to the one-worker run.
fn assert_worker_invariant(
    name: &str,
    schedule: &ShardedFaultSchedule,
    config: &ShardedScheduleConfig,
) -> ShardedRunReport {
    let mut baseline: Option<(ShardedRunReport, String)> = None;
    for workers in WORKER_GRID {
        let report =
            run_sharded_schedule_on(schedule, config, workers).expect("harness constructs");
        let json = serde_json::to_string(&report.trace).expect("serializable");
        match &baseline {
            None => baseline = Some((report, json)),
            Some((first, first_json)) => {
                assert_eq!(
                    first_json, &json,
                    "{name}: the trace with {workers} workers diverged from one worker"
                );
                assert_eq!(first, &report, "{name}: {workers} workers");
            }
        }
    }
    baseline.expect("the grid is non-empty").0
}

#[test]
fn event_driven_replay_is_byte_identical_across_worker_grid() {
    // The every-step cadence: `fleet_tick_interval = 1`.
    let config = ShardedScheduleConfig::default();
    for seed in 0..4u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        assert_worker_invariant(&format!("default seed {seed}"), &schedule, &config);
    }
}

#[test]
fn windowed_fleet_scale_replay_is_byte_identical_across_worker_grid() {
    // The fleet/scale cadence: 4 and 16 shards free-running in four-step
    // windows under the open-loop trace workload (64 shards: the release
    // fleet smoke below).
    for (shards, seed) in [(16, 0u64), (16, 1), (4, 0)] {
        let config = fleet_scale_config(shards);
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let name = format!("scale-{shards} seed {seed}");
        let report = assert_worker_invariant(&name, &schedule, &config);
        assert!(report.violation.is_none(), "{name}: {:?}", report.violation);
        assert!(report.outcome.completed > 0, "{name}");
    }
}

#[test]
fn worker_grid_agrees_on_the_lifted_archived_counterexamples() {
    // The archived single-group counterexamples are one-shard fleet
    // documents. The worker grid must agree on the *whole report* —
    // violation, step and trace bytes — not merely both fail, whether the
    // archived schedule still violates or now replays green.
    for name in common::ARCHIVED_COUNTEREXAMPLES {
        let counterexample = common::archived_counterexample(name);
        assert_worker_invariant(name, &counterexample.schedule, &counterexample.config);
    }
}

#[test]
fn worker_grid_agrees_on_the_pinned_fleet_counterexample() {
    // The shrunk state-transfer/backlog counterexample pinned in
    // tests/sharded.rs (fleet seed 3): every worker count must replay the
    // exact scripted schedule to the same green report.
    let config = ShardedScheduleConfig::default();
    let schedule = ShardedFaultSchedule {
        seed: 3,
        shards: vec![
            FaultSchedule::scripted(
                shard_seed(3, 0),
                vec![
                    ScheduledFault {
                        step: 1,
                        event: FaultEvent::LossStorm {
                            loss_rate: 0.28939207345710954,
                        },
                    },
                    ScheduledFault {
                        step: 8,
                        event: FaultEvent::AddReplica,
                    },
                ],
            ),
            FaultSchedule::scripted(shard_seed(3, 1), Vec::new()),
        ],
    };
    let report = assert_worker_invariant("pinned fleet seed 3", &schedule, &config);
    assert!(
        report.violation.is_none(),
        "the pinned counterexample regressed: {:?}",
        report.violation
    );
}

#[test]
fn autotuned_load_swing_replay_is_byte_identical_across_worker_grid() {
    // The self-tuning data plane under the 10x diurnal swing: the AIMD
    // controller, admission decisions and concurrency caps all tick inside
    // the per-shard sub-executors, so the whole report — event trace AND
    // the per-window autotune decision trace — must be byte-identical
    // across 1/2/4/8 workers.
    let config = load_swing_config();
    for seed in 0..2u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let report =
            assert_worker_invariant(&format!("load-swing seed {seed}"), &schedule, &config);
        assert!(
            report.violation.is_none(),
            "load-swing seed {seed}: {:?}",
            report.violation
        );
        assert_eq!(report.autotune.len(), config.shards);
        assert!(
            report
                .autotune
                .iter()
                .all(|decisions| !decisions.is_empty()),
            "load-swing seed {seed}: a shard never ticked its controller"
        );
    }
}

#[test]
fn aimd_decisions_replay_exactly_from_a_counterexample_document() {
    // Controller determinism through the archive path: a load-swing run's
    // configuration round-trips through `ShardedCounterexample` JSON (the
    // manual decoder, not serde derive), and re-executing the decoded
    // document reproduces the original AIMD decision sequence exactly —
    // every step, batch size, delay, concurrency and admission verdict.
    let config = load_swing_config();
    let schedule = ShardedFaultSchedule::generate(5, &config);
    let original = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(original.violation.is_none(), "{:?}", original.violation);
    let document = ShardedCounterexample {
        seed: 5,
        config: config.clone(),
        schedule: schedule.clone(),
        violation: Violation {
            kind: InvariantKind::Liveness,
            step: 0,
            detail: "synthetic archive entry for decision replay".into(),
        },
    };
    let json = document.to_json().expect("serializable");
    let decoded = ShardedCounterexample::from_json(&json).expect("decodable");
    assert_eq!(decoded.config, config, "config must survive the round trip");
    let replayed =
        run_sharded_schedule(&decoded.schedule, &decoded.config).expect("harness constructs");
    assert_eq!(
        serde_json::to_string(&original.autotune).expect("serializable"),
        serde_json::to_string(&replayed.autotune).expect("serializable"),
        "AIMD decision trace diverged on replay from the archived document"
    );
    assert_eq!(original, replayed);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only fleet smoke (CI fleet-smoke job)"
)]
fn fleet_smoke_64_shards_passes_the_full_oracle_suite() {
    // The CI fleet smoke: a 64-shard × 6-replica sweep under
    // the full oracle suite (per-shard agreement/validity/recovery-bound/
    // network accounting, fleet routing, settle liveness and MultiPut
    // atomicity), each seed byte-identical across the worker grid.
    // Violations shrink and publish like the sharded sweep.
    let config = fleet_scale_config(64);
    for seed in 0..3u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let name = format!("fleet/scale-64 seed {seed}");
        let report = assert_worker_invariant(&name, &schedule, &config);
        if let Some(violation) = &report.violation {
            if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                common::publish_counterexample(
                    &format!("fleet-scale-64-seed{seed}"),
                    &counterexample.to_json().expect("serializable"),
                );
            }
            panic!("{name}: {violation}");
        }
        assert!(
            report.outcome.completed > 0,
            "{name}: no requests completed"
        );
        assert!(report.multi_puts.1 > 0, "{name}: no MultiPut committed");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only fleet smoke (CI fleet-smoke job)"
)]
fn fleet_scale_256_completes_under_the_full_oracle_suite() {
    let config = fleet_scale_config(256);
    let schedule = ShardedFaultSchedule::generate(0, &config);
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "fleet/scale-256: {:?}",
        report.violation
    );
    assert_eq!(report.trace.len(), 256);
    assert!(report.outcome.completed > 0);
}
