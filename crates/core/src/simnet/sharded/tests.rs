use super::*;
use crate::simnet::{find_sharded_counterexample, ShardedCounterexample};

fn quick_config() -> ShardedScheduleConfig {
    ShardedScheduleConfig {
        shards: 2,
        base: ScheduleConfig {
            horizon: 12,
            intensity: 0.3,
            ..ScheduleConfig::default()
        },
        multi_put_interval: 4,
        multi_put_keys: 2,
        ..ShardedScheduleConfig::default()
    }
}

#[test]
fn quiet_fleet_passes_all_oracles_and_commits_multi_puts() {
    let config = ShardedScheduleConfig {
        base: ScheduleConfig {
            horizon: 14,
            intensity: 0.0,
            ..ScheduleConfig::default()
        },
        multi_put_interval: 4,
        ..ShardedScheduleConfig::default()
    };
    let schedule = ShardedFaultSchedule::generate(1, &config);
    assert_eq!(schedule.total_events(), 0);
    let report = run_sharded_schedule(&schedule, &config).unwrap();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.outcome.completed > 0);
    assert!(report.multi_puts.0 >= 2, "{:?}", report.multi_puts);
    assert_eq!(report.trace.len(), 2);
    // One record per step plus the settle record, per shard.
    assert!(report.trace.iter().all(|t| t.len() == 15));
}

#[test]
fn same_seed_is_byte_identical() {
    let config = quick_config();
    let schedule = ShardedFaultSchedule::generate(11, &config);
    let a = run_sharded_schedule(&schedule, &config).unwrap();
    let b = run_sharded_schedule(&schedule, &config).unwrap();
    let json_a = serde_json::to_string(&a.trace).unwrap();
    let json_b = serde_json::to_string(&b.trace).unwrap();
    assert_eq!(json_a, json_b);
    assert_eq!(a, b);
}

/// The inline (one-worker) run against the pooled runs: whole report
/// and trace bytes must be identical.
fn assert_worker_invariant(config: &ShardedScheduleConfig, seed: u64) {
    let schedule = ShardedFaultSchedule::generate(seed, config);
    let inline = run_sharded_schedule_on(&schedule, config, 1).unwrap();
    for workers in [2usize, 4, 8] {
        let pooled = run_sharded_schedule_on(&schedule, config, workers).unwrap();
        assert_eq!(
            serde_json::to_string(&inline.trace).unwrap(),
            serde_json::to_string(&pooled.trace).unwrap(),
            "seed {seed} workers {workers}"
        );
        assert_eq!(inline, pooled, "seed {seed} workers {workers}");
    }
}

#[test]
fn every_worker_count_produces_the_identical_report() {
    for seed in [7u64, 11] {
        assert_worker_invariant(&quick_config(), seed);
    }
}

#[test]
fn windowed_barriers_replay_identically_across_workers() {
    let config = ShardedScheduleConfig {
        shards: 3,
        base: ScheduleConfig {
            horizon: 12,
            intensity: 0.3,
            ..ScheduleConfig::default()
        },
        multi_put_interval: 6,
        fleet_tick_interval: 3,
        workload: Some(TraceWorkloadConfig::default()),
        ..ShardedScheduleConfig::default()
    };
    assert_worker_invariant(&config, 9);
}

#[test]
fn trace_workload_offers_open_loop_traffic() {
    let config = ShardedScheduleConfig {
        base: ScheduleConfig {
            horizon: 12,
            intensity: 0.0,
            ..ScheduleConfig::default()
        },
        multi_put_interval: 0,
        workload: Some(TraceWorkloadConfig::default()),
        ..ShardedScheduleConfig::default()
    };
    let schedule = ShardedFaultSchedule::generate(2, &config);
    let report = run_sharded_schedule(&schedule, &config).unwrap();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    // ~2 requests per shard per step — well above the closed-loop
    // driver's one per shard per step.
    assert!(
        report.outcome.issued > 2 * 12,
        "open-loop workload too light: {:?}",
        report.outcome
    );
    assert!(report.outcome.completed > 0);
}

#[test]
fn per_shard_schedules_come_from_split_streams() {
    let config = ShardedScheduleConfig {
        shards: 3,
        base: ScheduleConfig {
            intensity: 0.8,
            ..ScheduleConfig::default()
        },
        ..ShardedScheduleConfig::default()
    };
    let schedule = ShardedFaultSchedule::generate(5, &config);
    assert_eq!(schedule.shards.len(), 3);
    // Different shards draw different chaos from one fleet seed.
    assert_ne!(schedule.shards[0].events, schedule.shards[1].events);
    assert_eq!(schedule, ShardedFaultSchedule::generate(5, &config));
}

#[test]
fn injected_double_commit_in_one_shard_is_caught_shrunk_and_replayable() {
    let config = ShardedScheduleConfig {
        shards: 2,
        base: ScheduleConfig {
            horizon: 12,
            intensity: 0.2,
            inject_double_commit_at: Some(4),
            ..ScheduleConfig::default()
        },
        multi_put_interval: 0,
        ..ShardedScheduleConfig::default()
    };
    let schedule = ShardedFaultSchedule::generate(3, &config);
    let counterexample = find_sharded_counterexample(&schedule, &config)
        .unwrap()
        .expect("the injected bug must be caught");
    assert_eq!(counterexample.violation.kind, InvariantKind::Agreement);
    assert!(counterexample.violation.detail.starts_with("shard "));
    assert!(counterexample.schedule.total_events() <= schedule.total_events());
    let json = counterexample.to_json().unwrap();
    let back = ShardedCounterexample::from_json(&json).unwrap();
    assert_eq!(back, counterexample);
    let replayed = back.replay().unwrap().expect("replay must violate again");
    assert_eq!(replayed.kind, InvariantKind::Agreement);
}

#[test]
fn pre_engine_counterexample_documents_still_decode() {
    // A document emitted before `fleet_tick_interval`, `workload` and
    // `autotune` existed: all three decode to their defaults.
    let current = ShardedCounterexample {
        seed: 4,
        config: ShardedScheduleConfig {
            shards: 1,
            ..ShardedScheduleConfig::default()
        },
        schedule: ShardedFaultSchedule {
            seed: 4,
            shards: vec![FaultSchedule {
                seed: shard_seed(4, 0),
                events: Vec::new(),
            }],
        },
        violation: Violation {
            kind: InvariantKind::Agreement,
            step: 3,
            detail: "shard 0: synthetic".into(),
        },
    };
    let json = current.to_json().unwrap();
    let stripped: String = json
        .lines()
        .filter(|line| {
            !line.contains("\"fleet_tick_interval\"")
                && !line.contains("\"workload\"")
                && !line.contains("\"autotune\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
        // The dropped lines were the last fields of the config object.
        .replace("\"multi_put_keys\": 2,", "\"multi_put_keys\": 2");
    let back = ShardedCounterexample::from_json(&stripped).unwrap();
    assert_eq!(back.config.fleet_tick_interval, 1);
    assert_eq!(back.config.workload, None);
    assert_eq!(back.config.autotune, None);
    assert_eq!(back.schedule, current.schedule);
}

#[test]
fn autotuned_load_swing_passes_oracles_and_records_decisions() {
    let config = load_swing_config();
    let schedule = ShardedFaultSchedule::generate(3, &config);
    let report = run_sharded_schedule(&schedule, &config).unwrap();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.outcome.completed > 0);
    assert_eq!(report.autotune.len(), config.shards);
    // One decision per window per shard (horizon 24, window 2).
    for decisions in &report.autotune {
        assert_eq!(decisions.len(), 12, "{decisions:?}");
        for record in decisions {
            assert!(record.decision.batch_size >= 1);
            assert!(record.decision.concurrency >= 1);
            assert!(record.decision.batch_delay.is_finite());
        }
    }
    // AIMD reacted: some window actually moved a knob off its start.
    let initial = config.autotune.as_ref().unwrap().initial_batch;
    assert!(
        report
            .autotune
            .iter()
            .flatten()
            .any(|r| r.decision.batch_size != initial),
        "the controller never moved batch_size"
    );
}

#[test]
fn autotune_config_round_trips_through_counterexample_json() {
    let counterexample = ShardedCounterexample {
        seed: 8,
        config: load_swing_config(),
        schedule: ShardedFaultSchedule {
            seed: 8,
            shards: vec![
                FaultSchedule {
                    seed: shard_seed(8, 0),
                    events: Vec::new(),
                },
                FaultSchedule {
                    seed: shard_seed(8, 1),
                    events: Vec::new(),
                },
            ],
        },
        violation: Violation {
            kind: InvariantKind::Liveness,
            step: 7,
            detail: "synthetic".into(),
        },
    };
    let json = counterexample.to_json().unwrap();
    let back = ShardedCounterexample::from_json(&json).unwrap();
    assert_eq!(back, counterexample);
    assert_eq!(back.config.autotune, counterexample.config.autotune);
}

#[test]
fn fleet_scale_config_scales_the_shard_count() {
    assert_eq!(fleet_scale_config(64).shards, 64);
    assert_eq!(fleet_scale_config(64).base.initial_replicas, 6);
}
