//! Acceptance tests of the sharded service plane: the 300-run
//! deterministic multi-shard chaos sweep under the full oracle suite
//! (including the routing oracle), byte-identical replay across thread
//! counts, the MultiPut atomicity regression/drain suite, and the live
//! sharded service smoke.
//!
//! This suite doubles as the CI `shard-smoke` job: any emitted
//! counterexample is written to `target/simnet-counterexamples/` and uploaded as
//! a workflow artifact.

mod common;

use tolerance::consensus::minbft::{MinBftConfig, Operation};
use tolerance::consensus::sharded::{shard_seed, ShardedSimConfig, ShardedSimService};
use tolerance::consensus::NetworkConfig;
use tolerance::core::runtime::Runner;
use tolerance::core::simnet::{
    find_sharded_counterexample, run_sharded_schedule, sharded_chaos_4_config,
    sharded_fleet_controlled_config, FaultEvent, FaultSchedule, ScheduledFault,
    ShardedFaultSchedule, ShardedScheduleConfig, ShardedSimnetScenario,
};

/// The three fleet configurations of the sweep — the *same* configuration
/// functions the crate ships (the default, `sharded_chaos_4_config`,
/// `sharded_fleet_controlled_config`), so this gate always covers what
/// their users run.
fn sweep_configs() -> Vec<(&'static str, ShardedScheduleConfig)> {
    vec![
        ("sharded-default", ShardedScheduleConfig::default()),
        ("sharded-4", sharded_chaos_4_config()),
        (
            "sharded-fleet-controlled",
            sharded_fleet_controlled_config(),
        ),
    ]
}

#[test]
fn sharded_chaos_sweep_passes_all_oracles_across_300_runs() {
    // The acceptance sweep of the sharded service plane: 3 fleet
    // configurations × 100 seeds, each run checked per step by the
    // per-shard agreement/validity/recovery-bound/network-accounting
    // oracles plus the fleet-level routing oracle, with MultiPut atomicity
    // and liveness verified at settle.
    let mut runs = 0;
    let mut multi_puts = 0u64;
    let mut committed_txs = 0u64;
    for (name, config) in sweep_configs() {
        for seed in 0..100u64 {
            let schedule = ShardedFaultSchedule::generate(seed, &config);
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
            if let Some(violation) = &report.violation {
                if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                    common::publish_counterexample(
                        &format!("{name}-seed{seed}"),
                        &counterexample.to_json().expect("serializable"),
                    );
                }
                panic!("{name} seed {seed}: {violation}");
            }
            assert!(
                report.outcome.completed > 0,
                "{name} seed {seed}: no requests completed"
            );
            multi_puts += report.multi_puts.0;
            committed_txs += report.multi_puts.1;
            runs += 1;
        }
    }
    assert_eq!(runs, 300);
    assert!(
        multi_puts > 0 && committed_txs > 0,
        "the sweep must exercise cross-shard MultiPuts ({multi_puts} launched, \
         {committed_txs} committed)"
    );
}

#[test]
fn sharded_replay_is_byte_identical_across_thread_counts() {
    let scenario = ShardedSimnetScenario::new("sharded/replay", ShardedScheduleConfig::default());
    let seeds: Vec<u64> = (0..6).collect();
    let serial = Runner::serial()
        .run_seeds(&scenario, &seeds)
        .expect("serial runs");
    for workers in [2, 4, 8] {
        let parallel = Runner::with_threads(workers)
            .run_seeds(&scenario, &seeds)
            .expect("parallel runs");
        for (a, b) in serial.iter().zip(&parallel) {
            let json_a = serde_json::to_string(&a.trace).expect("serializable");
            let json_b = serde_json::to_string(&b.trace).expect("serializable");
            assert_eq!(
                json_a, json_b,
                "{workers} workers: fleet traces must be byte-identical"
            );
        }
        assert_eq!(serial, parallel, "{workers} workers");
    }
}

fn quiet_fleet(shards: usize) -> ShardedSimService {
    ShardedSimService::new(&ShardedSimConfig {
        shards,
        cluster: MinBftConfig {
            initial_replicas: 4,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        },
    })
}

/// Two keys owned by different shards of a two-shard fleet.
fn cross_shard_keys(fleet: &ShardedSimService) -> (u32, u32) {
    let key_a = (0..).find(|&k| fleet.owner(k) == 0).unwrap();
    let key_b = (0..).find(|&k| fleet.owner(k) == 1).unwrap();
    (key_a, key_b)
}

#[test]
fn client_crash_during_reserve_round_leaves_nothing_observable() {
    // The client "crashes" after reserving only one of the two keys: no
    // commit is ever issued, so neither key may surface a value — the
    // staged write stays invisible forever.
    let mut fleet = quiet_fleet(2);
    let (key_a, key_b) = cross_shard_keys(&fleet);
    fleet
        .submit(Operation::TxReserve {
            tx: 5,
            key: key_a,
            value: 500,
        })
        .expect("free client");
    // key_b's reserve is never submitted (the crash point).
    fleet.run_until_quiet(20.0);
    assert_eq!(
        fleet.read_key(key_a),
        None,
        "half-reserved tx became visible"
    );
    assert_eq!(fleet.read_key(key_b), None);
    assert!(fleet.key_staged(5, key_a), "the reserve itself is durable");
    assert!(fleet.logs_are_consistent());
}

#[test]
fn client_crash_between_rounds_leaves_nothing_observable() {
    // All reserves are quorum-acked, the client crashes before any
    // commit: the transaction is still invisible on every key.
    let mut fleet = quiet_fleet(2);
    let (key_a, key_b) = cross_shard_keys(&fleet);
    for (key, value) in [(key_a, 600u64), (key_b, 601)] {
        fleet
            .submit(Operation::TxReserve { tx: 6, key, value })
            .expect("free client");
    }
    fleet.run_until_quiet(20.0);
    assert!(fleet.key_staged(6, key_a) && fleet.key_staged(6, key_b));
    assert_eq!(fleet.read_key(key_a), None);
    assert_eq!(fleet.read_key(key_b), None);
    assert!(fleet.logs_are_consistent());
}

#[test]
fn client_crash_mid_commit_round_is_repaired_by_roll_forward() {
    // The client commits key_a and crashes before key_b. A recovery
    // client re-drives the idempotent commit round: afterwards the write
    // is fully applied — and re-driving it again changes nothing.
    let mut fleet = quiet_fleet(2);
    let (key_a, key_b) = cross_shard_keys(&fleet);
    for (key, value) in [(key_a, 700u64), (key_b, 701)] {
        fleet
            .submit(Operation::TxReserve { tx: 7, key, value })
            .expect("free client");
    }
    fleet.run_until_quiet(20.0);
    fleet
        .submit(Operation::TxCommit { tx: 7, key: key_a })
        .expect("free client");
    fleet.run_until_quiet(40.0);
    // Crash point: key_a applied, key_b still staged.
    assert_eq!(fleet.read_key(key_a), Some(700));
    assert_eq!(fleet.read_key(key_b), None);
    // Roll-forward: any client may re-drive the full commit round.
    for key in [key_a, key_b] {
        fleet
            .submit(Operation::TxCommit { tx: 7, key })
            .expect("free client");
    }
    fleet.run_until_quiet(60.0);
    assert_eq!(fleet.read_key(key_a), Some(700));
    assert_eq!(fleet.read_key(key_b), Some(701));
    assert!(!fleet.key_staged(7, key_a) && !fleet.key_staged(7, key_b));
    // Idempotence: one more round is a no-op.
    for key in [key_a, key_b] {
        fleet
            .submit(Operation::TxCommit { tx: 7, key })
            .expect("free client");
    }
    fleet.run_until_quiet(80.0);
    assert_eq!(fleet.read_key(key_a), Some(700));
    assert_eq!(fleet.read_key(key_b), Some(701));
    assert!(fleet.logs_are_consistent());
}

#[test]
fn shard_leader_crash_mid_protocol_does_not_break_multi_put() {
    // The leader of the shard owning key_b crashes after the reserve
    // round; the shard's view change plus client retransmission ride it
    // out and the commit round still completes on both shards.
    let mut fleet = quiet_fleet(2);
    let (key_a, key_b) = cross_shard_keys(&fleet);
    for (key, value) in [(key_a, 800u64), (key_b, 801)] {
        fleet
            .submit(Operation::TxReserve { tx: 8, key, value })
            .expect("free client");
    }
    fleet.run_until_quiet(20.0);
    // Crash the view-0 leader (replica 0) of key_b's shard mid-protocol.
    let shard_b = fleet.owner(key_b);
    fleet.shard_mut(shard_b).crash_replica(0);
    for key in [key_a, key_b] {
        fleet
            .submit(Operation::TxCommit { tx: 8, key })
            .expect("free client");
    }
    // Drive past the request timeout so the survivors vote a view change.
    let now = fleet.shard(shard_b).now();
    fleet.run_until(now + 3.0);
    fleet.run_until_quiet(now + 60.0);
    assert_eq!(fleet.read_key(key_a), Some(800));
    assert_eq!(
        fleet.read_key(key_b),
        Some(801),
        "the commit must survive the leader crash via the view change"
    );
    assert!(fleet.logs_are_consistent());
}

#[test]
fn pinned_state_transfer_backlog_replay_counterexample_cannot_regress() {
    // The counterexample the routing oracle found on its very first sweep
    // (fleet seed 3, shrunk to two events by drop-one-event search): a
    // persistent loss storm makes one replica lag its shard, the client
    // moves on past the stalled request, and the laggard catches up by
    // *state transfer* — which rebuilds `seen_requests` only from the
    // per-client *last* reply. The already-executed older request still
    // parked in the laggard's `pending` backlog then survived dedup, and
    // when the JOIN's reconfiguration view change handed that replica
    // leadership, the backlog re-proposal executed the request a second
    // time at a fresh sequence number (`Put { key: 14 }` at sequences 7
    // and 12 in the original trace). The fix filters proposals by the
    // monotonic last-reply id and prunes the backlog at state-transfer
    // adoption; this pin replays the exact shrunk schedule.
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
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "the pinned double-execution counterexample regressed: {:?}",
        report.violation
    );
}

#[test]
fn fleet_controlled_sweep_recovers_across_shards() {
    // The end-to-end fleet-controller check: under intrusion-heavy chaos
    // in both shards, the global budget actuates recoveries somewhere in
    // every run and the oracle suite stays green (the per-tick k=1
    // priority/deferral behaviour is pinned by the controlplane::fleet
    // unit tests).
    let config = sweep_configs()
        .into_iter()
        .find(|(name, _)| *name == "sharded-fleet-controlled")
        .map(|(_, config)| config)
        .expect("config exists");
    let mut recoveries = 0u64;
    for seed in 0..20u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert!(
            report.violation.is_none(),
            "seed {seed}: {:?}",
            report.violation
        );
        recoveries += report.outcome.recoveries;
    }
    assert!(
        recoveries > 0,
        "the fleet control plane must actuate recoveries across the sweep"
    );
}
