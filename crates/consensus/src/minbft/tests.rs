use super::*;
use crate::crypto::Digest;
use crate::net::NetworkConfig;
use crate::workload::{Arrival, WorkloadConfig};
use crate::{NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cluster(n: usize) -> MinBftCluster {
    MinBftCluster::new(MinBftConfig {
        initial_replicas: n,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        request_timeout: 0.5,
        ..MinBftConfig::default()
    })
}

#[test]
fn config_validation_enforces_the_batch_fill_floor() {
    // batch_delay must cover batch_size × (processing + signature)
    // time, otherwise every batch flushes partial before it can fill.
    let good = MinBftConfig {
        batch_size: 16,
        batch_delay: 0.1,
        processing_time: 0.0008,
        signature_time: 0.002,
        ..MinBftConfig::default()
    };
    assert!(good.validate().is_ok());
    assert!((good.min_batch_delay() - 16.0 * 0.0028).abs() < 1e-12);

    let short = MinBftConfig {
        batch_delay: 0.005,
        ..good.clone()
    };
    assert!(matches!(
        short.validate(),
        Err(MinBftConfigError::BatchWindowTooShort { .. })
    ));
    let clamped = short.clamped();
    assert!(clamped.validate().is_ok());
    assert!((clamped.batch_delay - clamped.min_batch_delay()).abs() < 1e-12);

    // Unbatched pipelines have no floor.
    let unbatched = MinBftConfig {
        batch_size: 1,
        batch_delay: 0.0,
        ..MinBftConfig::default()
    };
    assert_eq!(unbatched.min_batch_delay(), 0.0);
    assert!(unbatched.validate().is_ok());

    let negative = MinBftConfig {
        request_timeout: -1.0,
        ..MinBftConfig::default()
    };
    assert!(matches!(
        negative.validate(),
        Err(MinBftConfigError::NegativeDuration { .. })
    ));
    assert!(negative.clamped().validate().is_ok());
    assert!(!negative.validate().unwrap_err().to_string().is_empty());
}

#[test]
fn normal_case_commit_and_reply() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(42));
    cluster.run_until_quiet(5.0);
    assert_eq!(cluster.completed_requests(client), 1);
    for &r in &[0, 1, 2, 3] {
        assert_eq!(cluster.replica_value(r), Some(42));
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn sequence_of_requests_executes_in_order_on_all_replicas() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    for value in [1u64, 2, 3, 4, 5] {
        cluster.submit(client, Operation::Write(value));
        cluster.run_until_quiet(60.0);
    }
    assert_eq!(cluster.completed_requests(client), 5);
    for &r in &[0, 1, 2, 3] {
        assert_eq!(cluster.replica_value(r), Some(5));
    }
    let logs = cluster.healthy_logs();
    assert!(logs.iter().all(|(_, _, log)| log.len() == 5));
    assert!(cluster.logs_are_consistent());
}

#[test]
fn key_value_operations_replicate_and_answer_reads() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Put { key: 7, value: 99 });
    cluster.run_until_quiet(10.0);
    assert_eq!(cluster.completed_requests(client), 1);
    for &r in &[0, 1, 2, 3] {
        assert_eq!(cluster.replica_kv(r, 7), Some(99));
    }
    cluster.submit(client, Operation::Get { key: 7 });
    cluster.run_until_quiet(20.0);
    assert_eq!(cluster.completed_requests(client), 2);
    // A read of an absent key answers 0 and stores nothing.
    cluster.submit(client, Operation::Get { key: 8 });
    cluster.run_until_quiet(30.0);
    assert_eq!(cluster.completed_requests(client), 3);
    assert_eq!(cluster.replica_kv(0, 8), None);
    assert!(cluster.logs_are_consistent());
}

#[test]
fn tolerates_f_silent_replicas() {
    // n = 4, k = 1 => f = 1.
    let mut cluster = cluster(4);
    cluster.set_byzantine(3, ByzantineMode::Silent);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(7));
    cluster.run_until_quiet(5.0);
    assert_eq!(cluster.completed_requests(client), 1);
    assert!(cluster.logs_are_consistent());
}

#[test]
fn tolerates_arbitrary_replies_from_compromised_replica() {
    let mut cluster = cluster(4);
    cluster.set_byzantine(2, ByzantineMode::Arbitrary);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(99));
    cluster.run_until_quiet(5.0);
    // The client still completes with the correct value because it needs
    // f + 1 = 2 matching replies and only one replica lies.
    assert_eq!(cluster.completed_requests(client), 1);
    for &r in &[0, 1, 3] {
        assert_eq!(cluster.replica_value(r), Some(99));
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn leader_crash_triggers_view_change_and_liveness_resumes() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    // Crash the leader of view 0 (replica 0) before any request.
    cluster.crash_replica(0);
    cluster.submit(client, Operation::Write(5));
    // Drive time forward past the request timeout so followers vote.
    cluster.run_until(3.0);
    cluster.run_until_quiet(30.0);
    assert!(
        cluster.view_changes() > 0,
        "a view change should have occurred"
    );
    assert_eq!(
        cluster.completed_requests(client),
        1,
        "request should complete after view change"
    );
    assert!(cluster.logs_are_consistent());
}

#[test]
fn recovery_restores_replica_state_via_state_transfer() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(11));
    cluster.run_until_quiet(5.0);
    // Compromise replica 1, then recover it.
    cluster.set_byzantine(1, ByzantineMode::Arbitrary);
    cluster.recover_replica(1);
    cluster.run_until_quiet(10.0);
    assert_eq!(
        cluster.replica_value(1),
        Some(11),
        "state transfer must restore the value"
    );
    // And the recovered replica participates again.
    cluster.submit(client, Operation::Write(12));
    cluster.run_until_quiet(20.0);
    assert_eq!(cluster.replica_value(1), Some(12));
    assert!(cluster.logs_are_consistent());
}

#[test]
fn recovery_keeps_the_usig_counter_and_touches_no_peer() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    for value in [1u64, 2] {
        cluster.submit(client, Operation::Write(value));
        cluster.run_until_quiet(30.0);
    }
    let counter = cluster.usig_last_counter(1).unwrap();
    assert!(counter > 0);
    let cursors = |cluster: &MinBftCluster| [0, 2, 3].map(|peer| cluster.ui_cursor(peer, 1));
    assert_eq!(cursors(&cluster), [counter; 3]);

    cluster.recover_replica(1);
    cluster.run_until_quiet(40.0);
    assert!(!cluster.replicas[&1].pending_rebuild && !cluster.needs_state(1));
    // The USIG is the tamperproof component: the wipe leaves its counter
    // where it was, and nobody resets what the peers saw of it.
    assert_eq!(cluster.usig_last_counter(1), Some(counter));
    assert_eq!(cursors(&cluster), [counter; 3]);
    // The stream continues where it stopped.
    cluster.submit(client, Operation::Write(3));
    cluster.run_until_quiet(50.0);
    assert_eq!(cluster.replica_value(1), Some(3));
    assert_eq!(cluster.usig_last_counter(1), Some(counter + 1));
    assert_eq!(cursors(&cluster), [counter + 1; 3]);
}

#[test]
fn join_and_evict_reconfigure_the_membership() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(3));
    cluster.run_until_quiet(5.0);

    let new_id = cluster.add_replica();
    cluster.run_until_quiet(10.0);
    assert_eq!(cluster.num_replicas(), 5);
    assert_eq!(
        cluster.replica_value(new_id),
        Some(3),
        "joining replica receives the state"
    );

    cluster.evict_replica(1);
    assert_eq!(cluster.num_replicas(), 4);
    assert!(!cluster.membership().contains(&1));

    // The reconfigured cluster still commits requests.
    cluster.submit(client, Operation::Write(4));
    cluster.run_until_quiet(20.0);
    assert_eq!(cluster.completed_requests(client), 2);
    assert!(cluster.logs_are_consistent());
}

/// Fig. 10's closed loop: `clients` register writers for `duration`
/// simulated seconds.
fn closed_loop(clients: usize, duration: f64) -> WorkloadConfig {
    WorkloadConfig {
        clients,
        arrival: Arrival::Closed,
        duration,
        key_space: 0,
        write_ratio: 1.0,
        ..WorkloadConfig::default()
    }
}

#[test]
fn throughput_decreases_with_more_replicas() {
    // Fig. 10 shape: more replicas => more messages per request at the
    // leader => lower saturation throughput.
    let mut small = cluster(3);
    let report_small = small.run_workload(&closed_loop(10, 20.0));
    let mut large = cluster(9);
    let report_large = large.run_workload(&closed_loop(10, 20.0));
    assert!(report_small.completed_requests > 0);
    assert!(report_large.completed_requests > 0);
    assert!(
        report_small.requests_per_second > report_large.requests_per_second,
        "throughput should drop with cluster size: {} vs {}",
        report_small.requests_per_second,
        report_large.requests_per_second
    );
    assert!(small.logs_are_consistent());
    assert!(large.logs_are_consistent());
}

#[test]
fn throughput_increases_with_more_clients_until_saturation() {
    let mut one = cluster(4);
    let single = one.run_workload(&closed_loop(1, 10.0));
    let mut many = cluster(4);
    let twenty = many.run_workload(&closed_loop(20, 10.0));
    assert!(
        twenty.requests_per_second > single.requests_per_second,
        "20 clients should push more load: {} vs {}",
        twenty.requests_per_second,
        single.requests_per_second
    );
    assert!(single.mean_latency > 0.0);
}

#[test]
fn batched_prepares_commit_whole_batches_per_sequence() {
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        batch_size: 8,
        batch_delay: 0.05,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        ..MinBftConfig::default()
    });
    let clients: Vec<NodeId> = (0..8).map(|_| cluster.add_client()).collect();
    for (i, &c) in clients.iter().enumerate() {
        cluster.submit(c, Operation::Write(i as u64 + 1));
    }
    cluster.run_until_quiet(10.0);
    for &c in &clients {
        assert_eq!(cluster.completed_requests(c), 1);
    }
    // 8 requests must fit into far fewer sequences than 8 (they arrive
    // within one batch delay of each other).
    let max_sequence = cluster
        .commit_trace()
        .iter()
        .map(|r| r.sequence)
        .max()
        .unwrap();
    assert!(
        max_sequence <= 2,
        "8 requests should commit in at most 2 batches, used {max_sequence}"
    );
    // All 8 executions appear in every replica's log.
    for &r in &[0, 1, 2, 3] {
        assert_eq!(cluster.executed_len(r), Some(8));
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn partial_batches_flush_after_the_batch_delay() {
    // A single request under a large batch size must not stall: the
    // delay timer flushes the partial batch.
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        batch_size: 64,
        batch_delay: 0.02,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        ..MinBftConfig::default()
    });
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(5));
    cluster.run_until_quiet(5.0);
    assert_eq!(cluster.completed_requests(client), 1);
    assert!(cluster.logs_are_consistent());
}

#[test]
fn checkpoints_compact_the_log_and_bound_retained_state() {
    // With checkpoint period P sequences of up to B requests each, a long
    // run's retained log must stay below 2·P·B requests and every
    // per-sequence structure below 2·P on every replica (the first
    // implementation never pruned `checkpoints` or the message log). Two
    // inputs: single requests at P = 10, and 64 closed loops at B = 64,
    // P = 50 behind a visible signing cost.
    let network = NetworkConfig {
        latency: 0.002,
        jitter: 0.001,
        loss_rate: 0.0,
    };
    let singles = MinBftConfig {
        initial_replicas: 4,
        checkpoint_period: 10,
        network,
        ..MinBftConfig::default()
    };
    let batched = MinBftConfig {
        initial_replicas: 4,
        checkpoint_period: 50,
        batch_size: 64,
        batch_delay: 0.1,
        signature_time: 0.002,
        request_timeout: 10.0,
        network,
        seed: 7,
        ..MinBftConfig::default()
    };
    let batched_load = WorkloadConfig {
        clients: 64,
        arrival: Arrival::Closed,
        duration: 4.0,
        key_space: 256,
        write_ratio: 0.5,
        seed: 11,
    };
    for (config, workload, min_executed) in [
        (singles, closed_loop(2, 30.0), 61),
        (batched, batched_load, 2_000),
    ] {
        let period = config.checkpoint_period as usize;
        let log_bound = 2 * period * config.batch_size;
        let mut cluster = MinBftCluster::new(config);
        cluster.run_workload(&workload);
        let total = cluster.executed_len(0).unwrap();
        assert!(total >= min_executed, "run too short to compact: {total}");
        for &r in &[0, 1, 2, 3] {
            let stats = cluster.retained_stats(r).unwrap();
            assert!(
                stats.log_start > 0,
                "replica {r} never compacted: {stats:?}"
            );
            assert!(
                stats.retained_log < log_bound,
                "replica {r} retained log {} >= {log_bound}",
                stats.retained_log
            );
            let bound = 2 * period;
            assert!(
                stats.prepared < bound,
                "replica {r} prepared {} >= {bound}",
                stats.prepared
            );
            assert!(
                stats.commit_votes < bound,
                "replica {r} commit votes {} >= {bound}",
                stats.commit_votes
            );
            assert!(
                stats.checkpoint_votes < bound,
                "replica {r} checkpoint ballots {} >= {bound}",
                stats.checkpoint_votes
            );
        }
        assert!(cluster.logs_are_consistent());
    }
}

#[test]
fn recovery_after_compaction_restores_state_without_reexecution() {
    // GC safety: a replica recovered after the cluster compacted its
    // logs adopts the stable-checkpoint state by transfer and never
    // re-executes compacted sequences.
    let period = 5u64;
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        checkpoint_period: period,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        ..MinBftConfig::default()
    });
    let client = cluster.add_client();
    for value in 1..=12u64 {
        cluster.submit(client, Operation::Write(value));
        cluster.run_until_quiet(120.0);
    }
    assert_eq!(cluster.completed_requests(client), 12);
    let stable = cluster.stable_checkpoint(1).unwrap();
    assert!(stable >= period, "no compaction happened: {stable}");

    let trace_before = cluster.commit_trace().len();
    cluster.recover_replica(1);
    cluster.run_until_quiet(180.0);
    assert!(!cluster.needs_state(1), "state transfer must land");
    assert_eq!(cluster.replica_value(1), Some(12));
    assert!(
        cluster.executed_log_start(1).unwrap() > 0,
        "the recovered replica must adopt the compacted log shape"
    );
    // Nothing at or below the stable checkpoint was re-executed by the
    // recovered instance.
    for record in &cluster.commit_trace()[trace_before..] {
        if record.replica == 1 {
            assert!(
                record.sequence > stable,
                "replica 1 re-executed compacted sequence {}",
                record.sequence
            );
        }
    }
    // And the service keeps running through the recovered replica.
    cluster.submit(client, Operation::Write(13));
    cluster.run_until_quiet(240.0);
    assert_eq!(cluster.completed_requests(client), 13);
    assert!(cluster.logs_are_consistent());
}

#[test]
fn view_change_with_truncated_logs_preserves_liveness_and_agreement() {
    // GC safety under leader failure: after compaction, crash the leader
    // — the view change must succeed from retained certificates alone.
    let period = 5u64;
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        checkpoint_period: period,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        request_timeout: 0.5,
        ..MinBftConfig::default()
    });
    let client = cluster.add_client();
    for value in 1..=11u64 {
        cluster.submit(client, Operation::Write(value));
        cluster.run_until_quiet(120.0);
    }
    assert!(cluster.stable_checkpoint(0).unwrap() >= period);

    cluster.submit(client, Operation::Write(12));
    cluster.run_until(cluster.now() + 0.001);
    cluster.crash_replica(0);
    cluster.run_until(cluster.now() + 3.0);
    cluster.run_until_quiet(240.0);
    assert!(cluster.view_changes() > 0, "followers must vote a new view");
    assert_eq!(
        cluster.completed_requests(client),
        12,
        "the mid-flight request must complete under the new leader"
    );
    for &r in &[1, 2, 3] {
        assert_eq!(cluster.replica_value(r), Some(12));
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn leader_crash_mid_request_completes_after_view_change() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    // First request commits normally so every replica has state.
    cluster.submit(client, Operation::Write(1));
    cluster.run_until_quiet(5.0);
    assert_eq!(cluster.completed_requests(client), 1);

    // Second request: crash the leader *mid-request* — the request is in
    // flight (broadcast by the client) but not yet proposed, so the
    // followers must detect the stall and vote a view change.
    cluster.submit(client, Operation::Write(2));
    cluster.run_until(cluster.now() + 0.001); // below the link latency
    cluster.crash_replica(0);
    cluster.run_until(cluster.now() + 3.0);
    cluster.run_until_quiet(60.0);

    assert!(cluster.view_changes() > 0, "followers must vote a new view");
    assert_eq!(
        cluster.completed_requests(client),
        2,
        "the mid-flight request must complete under the new leader"
    );
    for &r in &[1, 2, 3] {
        assert_eq!(cluster.replica_value(r), Some(2));
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn recovered_ex_leader_rejoins_without_double_committing() {
    // Regression: a recovered replica that wiped its log *before* holding
    // a replacement restarted with `next_sequence = 1`; if it was (still)
    // the leader and proposed in that window, it re-committed old sequence
    // numbers with new requests. The rebuild is two-phase, so the window
    // does not exist: until a frontier-covering transfer arrives the
    // replica serves from its old log.
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    for value in [1u64, 2, 3] {
        cluster.submit(client, Operation::Write(value));
        cluster.run_until_quiet(30.0);
    }
    assert_eq!(cluster.completed_requests(client), 3);

    // Recover the view-0 leader, but partition it first so no state
    // transfer can reach it: phase one only.
    cluster.partition_network(&[0], &[1, 2, 3]);
    cluster.recover_replica(0);
    cluster.run_until_quiet(5.0);
    assert!(
        cluster.replicas[&0].pending_rebuild,
        "state transfer must not get through"
    );
    assert!(
        !cluster.needs_state(0),
        "nothing is wiped without a transfer"
    );
    assert_eq!(cluster.executed_len(0), Some(3), "the old log is kept");
    cluster.heal_network();

    // The next re-announced pull is answered: the replica wipes and adopts
    // in one step. It is still the leader of the current view but barred
    // from leading it, so new requests need a view change.
    cluster.submit(client, Operation::Write(4));
    cluster.run_until(cluster.now() + 3.0);
    cluster.run_until_quiet(120.0);
    assert_eq!(
        cluster.completed_requests(client),
        4,
        "liveness must resume via a view change around the rebuilt leader"
    );
    assert!(!cluster.replicas[&0].pending_rebuild && !cluster.needs_state(0));
    assert_eq!(cluster.executed_len(0), Some(4));

    // No replica may have committed two different digests at the same
    // sequence number (the double-commit signature).
    let mut per_replica: std::collections::HashMap<(NodeId, u64), Digest> =
        std::collections::HashMap::new();
    for record in cluster.commit_trace() {
        if let Some(previous) = per_replica.insert((record.replica, record.sequence), record.digest)
        {
            assert_eq!(
                previous, record.digest,
                "replica {} double-committed sequence {}",
                record.replica, record.sequence
            );
        }
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn commit_trace_records_every_execution_and_flags_injected_corruption() {
    let mut cluster = cluster(4);
    let client = cluster.add_client();
    cluster.submit(client, Operation::Write(9));
    cluster.run_until_quiet(5.0);
    // All four replicas executed sequence 1 with the same digest.
    let records: Vec<_> = cluster
        .commit_trace()
        .iter()
        .filter(|r| r.sequence == 1)
        .collect();
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.digest == records[0].digest));

    // Inject the test-only double-commit bug into replica 2.
    cluster.inject_double_commit(2);
    cluster.submit(client, Operation::Write(10));
    cluster.run_until_quiet(10.0);
    let seq2: Vec<_> = cluster
        .commit_trace()
        .iter()
        .filter(|r| r.sequence == 2)
        .collect();
    let corrupted: Vec<_> = seq2.iter().filter(|r| r.replica == 2).collect();
    let honest: Vec<_> = seq2.iter().filter(|r| r.replica != 2).collect();
    assert!(!corrupted.is_empty() && !honest.is_empty());
    assert_ne!(
        corrupted[0].digest, honest[0].digest,
        "the injected bug must surface as a conflicting commit"
    );
    assert!(
        !cluster.logs_are_consistent(),
        "the safety checker must see the divergence"
    );
}

#[test]
fn fault_threshold_reflects_membership_size() {
    let cluster = cluster(6);
    // n = 6, k = 1 => f = 2.
    assert_eq!(cluster.fault_threshold(), 2);
    assert_eq!(cluster.num_replicas(), 6);
}

/// Runs one burst of single-operation clients to completion and returns
/// the simulated finish time.
fn pipelined_burst_finish_time(pipeline_window: usize, clients: usize) -> f64 {
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        pipeline_window,
        // Nonzero USIG signing cost, but latency-dominated: a serial
        // window pays sign + a full commit round trip per sequence,
        // while a wider window keeps W sequences in flight so the
        // signing and the round trips overlap. (When per-message
        // verification dominates instead, every replica's CPU is the
        // bottleneck and no window setting helps — that regime is the
        // reason the default stays unbounded.)
        signature_time: 0.0005,
        processing_time: 0.0001,
        network: NetworkConfig {
            latency: 0.01,
            jitter: 0.0,
            loss_rate: 0.0,
        },
        request_timeout: 5.0,
        ..MinBftConfig::default()
    });
    let client_ids: Vec<NodeId> = (0..clients).map(|_| cluster.add_client()).collect();
    for &c in &client_ids {
        cluster.submit(c, Operation::Write(7));
    }
    cluster.run_until_quiet(60.0);
    for &c in &client_ids {
        assert_eq!(cluster.completed_requests(c), 1, "burst must complete");
    }
    assert!(cluster.logs_are_consistent());
    assert_eq!(cluster.view_changes(), 0, "no spurious view changes");
    cluster.now()
}

#[test]
fn pipelined_window_beats_serial_at_nonzero_signature_time() {
    // The tentpole perf claim, checked deterministically in simulation:
    // with pipeline_window = 1 each sequence pays sign + 2 network hops
    // serially; with a wider window the leader keeps W sequences in
    // flight and the signing overlaps the round trips.
    let serial = pipelined_burst_finish_time(1, 12);
    let pipelined = pipelined_burst_finish_time(4, 12);
    assert!(
        pipelined * 1.5 <= serial,
        "window=4 must beat window=1 by >= 1.5x: serial {serial:.4}s, \
         pipelined {pipelined:.4}s"
    );
    // And the unbounded window is no slower than the serial one.
    let unbounded = pipelined_burst_finish_time(0, 12);
    assert!(
        unbounded <= serial,
        "window=0 (unbounded) must not be slower than serial"
    );
}

#[test]
fn view_change_recovers_multiple_uncommitted_in_flight_sequences() {
    // Pipelining changes the view-change obligation: the new leader may
    // inherit several uncommitted sequences at once (up to W), and must
    // re-propose every prepared certificate plus the parked backlog.
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        pipeline_window: 4,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.0,
            loss_rate: 0.0,
        },
        request_timeout: 0.5,
        ..MinBftConfig::default()
    });
    let clients: Vec<NodeId> = (0..6).map(|_| cluster.add_client()).collect();
    // Warm up: one committed sequence so every replica has state.
    cluster.submit(clients[0], Operation::Write(1));
    cluster.run_until_quiet(5.0);
    assert_eq!(cluster.completed_requests(clients[0]), 1);

    // Burst of 6 requests into a window of 4: the leader proposes 4
    // concurrently and parks 2, then crashes before anything commits.
    for &c in &clients {
        cluster.submit(c, Operation::Write(2));
    }
    // Past the client->replica hop (2 ms), inside the commit round.
    cluster.run_until(cluster.now() + 0.0035);
    cluster.crash_replica(0);
    cluster.run_until(cluster.now() + 3.0);
    cluster.run_until_quiet(60.0);

    assert!(cluster.view_changes() > 0, "followers must vote a new view");
    for &c in &clients {
        assert_eq!(
            cluster.completed_requests(c),
            if c == clients[0] { 2 } else { 1 },
            "every in-flight request must complete under the new leader"
        );
    }
    for &r in &[1, 2, 3] {
        assert_eq!(cluster.replica_value(r), Some(2));
    }
    assert!(cluster.logs_are_consistent());
}

#[test]
fn watermark_bounds_retained_state_with_a_lagging_replica() {
    // Satellite regression: with pipeline_window = W the retained
    // prepared/commit-vote state must stay O(W + checkpoint_period)
    // even when one replica lags (Silent: it neither executes nor
    // votes, so checkpoints stabilize on the f+1 live quorum and the
    // watermark — not the laggard — bounds the leader's in-flight
    // state.
    let period = 8u64;
    let window = 4usize;
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        checkpoint_period: period,
        pipeline_window: window,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        ..MinBftConfig::default()
    });
    cluster.set_byzantine(3, ByzantineMode::Silent);
    cluster.run_workload(&closed_loop(3, 30.0));
    let total = cluster.executed_len(0).unwrap();
    assert!(total > 6 * period, "run too short to compact: {total}");
    let bound = 2 * (period as usize + window);
    for &r in &[0, 1, 2] {
        let stats = cluster.retained_stats(r).unwrap();
        assert!(stats.log_start > 0, "replica {r} never compacted");
        assert!(
            stats.retained_log < bound,
            "replica {r} retained log {} >= {bound}",
            stats.retained_log
        );
        assert!(
            stats.prepared < bound,
            "replica {r} prepared {} >= {bound}",
            stats.prepared
        );
        assert!(
            stats.commit_votes < bound,
            "replica {r} commit votes {} >= {bound}",
            stats.commit_votes
        );
    }
    assert!(cluster.logs_are_consistent());
}

/// `run_until` without the timer floor: the timeout sweep after every
/// delivery and at every idle advance.
fn run_until_scanning(cluster: &mut MinBftCluster, deadline: SimTime) {
    loop {
        while let Some(delivery) = cluster.network.next_delivery_until(deadline) {
            cluster.dispatch(delivery.from, delivery.to, delivery.message, delivery.time);
            cluster.check_timeouts();
        }
        let Some(timer_at) = cluster.next_timer_deadline().filter(|&t| t <= deadline) else {
            break;
        };
        cluster.network.advance_to(timer_at);
        cluster.check_timeouts();
    }
    cluster.network.advance_to(deadline);
    cluster.check_timeouts();
}

#[test]
fn timer_floor_equals_a_scan_after_every_delivery() {
    let lossy = NetworkConfig {
        latency: 0.003,
        jitter: 0.002,
        loss_rate: 0.02,
    };
    let jittery = NetworkConfig {
        jitter: 0.3,
        ..lossy
    };
    let storm = NetworkConfig {
        loss_rate: 0.3,
        ..lossy
    };
    let (mut commits, mut view_changes) = (0, 0);
    for seed in 0..64u64 {
        let config = MinBftConfig {
            initial_replicas: 4 + (seed % 2) as usize,
            network: lossy,
            processing_time: 0.0005,
            signature_time: 0.0002,
            request_timeout: 0.2,
            checkpoint_period: 8,
            batch_size: 4,
            batch_delay: 0.01,
            pipeline_window: 2,
            seed,
        };
        let [mut floor, mut scan] = [0, 1].map(|_| MinBftCluster::new(config.clone()));
        for cluster in [&mut floor, &mut scan] {
            cluster.set_attacker(1, Some(AttackerKind::DelayedVotes));
            (0..4).for_each(|_| _ = cluster.add_client());
        }
        let mut script = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let members = floor.membership().to_vec();
            let replica = members[script.random_range(0..members.len())];
            let mode =
                [ByzantineMode::Silent, ByzantineMode::Arbitrary][script.random_range(0..2usize)];
            // A burst submits from every idle client; a quiet epoch changes
            // the membership instead, and the view change that follows is
            // where a delayed vote is held with no client timer armed below
            // its release — only the adversary's term of the floor covers it.
            let (burst, action) = (script.random_bool(0.6), script.random_range(0..12u32));
            for cluster in [&mut floor, &mut scan] {
                match action {
                    _ if !burst && members.len() < 6 => _ = cluster.add_replica(),
                    _ if !burst => cluster.evict_replica(replica),
                    0 => cluster.crash_replica(replica),
                    1 => cluster.restart_replica(replica),
                    2 => cluster.partition_network(&[replica], &members),
                    3 => cluster.heal_network(),
                    4 => cluster.set_byzantine(replica, mode),
                    5 => cluster.set_attacker(replica, Some(AttackerKind::DelayedVotes)),
                    6 => _ = cluster.recover_replica(replica),
                    7 => cluster.set_network_config(storm),
                    8 => cluster.set_network_config(jittery),
                    9 => cluster.set_network_config(lossy),
                    _ => {}
                }
                for client in (0..4).map(|index| CLIENT_ID_BASE + index) {
                    if burst && !cluster.has_outstanding_request(client) {
                        cluster.submit(client, Operation::Write(seed));
                    }
                }
            }
            let until = floor.now() + script.random_range(0.05..0.6);
            floor.run_until(until);
            run_until_scanning(&mut scan, until);
            assert_eq!(floor.commit_trace(), scan.commit_trace(), "seed {seed}");
            assert_eq!(floor.network_stats(), scan.network_stats(), "seed {seed}");
            assert_eq!(floor.view_changes(), scan.view_changes(), "seed {seed}");
            assert_eq!(
                floor.retransmission_stats(),
                scan.retransmission_stats(),
                "seed {seed}"
            );
            assert_eq!(floor.now(), scan.now(), "seed {seed}");
        }
        commits += floor.commit_trace().len();
        view_changes += floor.view_changes();
    }
    // The schedules reach the timers the floor could skip.
    assert!(commits > 0 && view_changes > 0, "{commits} {view_changes}");
}
