//! Acceptance tests of the deterministic fault-injection harness (simnet):
//! a bounded randomized-schedule suite over the full two-level stack, the
//! byte-identical-replay guarantee across thread counts, and the
//! double-commit-detection + shrinking pipeline.
//!
//! This suite doubles as the CI `simnet-smoke` job: any emitted
//! counterexample is written to `target/simnet-counterexamples/` and
//! uploaded as a workflow artifact.

mod common;

use common::{publish_counterexample, smoke_configs};
use std::collections::BTreeSet;
use tolerance::consensus::{AttackerKind, ByzantineMode};
use tolerance::core::controlplane::scenario::sim_intrusion_burst_config;
use tolerance::core::runtime::{Runner, Scenario};
use tolerance::core::simnet::{
    adversary_config, adversary_matrix, adversary_sharded_config, find_sharded_counterexample,
    run_sharded_schedule, FaultEvent, FaultKind, FaultSchedule, InvariantKind, NetworkCondition,
    ScheduleConfig, ScheduledFault, ShardedCounterexample, ShardedFaultSchedule,
    ShardedScheduleConfig, ShardedSimnetScenario,
};

/// The fixed seed set of the smoke suite (the CI job runs exactly this).
fn smoke_seeds() -> Vec<u64> {
    (0..18).collect()
}

#[test]
fn randomized_schedules_pass_all_invariant_oracles() {
    // ≥ 50 randomized schedules (3 configs × 18 seeds = 54) through the
    // full stack: MinBFT + node controllers (+ system controller in the
    // full-stack config), with agreement/validity/recovery-bound/
    // network-accounting checked after every step and liveness at settle.
    let mut kinds: BTreeSet<FaultKind> = BTreeSet::new();
    let mut runs = 0;
    for (name, config) in smoke_configs() {
        for seed in smoke_seeds() {
            let schedule = ShardedFaultSchedule::single_group(seed, &config);
            kinds.extend(schedule.shards[0].kinds());
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
            if let Some(violation) = &report.violation {
                // Shrink and publish before failing, so CI uploads the
                // replayable counterexample.
                if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                    publish_counterexample(
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
            assert!(report.outcome.availability > 0.0);
            runs += 1;
        }
    }
    assert!(runs >= 50, "the suite must cover at least 50 schedules");
    // Coverage: the generated schedules must exercise ≥ 6 distinct fault
    // kinds (partitions, storms, crashes, Byzantine flips, intrusions,
    // churn, client bursts, ...).
    assert!(
        kinds.len() >= 6,
        "only {} fault kinds covered: {kinds:?}",
        kinds.len()
    );
}

#[test]
fn identical_seed_is_byte_identical_across_thread_counts() {
    let scenario = ShardedSimnetScenario::single_group(
        "simnet/replay",
        ScheduleConfig {
            horizon: 30,
            intensity: 0.6,
            ..ScheduleConfig::default()
        },
    );
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
                "{workers} workers: traces must be byte-identical"
            );
        }
        assert_eq!(serial, parallel, "{workers} workers");
    }
}

#[test]
fn injected_double_commit_is_caught_shrunk_and_replayable() {
    // The deliberately injected implementation bug (test-only Byzantine
    // mode): a replica corrupts its execution while claiming to be correct.
    let config = ShardedScheduleConfig::single_group(ScheduleConfig {
        horizon: 16,
        intensity: 0.4,
        inject_double_commit_at: Some(5),
        ..ScheduleConfig::default()
    });
    let schedule = ShardedFaultSchedule::single_group(11, &config);
    let counterexample = find_sharded_counterexample(&schedule, &config)
        .expect("harness constructs")
        .expect("the injected double commit must be caught");
    assert_eq!(
        counterexample.violation.kind,
        InvariantKind::Agreement,
        "the agreement oracle must catch the conflicting commit"
    );
    // Greedy shrinking keeps the injection and drops chaff: the minimal
    // schedule is no larger than the original and still replays.
    let events = &counterexample.schedule.shards[0].events;
    assert!(events.len() <= schedule.shards[0].events.len());
    assert!(events
        .iter()
        .any(|e| e.event.kind() == FaultKind::InjectDoubleCommit));
    // One command to reproduce: JSON → ShardedCounterexample → replay.
    let json = counterexample.to_json().expect("serializes");
    publish_counterexample("expected-double-commit", &json);
    let restored = ShardedCounterexample::from_json(&json).expect("parses back");
    assert_eq!(restored, counterexample);
    let replayed = restored
        .replay()
        .expect("replay constructs")
        .expect("replay violates again");
    assert_eq!(replayed.kind, InvariantKind::Agreement);
}

#[test]
fn controlled_intrusion_sweep_passes_all_oracles_across_300_runs() {
    // The acceptance sweep of the closed-loop control plane: the same
    // ControlPlane::tick that steers the live threaded service drives the
    // simulated cluster here, under intrusion-heavy chaos schedules, with
    // agreement/validity/recovery-bound/network-accounting checked after
    // every step and liveness at settle — 300 seeds.
    let scenario = ShardedSimnetScenario::single_group(
        "controlled/sim-intrusion-burst",
        sim_intrusion_burst_config(),
    );
    let seeds: Vec<u64> = (0..300).collect();
    let reports = Runner::parallel()
        .run_seeds(&scenario, &seeds)
        .expect("all 300 controlled runs must pass the oracle suite");
    assert_eq!(reports.len(), 300);
    let recoveries: u64 = reports.iter().map(|r| r.outcome.recoveries).sum();
    let completed: u64 = reports.iter().map(|r| r.outcome.completed).sum();
    assert!(
        recoveries > 0,
        "the node controllers must actuate recoveries somewhere in the sweep"
    );
    assert!(completed > 0);
    for report in &reports {
        assert!(report.violation.is_none());
        assert!(report.outcome.availability > 0.0);
    }
}

#[test]
fn pipelined_chaos_sweep_passes_all_oracles_across_300_runs() {
    // The PR-6 acceptance sweep: 300 randomized chaos schedules against
    // the watermark-pipelined data plane (pipeline_window > 1, leader
    // batching, aggressive compaction), with the full oracle suite —
    // agreement/validity/recovery-bound/network-accounting after every
    // step, liveness at settle. Multiple in-flight sequences must survive
    // partitions, crashes, Byzantine flips and membership churn.
    let scenario = ShardedSimnetScenario::single_group(
        "simnet/pipelined-chaos",
        ScheduleConfig {
            horizon: 40,
            intensity: 0.5,
            checkpoint_period: 8,
            batch_size: 4,
            pipeline_window: 4,
            ..ScheduleConfig::default()
        },
    );
    let seeds: Vec<u64> = (0..300).collect();
    let reports = Runner::parallel()
        .run_seeds(&scenario, &seeds)
        .expect("all 300 pipelined chaos runs must pass the oracle suite");
    assert_eq!(reports.len(), 300);
    let completed: u64 = reports.iter().map(|r| r.outcome.completed).sum();
    assert!(completed > 0);
    for report in &reports {
        assert!(report.violation.is_none());
        assert!(report.outcome.availability > 0.0);
    }
}

#[test]
fn pinned_reconfiguration_split_brain_counterexample_cannot_regress() {
    // The PR-3 600-run-sweep counterexample, pinned: with n = 6 a batch
    // stream commits at one commit quorum while the partitioned laggards
    // fall behind; an EVICT of a quorum member then shrinks n to 5, where
    // a laggard-heavy view-change ballot would no longer intersect the
    // old-configuration commit quorum — it would no-op fill the committed
    // sequences and re-assign their requests. The reconfiguration state
    // barrier (the execution frontier a `Reconfigure` carries) must force
    // the laggards through a state sync before they may form ballots.
    // (Re-staged since the
    // recovery-aware quorum pair of PR 7: the n = 6 commit quorum is now
    // 4, so the committing side holds {0,1,2,3} and the laggards {4,5} —
    // the EVICT-shrinks-the-intersection shape is the same.)
    use tolerance::consensus::minbft::Operation;
    use tolerance::consensus::{MinBftCluster, MinBftConfig, NetworkConfig};

    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 6,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        ..MinBftConfig::default()
    });
    let client = cluster.add_client();

    // Phase 1: everyone at a common frontier.
    for i in 0..4u64 {
        cluster.submit(client, Operation::Write(i + 1));
        cluster.run_until(cluster.now() + 1.0);
    }
    assert!(!cluster.has_outstanding_request(client));

    // Phase 2: partition {0,1,2,3} (leader side, the n = 6 commit quorum
    // of 4) from {4,5}; the quorum keeps committing, the laggards fall
    // behind.
    cluster.partition_network(&[0, 1, 2, 3], &[4, 5]);
    for i in 0..6u64 {
        cluster.submit(client, Operation::Write(100 + i));
        cluster.run_until(cluster.now() + 1.0);
    }
    let frontier = cluster.executed_len(0).unwrap();
    let laggard = cluster.executed_len(4).unwrap();
    assert!(
        frontier >= laggard + 4,
        "the partition must open a commit gap: {frontier} vs {laggard}"
    );

    // Phase 3: EVICT a member of the old commit quorum while the laggards
    // are still behind, then heal. Without the state barrier, a
    // laggard-heavy ballot in the shrunken configuration re-assigns
    // sequences.
    cluster.evict_replica(0);
    cluster.heal_network();
    for round in 0..12 {
        cluster.run_until(cluster.now() + 2.0);
        // The executor's straggler catch-up: recover replicas that are
        // awaiting state or lag the frontier.
        let members: Vec<_> = cluster.membership().to_vec();
        let longest = members
            .iter()
            .filter_map(|&id| cluster.executed_len(id))
            .max()
            .unwrap_or(0);
        for id in members {
            let lagging = cluster
                .executed_len(id)
                .map(|len| len + 2 < longest)
                .unwrap_or(false);
            if cluster.needs_state(id) || lagging {
                cluster.recover_replica(id);
            }
        }
        if !cluster.has_outstanding_request(client) && round > 2 {
            break;
        }
    }

    // Liveness: a probe request must complete in the new configuration.
    cluster.submit(client, Operation::Write(0xfeed));
    for _ in 0..10 {
        cluster.run_until(cluster.now() + 2.0);
        if !cluster.has_outstanding_request(client) {
            break;
        }
    }
    assert!(
        !cluster.has_outstanding_request(client),
        "the post-eviction configuration must serve requests"
    );

    // Agreement: no sequence number was ever committed with two digests
    // (the split brain re-assigned sequences 27-28 in the original trace),
    // and the healthy logs are prefix-consistent.
    let mut digests: std::collections::HashMap<u64, tolerance::consensus::crypto::Digest> =
        std::collections::HashMap::new();
    for record in cluster.commit_trace() {
        if let Some(previous) = digests.insert(record.sequence, record.digest) {
            assert_eq!(
                previous, record.digest,
                "sequence {} committed with two digests (split brain)",
                record.sequence
            );
        }
    }
    assert!(
        cluster.logs_are_consistent(),
        "logs diverged after the EVICT reconfiguration"
    );
}

#[test]
fn adversary_matrix_sweep_passes_all_oracles_across_300_runs() {
    // The PR-7 acceptance sweep: every attacker variant of the zoo × every
    // network condition (sync / partial synchrony with GST / storms), 20
    // seeds per cell = 300 single-group runs, under the full oracle suite —
    // including liveness-after-GST in the `gst` column. Any violation is
    // shrunk and published as a replayable counterexample before failing.
    let mut attackers_seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut runs = 0;
    for (attacker, condition) in adversary_matrix() {
        let config = ShardedScheduleConfig::single_group(adversary_config(attacker, condition));
        for seed in 0..20u64 {
            let schedule = ShardedFaultSchedule::single_group(seed, &config);
            for fault in &schedule.shards[0].events {
                if let FaultEvent::AdoptAttacker { attacker, .. } = fault.event {
                    attackers_seen.insert(attacker.name());
                }
            }
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
            if let Some(violation) = &report.violation {
                if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                    publish_counterexample(
                        &format!(
                            "adversary-{}-{}-seed{seed}",
                            attacker.name(),
                            condition.name()
                        ),
                        &counterexample.to_json().expect("serializable"),
                    );
                }
                panic!(
                    "adversary/{}/{} seed {seed}: {violation}",
                    attacker.name(),
                    condition.name()
                );
            }
            assert!(
                report.outcome.completed > 0,
                "adversary/{}/{} seed {seed}: no requests completed",
                attacker.name(),
                condition.name()
            );
            runs += 1;
        }
    }
    assert_eq!(runs, 300);
    // Coverage: over 60 seeds per variant the generator must have actually
    // adopted every attacker of the zoo at least once.
    assert_eq!(
        attackers_seen.len(),
        AttackerKind::ALL.len(),
        "zoo coverage gap: only {attackers_seen:?} adopted"
    );
}

#[test]
fn sharded_adversary_cells_pass_the_routing_and_atomicity_oracles() {
    // Every matrix cell once more against the two-shard fleet: the same
    // per-shard attacker chaos, with routed clients and cross-shard
    // MultiPuts, so attacker effects are also checked against the routing
    // and atomicity oracles (2 seeds per cell keeps the suite CI-sized; the
    // registered `adversary/sharded/*` scenarios cover more via sweeps).
    for (attacker, condition) in adversary_matrix() {
        let config = adversary_sharded_config(attacker, condition);
        for seed in 0..2u64 {
            let schedule = ShardedFaultSchedule::generate(seed, &config);
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
            if let Some(violation) = &report.violation {
                if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                    publish_counterexample(
                        &format!(
                            "adversary-sharded-{}-{}-seed{seed}",
                            attacker.name(),
                            condition.name()
                        ),
                        &counterexample.to_json().expect("serializable"),
                    );
                }
                panic!(
                    "adversary/sharded/{}/{} seed {seed}: {violation}",
                    attacker.name(),
                    condition.name()
                );
            }
            assert!(report.outcome.completed > 0);
        }
    }
}

#[test]
fn each_attacker_variant_survives_a_scripted_adoption() {
    // One scripted regression per zoo variant: the initial leader (replica
    // 0 — the most damaging seat for an equivocator or reply suppressor)
    // adopts the strategy at step 2 and is recovered at step 10. The run
    // must stay violation-free, keep serving requests, and record a
    // positive compromise-to-recovery delay (the variant's degraded IDS
    // signature made the compromise *observable*, not invisible).
    for &attacker in &AttackerKind::ALL {
        let config = ShardedScheduleConfig::single_group(ScheduleConfig {
            horizon: 20,
            ..ScheduleConfig::default()
        });
        let mut events = vec![
            ScheduledFault {
                step: 2,
                event: FaultEvent::AdoptAttacker { node: 0, attacker },
            },
            ScheduledFault {
                step: 10,
                event: FaultEvent::RecoverReplica { node: 0 },
            },
        ];
        if attacker == AttackerKind::LyingDonor {
            // Force a state transfer through the lying donor's window:
            // crash another replica while the donor is active, recover it
            // (the rebuild requests state) before the donor is cleaned up.
            events.push(ScheduledFault {
                step: 4,
                event: FaultEvent::CrashReplica { node: 3 },
            });
            events.push(ScheduledFault {
                step: 7,
                event: FaultEvent::RecoverReplica { node: 3 },
            });
        }
        let schedule = FaultSchedule::scripted(9, events).into();
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert!(
            report.violation.is_none(),
            "{}: {:?}",
            attacker.name(),
            report.violation
        );
        assert!(
            report.outcome.completed > 0,
            "{}: the cluster must keep serving requests",
            attacker.name()
        );
        assert!(
            report.outcome.mean_recovery_steps > 0.0,
            "{}: the adoption must be IDS-visible (compromise-to-recovery recorded)",
            attacker.name()
        );
    }
}

#[test]
fn byzantine_flip_perturbs_the_ids_observation_stream() {
    // The satellite fix: a ByzantineFlip used to mutate protocol behaviour
    // while leaving the observation stream pristine — an attack the node
    // controllers could never see. It now degrades the alert signature
    // (λ = BYZANTINE_FLIP_IDS_LAMBDA) and marks the compromise, so the
    // recovery at step 9 records a positive compromise-to-recovery delay.
    let config = ShardedScheduleConfig::single_group(ScheduleConfig {
        horizon: 20,
        ..ScheduleConfig::default()
    });
    let schedule = FaultSchedule::scripted(
        4,
        vec![
            ScheduledFault {
                step: 2,
                event: FaultEvent::ByzantineFlip {
                    node: 1,
                    mode: ByzantineMode::Arbitrary,
                },
            },
            ScheduledFault {
                step: 9,
                event: FaultEvent::RecoverReplica { node: 1 },
            },
        ],
    )
    .into();
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.outcome.mean_recovery_steps > 0.0,
        "the flip must reach the IDS observation stream"
    );
}

#[test]
fn pre_gst_crash_majority_triggers_the_liveness_after_gst_oracle() {
    // The negative test of the liveness-after-GST oracle: crash 3 of 5
    // replicas at step 1 with no closers (Δ_R pushed past the horizon and
    // no system controller, so nothing revives them), under a GST schedule.
    // With only 2 of 5 alive even the commit quorum (f + 1 = 3) is
    // unreachable, so requests submitted before GST can never commit —
    // the oracle must flag it, the shrinker must converge on a still-dead
    // kernel, and the counterexample must replay from JSON.
    let config = ShardedScheduleConfig::single_group(ScheduleConfig {
        horizon: 30,
        delta_r: 100,
        gst: Some(4),
        post_gst_liveness_steps: 8,
        ..ScheduleConfig::default()
    });
    let schedule = FaultSchedule::scripted(
        0,
        (1..=3)
            .map(|node| ScheduledFault {
                step: 1,
                event: FaultEvent::CrashReplica { node },
            })
            .collect(),
    )
    .into();
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    let violation = report
        .violation
        .expect("a dead commit quorum must trip the liveness-after-GST oracle");
    assert_eq!(violation.kind, InvariantKind::LivenessAfterGst);

    let counterexample = find_sharded_counterexample(&schedule, &config)
        .expect("harness constructs")
        .expect("the violation must survive shrinking");
    assert_eq!(
        counterexample.violation.kind,
        InvariantKind::LivenessAfterGst
    );
    // Drop-one shrinking lands on a two-crash kernel: three live replicas
    // are exactly the commit quorum (f + 1 = 3) but short of the
    // view-change quorum (n - f + recoveries = 4), so a single pre-GST
    // message loss on the critical path wedges the round permanently —
    // the post-GST network is reliable but MinBFT does not retransmit a
    // wedged ballot. Dropping either remaining crash leaves 4 alive and
    // the run commits again, so the kernel is minimal.
    let events = &counterexample.schedule.shards[0].events;
    assert_eq!(
        events.len(),
        2,
        "dropping either crash restores the view-change quorum"
    );
    assert!(events
        .iter()
        .all(|fault| matches!(fault.event, FaultEvent::CrashReplica { .. })));
    let json = counterexample.to_json().expect("serializes");
    publish_counterexample("expected-liveness-after-gst", &json);
    let restored = ShardedCounterexample::from_json(&json).expect("parses back");
    assert_eq!(restored, counterexample);
    let replayed = restored
        .replay()
        .expect("replay constructs")
        .expect("replay violates again");
    assert_eq!(replayed.kind, InvariantKind::LivenessAfterGst);
}

#[test]
fn adversary_runs_are_deterministic_in_the_seed() {
    // The replay guarantee extends to the new schedule machinery: a GST
    // configuration with attacker adoption produces byte-identical traces
    // across runs, and its schedule JSON round-trips stably.
    let config = ShardedScheduleConfig::single_group(adversary_config(
        AttackerKind::EquivocatingLeader,
        NetworkCondition::Gst,
    ));
    let schedule = ShardedFaultSchedule::single_group(7, &config);
    let a = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    let b = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert_eq!(
        serde_json::to_string(&a.trace).expect("serializable"),
        serde_json::to_string(&b.trace).expect("serializable")
    );
    assert_eq!(a, b);
    let json = serde_json::to_string(&schedule).expect("serializable");
    let value = serde_json::parse_value(&json).expect("well-formed");
    assert_eq!(json, serde_json::to_string(&value).expect("re-renders"));
}

#[test]
fn pinned_stale_certificate_refill_counterexample_cannot_regress() {
    // Found by the PR-7 sharded sweep (`sharded/multiput` seed 3, Routing
    // violation "executed twice fleet-wide"): a view change re-proposed a
    // *stale* prepared certificate for a request that a fresher certificate
    // had already re-assigned to a different sequence, so the request
    // executed under both sequences. Fixed by freshest-certificate-wins
    // request-level dedup in the view-change refill; this run replays the
    // exact generated schedule that caught it.
    let config = tolerance::core::simnet::sharded_multiput_config();
    let schedule = ShardedFaultSchedule::generate(3, &config);
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "the stale-certificate refill bug is back: {:?}",
        report.violation
    );
    assert!(report.outcome.completed > 0);
}

#[test]
fn pinned_amnesiac_recovery_counterexample_cannot_regress() {
    // Found by the PR-7 adversary matrix sweep (`adversary/lying-donor/gst`
    // seed 19, Agreement violation "committed different digests at log
    // position 9"): replica 3 was proactively recovered, its push from the
    // freshest donor was lost to the pre-GST network, and the first
    // pull response to arrive came from a *stale* donor whose certificate
    // set had a hole at an already-committed sequence. The re-imaged
    // committer then joined a minimal view-change ballot of laggards, none
    // of whom held the committed certificate, so the new leader no-op
    // filled the sequence and re-proposed its batch under a fresh sequence
    // number — a double execution that diverged the logs. Two rules pin
    // this shut: a recovering replica wipes only on a state transfer that
    // covers its own frontier, and keeps its prepared certificates when it
    // does; and the view-change quorum is n - f_k, with
    // f_k = hybrid_fault_threshold(n, PARALLEL_RECOVERIES), so every ballot
    // intersects the committers in k + 1 certificate holders. This replays
    // the exact generated schedule that caught it.
    let config = ShardedScheduleConfig::single_group(adversary_config(
        AttackerKind::LyingDonor,
        NetworkCondition::Gst,
    ));
    let schedule = ShardedFaultSchedule::single_group(19, &config);
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "the amnesiac-recovery bug is back: {:?}",
        report.violation
    );
    assert!(report.outcome.completed > 0);

    // The shrunk kernel of the same counterexample: no attacker event
    // survives shrinking — the bug is plain recovery-under-loss, which is
    // exactly why the matrix sweeps mix network conditions into every
    // attacker cell.
    let kernel = FaultSchedule::scripted(
        19,
        vec![
            ScheduledFault {
                step: 1,
                event: FaultEvent::ClientBurst { requests: 1 },
            },
            ScheduledFault {
                step: 8,
                event: FaultEvent::ClientBurst { requests: 1 },
            },
            ScheduledFault {
                step: 9,
                event: FaultEvent::RecoverReplica { node: 3 },
            },
            ScheduledFault {
                step: 9,
                event: FaultEvent::ClientBurst { requests: 3 },
            },
        ],
    )
    .into();
    let report = run_sharded_schedule(&kernel, &config).expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "the shrunk amnesiac-recovery kernel violates again: {:?}",
        report.violation
    );
}

#[test]
fn pinned_rebuilding_leader_amnesia_counterexample_cannot_regress() {
    // Found by PR 18, the first time the simulator recovered replicas with
    // the live `ControlMessage::Recover` (seeds 257 and 904 of this
    // configuration, Agreement; seed 904 shrinks to 8 events — ROADMAP
    // item 5 has the kernel): the leader kept proposing between `Recover`
    // and its wipe, one peer executed four sequences on those PREPAREs,
    // the wipe dropped the leader's own certificates for them, and the
    // node controllers' next BTR rebuilds erased the remaining copies
    // before a ballot of the forgetful re-assigned the sequences. Fixed in
    // the honest core: a replica with a rebuild pending neither proposes
    // nor votes COMMIT (`Replica::awaits_state`).
    let config = ShardedScheduleConfig::single_group(ScheduleConfig {
        horizon: 40,
        intensity: 0.5,
        enabled: ScheduleConfig::default()
            .enabled
            .into_iter()
            .filter(|kind| !matches!(kind, FaultKind::AddReplica | FaultKind::EvictReplica))
            .collect(),
        ..ScheduleConfig::default()
    });
    for seed in [257, 904] {
        let schedule = ShardedFaultSchedule::single_group(seed, &config);
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert!(
            report.violation.is_none(),
            "seed {seed}: the rebuilding-leader amnesia is back: {:?}",
            report.violation
        );
        assert!(report.outcome.completed > 0);
    }
}

#[test]
fn scenario_runs_surface_violations_as_invariant_errors() {
    let scenario = ShardedSimnetScenario::single_group(
        "simnet/injected",
        ScheduleConfig {
            horizon: 12,
            intensity: 0.0,
            inject_double_commit_at: Some(3),
            ..ScheduleConfig::default()
        },
    );
    let error = scenario
        .run(1)
        .expect_err("the injection must fail the run");
    let message = error.to_string();
    assert!(
        message.contains("invariant violation") && message.contains("agreement"),
        "unexpected error: {message}"
    );
}

#[test]
fn pinned_evict_during_rebuild_counterexample_cannot_regress() {
    // The agreement violation `main` carried from PR 22 to the
    // reconfiguration barrier: on seed 575 the `heavy` smoke configuration
    // holds a rebuild pending across an EVICT, the laggard voted in the new
    // epoch's first ballot, and replicas 5 and 1 committed different digests
    // at sequence 16. Fixed in the honest core: a `Reconfigure` carries the
    // old configuration's execution frontier, a replica below it pulls state
    // instead of voting, and it adopts only a transfer that reaches the
    // frontier. Both the generated schedule and the archived shrunk document
    // must replay clean.
    let (_, config) = smoke_configs()
        .into_iter()
        .find(|(name, _)| *name == "heavy")
        .expect("the smoke suite has a heavy configuration");
    let schedule = ShardedFaultSchedule::single_group(575, &config);
    let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "the evict-during-rebuild violation is back: {:?}",
        report.violation
    );
    let archived = common::archived_counterexample("expected-evict-during-rebuild.json");
    let replayed = archived.replay().expect("replay constructs");
    assert!(
        replayed.is_none(),
        "the archived evict-during-rebuild schedule violates again: {replayed:?}"
    );
}

#[test]
fn pinned_join_under_a_delay_storm_counterexample_cannot_regress() {
    // The kernel that broke agreement when JOIN first reached the replicas
    // as a `Reconfigure` without the execution frontier (`light` seed 4588,
    // shrunk to four events on the retired single-group driver): the loss
    // storm leaves laggards, the newcomer adopts a laggard's state under the
    // delay storm, joins a ballot of laggards and recovered replicas, and
    // that ballot gap-fills sequences 6-13, which had committed. On the one
    // driver both schedules replay clean even with the frontier forced to 0,
    // so this pin no longer guards the barrier;
    // `pinned_join_after_a_partitioned_laggard_counterexample_cannot_regress`
    // does.
    let (_, config) = smoke_configs()
        .into_iter()
        .find(|(name, _)| *name == "light")
        .expect("the smoke suite has a light configuration");
    let kernel = FaultSchedule::scripted(
        4588,
        vec![
            ScheduledFault {
                step: 4,
                event: FaultEvent::LossStorm {
                    loss_rate: 0.21641958989207932,
                },
            },
            ScheduledFault {
                step: 6,
                event: FaultEvent::RestoreNetwork,
            },
            ScheduledFault {
                step: 12,
                event: FaultEvent::DelayStorm {
                    latency: 0.029355124837039274,
                    jitter: 0.026599578647091844,
                },
            },
            ScheduledFault {
                step: 13,
                event: FaultEvent::AddReplica,
            },
        ],
    )
    .into();
    for schedule in [kernel, ShardedFaultSchedule::single_group(4588, &config)] {
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert!(
            report.violation.is_none(),
            "the join-under-a-delay-storm violation is back: {:?}",
            report.violation
        );
        assert!(report.outcome.completed > 0);
    }
}

#[test]
fn pinned_rebuild_amnesia_across_ticks_counterexample_cannot_regress() {
    // `heavy` seed 1587, shrunk to nine events with no JOIN and no EVICT:
    // replica 0 executes sequence 15 on the view-4 commit quorum {0, 2, 4};
    // the node controllers rebuild replica 2 and, one tick later, replica 4,
    // each from a donor that executed only 14; replica 0 crashes, and the
    // view-7 ballot {1, 2, 3, 4} holds no certificate for 15, so it
    // gap-fills the sequence with an empty batch and re-proposes the batch
    // at 17. The quorum pair counts the rebuilt per control tick; a
    // committed sequence outlived two. Fixed in the honest core: a rebuild
    // keeps the replica's own prepared certificates
    // (`checkpoint::reset_for_recovery`).
    let (_, config) = smoke_configs()
        .into_iter()
        .find(|(name, _)| *name == "heavy")
        .expect("the smoke suite has a heavy configuration");
    let at = |step, event| ScheduledFault { step, event };
    let loss_storm = |loss_rate| FaultEvent::LossStorm { loss_rate };
    let kernel = FaultSchedule::scripted(
        1587,
        vec![
            at(0, loss_storm(0.2971417587491775)),
            at(2, FaultEvent::RestoreNetwork),
            at(
                3,
                FaultEvent::IntrusionBurst {
                    node: 0,
                    mode: ByzantineMode::Silent,
                },
            ),
            at(7, FaultEvent::RecoverReplica { node: 0 }),
            at(7, loss_storm(0.2940143149824207)),
            at(9, FaultEvent::RestoreNetwork),
            at(9, FaultEvent::ClientBurst { requests: 3 }),
            at(10, loss_storm(0.23789338493267076)),
            at(12, FaultEvent::CrashReplica { node: 0 }),
        ],
    )
    .into();
    for schedule in [kernel, ShardedFaultSchedule::single_group(1587, &config)] {
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert!(
            report.violation.is_none(),
            "the rebuild amnesia across ticks is back: {:?}",
            report.violation
        );
        assert!(report.outcome.completed > 0);
    }
}

#[test]
fn pinned_join_after_a_partitioned_laggard_counterexample_cannot_regress() {
    // The frontier barrier's kernel on the one driver: `full-stack` seed
    // 2915, shrunk to twelve events, breaks agreement (step 20, log position
    // 18) when `Reconfigure` carries no execution frontier. Replicas 1 and 4
    // stop at sequence 17 (4 behind the partition), the JOIN at step 15
    // hands newcomer 6 a laggard's state, replica 0 crashes and is evicted,
    // and after the JOIN at step 19 the laggards 1, 4, 6 and 7 are four of
    // six members — a view-change quorum of their own, which re-assigns the
    // sequences replicas 2 and 3 committed past 17. The frontier marks every
    // replica below it as pulling, so none of them votes, and refuses a
    // laggard's transfer.
    let (_, config) = smoke_configs()
        .into_iter()
        .find(|(name, _)| *name == "full-stack")
        .expect("the smoke suite has a full-stack configuration");
    let at = |step, event| ScheduledFault { step, event };
    let delay_storm = |latency, jitter| FaultEvent::DelayStorm { latency, jitter };
    let kernel = FaultSchedule::scripted(
        2915,
        vec![
            at(1, FaultEvent::AddReplica),
            at(2, delay_storm(0.025173833910137618, 0.03906889132179922)),
            at(3, FaultEvent::ClientBurst { requests: 2 }),
            at(5, FaultEvent::EvictReplica { node: None }),
            at(8, delay_storm(0.05103073898679131, 0.0341732659600696)),
            at(9, FaultEvent::ClientBurst { requests: 2 }),
            at(12, FaultEvent::RestoreNetwork),
            at(
                13,
                FaultEvent::Partition {
                    group_a: vec![4],
                    group_b: vec![0, 3, 2, 1],
                },
            ),
            at(15, FaultEvent::AddReplica),
            at(16, FaultEvent::Heal),
            at(16, FaultEvent::CrashReplica { node: 0 }),
            at(19, FaultEvent::AddReplica),
        ],
    )
    .into();
    for schedule in [kernel, ShardedFaultSchedule::single_group(2915, &config)] {
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert!(
            report.violation.is_none(),
            "the join after a partitioned laggard violates again: {:?}",
            report.violation
        );
        assert!(report.outcome.completed > 0);
    }
}

/// The wide reconfiguration net: seeds 0..10000 of the five smoke
/// configurations plus `sim-intrusion-burst` (60,000 runs), and of the five
/// with the system controller off, so every JOIN and EVICT is a scheduled
/// fault (50,000 runs) — 110,000 single-group runs under the full oracle
/// suite, none of which may raise a violation. Too slow for the per-push
/// suite: it takes 242 s in release on a 2-thread Intel Xeon host,
/// one worker per thread; CI's `control-smoke` job runs it by name.
#[test]
#[ignore = "nightly-sized: 110,000 runs"]
fn wide_reconfiguration_sweep_passes_all_oracles_across_110000_runs() {
    let mut configs: Vec<(String, ShardedScheduleConfig)> = smoke_configs()
        .into_iter()
        .map(|(name, config)| (name.to_string(), config))
        .collect();
    configs.push((
        "sim-intrusion-burst".into(),
        ShardedScheduleConfig::single_group(sim_intrusion_burst_config()),
    ));
    for (name, mut config) in smoke_configs() {
        config.base.system_controller = false;
        configs.push((format!("{name}/no-system-controller"), config));
    }
    let runs: Vec<(usize, u64)> = (0..configs.len())
        .flat_map(|config| (0..10_000).map(move |seed| (config, seed)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut violations: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut found = Vec::new();
                    loop {
                        let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(config, seed)) = runs.get(index) else {
                            return found;
                        };
                        let (name, config) = &configs[config];
                        let schedule = ShardedFaultSchedule::single_group(seed, config);
                        let report =
                            run_sharded_schedule(&schedule, config).expect("harness constructs");
                        if let Some(violation) = report.violation {
                            found.push(format!("{name} seed {seed}: {violation}"));
                        }
                    }
                })
            })
            .collect();
        (handles.into_iter())
            .flat_map(|handle| handle.join().expect("sweep worker"))
            .collect()
    });
    violations.sort();
    assert!(
        violations.is_empty(),
        "{} violations in {} runs:\n{}",
        violations.len(),
        runs.len(),
        violations.join("\n")
    );
}
