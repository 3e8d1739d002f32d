//! Acceptance tests of the self-tuning data plane's feedback loop across
//! both service planes:
//!
//! - the retry-storm regression — under 50% reply loss an unbudgeted
//!   closed-loop client amplifies its own offered load through
//!   retransmissions, while a [`RetryBudgetConfig`] keeps the replica-side
//!   request-reception rate inside the token envelope *and* still drains
//!   every request exactly once after the network heals;
//! - the live [`AutotuneLoop`] driving the threaded service plane end to
//!   end (controller thread → [`SharedTuning`] atomics → replica batching
//!   and client concurrency);
//! - the release-only 300-seed chaos sweep of the tuned
//!   `load_swing_config` fleet under the full fleet oracle suite
//!   (the CI `autotune-smoke` job; violations publish replayable
//!   counterexamples to `target/simnet-counterexamples/`).

mod common;

use std::collections::HashMap;

use tolerance::consensus::crypto::Digest;
use tolerance::consensus::minbft::Operation;
use tolerance::consensus::threaded::snapshots_consistent;
use tolerance::consensus::{
    ClientDriver, MinBftCluster, MinBftConfig, NetworkConfig, RetryBudgetConfig, ThreadedCluster,
    ThreadedServiceConfig,
};
use tolerance::core::controlplane::autotune::{AutotuneConfig, AutotuneController, AutotuneLoop};
use tolerance::core::simnet::{
    find_sharded_counterexample, load_swing_config, run_sharded_schedule, ShardedFaultSchedule,
};

const STORM_CLIENTS: usize = 6;
const STORM_ROUNDS: u64 = 30;
const STORM_TIMEOUT: f64 = 0.25;

/// What one lossy closed-loop run produced, for the budgeted/unbudgeted
/// comparison.
struct StormOutcome {
    /// REQUEST receptions across all replicas (originals + retransmits).
    receptions: u64,
    /// Client retransmissions actually sent.
    retransmissions_sent: u64,
    /// Retransmissions denied by the budget (0 when unbudgeted).
    suppressed: u64,
    /// Requests completed across all clients.
    completed: u64,
    /// Digest of every submitted request, in submission order.
    submitted: Vec<Digest>,
    /// Final executed log of the longest replica (complete history —
    /// checkpoints are disabled).
    longest_log: Vec<Digest>,
    /// Final executed logs of every replica.
    logs: Vec<Vec<Digest>>,
}

/// Runs the same seeded storm either with or without a retry budget: 50%
/// loss while the closed-loop clients keep one request in flight each, then
/// a healed network and a drain to quiescence. Checkpoints are disabled so
/// the executed logs are the complete per-request history.
fn storm_run(budget: Option<RetryBudgetConfig>) -> StormOutcome {
    let lossy = NetworkConfig {
        latency: 0.01,
        jitter: 0.005,
        loss_rate: 0.5,
    };
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        network: lossy,
        request_timeout: STORM_TIMEOUT,
        checkpoint_period: 0,
        seed: 42,
        ..MinBftConfig::default()
    });
    cluster.set_retry_budget(budget);
    let clients: Vec<_> = (0..STORM_CLIENTS).map(|_| cluster.add_client()).collect();
    let mut submitted = Vec::new();
    for round in 0..STORM_ROUNDS {
        for &client in &clients {
            if !cluster.has_outstanding_request(client) {
                let request = cluster.submit(
                    client,
                    Operation::Put {
                        key: (round % 8) as u32,
                        value: round + 1,
                    },
                );
                submitted.push(request.digest());
            }
        }
        cluster.run_until((round + 1) as f64 * STORM_TIMEOUT);
    }
    // Heal the network and drain: every outstanding request must complete
    // (with a budget, suppressed clients re-earn retry tokens through the
    // trickle refill, so healing cannot strand them).
    cluster.set_network_config(NetworkConfig {
        latency: 0.01,
        jitter: 0.005,
        loss_rate: 0.0,
    });
    let mut deadline = cluster.now();
    for _ in 0..40 {
        if clients
            .iter()
            .all(|&client| !cluster.has_outstanding_request(client))
        {
            break;
        }
        deadline += 2.0;
        cluster.run_until(deadline);
    }
    assert!(
        clients
            .iter()
            .all(|&client| !cluster.has_outstanding_request(client)),
        "the storm run must drain once the network heals"
    );
    // Let the final commit round settle on every replica before reading
    // the logs (replies precede peer commits by one message delay).
    let settle = cluster.now() + 2.0;
    cluster.run_until(settle);
    let (retransmissions_sent, suppressed) = cluster.retransmission_stats();
    let logs: Vec<Vec<Digest>> = cluster
        .membership()
        .to_vec()
        .into_iter()
        .map(|replica| {
            assert_eq!(
                cluster.executed_log_start(replica),
                Some(0),
                "checkpoints are disabled, so every log must start at 0"
            );
            cluster
                .executed_log(replica)
                .expect("replica has a log")
                .to_vec()
        })
        .collect();
    let longest_log = logs
        .iter()
        .max_by_key(|log| log.len())
        .expect("at least one replica")
        .clone();
    StormOutcome {
        receptions: cluster.request_receptions(),
        retransmissions_sent,
        suppressed,
        completed: clients
            .iter()
            .map(|&client| cluster.completed_requests(client))
            .sum(),
        submitted,
        longest_log,
        logs,
    }
}

/// Asserts the exactly-once contract on a drained storm run: every
/// submitted request appears exactly once in the longest replica log, and
/// no replica executed anything twice.
fn assert_exactly_once(outcome: &StormOutcome, label: &str) {
    assert_eq!(
        outcome.completed,
        outcome.submitted.len() as u64,
        "{label}: a drained run completes exactly its submissions"
    );
    let mut counts: HashMap<Digest, usize> = HashMap::new();
    for digest in &outcome.longest_log {
        *counts.entry(*digest).or_default() += 1;
    }
    for digest in &outcome.submitted {
        assert_eq!(
            counts.get(digest).copied().unwrap_or(0),
            1,
            "{label}: a submitted request must execute exactly once \
             despite the retransmission storm"
        );
    }
    for (replica, log) in outcome.logs.iter().enumerate() {
        let mut seen: HashMap<Digest, usize> = HashMap::new();
        for digest in log {
            *seen.entry(*digest).or_default() += 1;
        }
        assert!(
            seen.values().all(|&n| n == 1),
            "{label}: replica {replica} executed a request twice"
        );
    }
}

#[test]
fn retry_budget_bounds_the_retransmission_storm_without_losing_requests() {
    let unbudgeted = storm_run(None);
    let budget = RetryBudgetConfig::default();
    let budgeted = storm_run(Some(budget));

    // The storm is real: without a budget the closed-loop clients amplify
    // their own offered load — far more retransmissions than the budget
    // envelope would ever permit, and correspondingly more replica-side
    // request receptions. (The two runs submit slightly different request
    // counts — the closed loop resubmits on completion, and completions
    // time differently — so each run is held to its *own* envelope.)
    assert_eq!(unbudgeted.suppressed, 0);
    assert!(
        unbudgeted.retransmissions_sent > 0,
        "50% loss must force retransmissions"
    );

    // With the budget installed, sent retransmissions stay inside the token
    // envelope: the initial per-client burst plus tokens earned by
    // completions and by denied attempts (the trickle refill).
    let envelope = STORM_CLIENTS as f64 * budget.burst
        + budgeted.completed as f64 * budget.ratio
        + budgeted.suppressed as f64 * budget.trickle;
    assert!(
        (budgeted.retransmissions_sent as f64) <= envelope + 1e-9,
        "budgeted retransmissions {} exceed the token envelope {envelope:.1}",
        budgeted.retransmissions_sent
    );
    let unbudgeted_envelope = STORM_CLIENTS as f64 * budget.burst
        + unbudgeted.completed as f64 * budget.ratio
        + unbudgeted.suppressed as f64 * budget.trickle;
    assert!(
        (unbudgeted.retransmissions_sent as f64) > unbudgeted_envelope,
        "the unbudgeted storm ({} retransmissions) must overflow what the \
         budget would have allowed ({unbudgeted_envelope:.1}), or the \
         budget is not binding",
        unbudgeted.retransmissions_sent
    );
    assert!(
        budgeted.receptions < unbudgeted.receptions,
        "the budget must reduce replica-side request receptions: \
         {} (budgeted) vs {} (unbudgeted)",
        budgeted.receptions,
        unbudgeted.receptions
    );
    assert!(
        budgeted.suppressed > 0,
        "the budget must actually deny some retransmissions in the storm"
    );

    // Shedding retransmissions must not shed requests: both runs drain to
    // the same exactly-once execution contract.
    assert_exactly_once(&unbudgeted, "unbudgeted");
    assert_exactly_once(&budgeted, "budgeted");
}

#[test]
fn live_autotune_loop_drives_the_threaded_plane_end_to_end() {
    // The third feedback loop on the real-thread plane: a controller
    // thread observes the shared tuning window and the transport's
    // mailbox-depth gauge, and actuates batch size, flush delay and client
    // concurrency through the same atomics the replicas and the client
    // driver read. Assertions are structural (decisions happened, knobs
    // stayed in bounds, the plane kept serving) — wall-clock throughput is
    // host-dependent and belongs to the bench.
    let config = ThreadedServiceConfig {
        replicas: 4,
        clients: 8,
        batch_size: 1,
        checkpoint_period: 0,
        duration: 0.4,
        ..ThreadedServiceConfig::default()
    };
    let tune = AutotuneConfig {
        initial_concurrency: 2,
        max_concurrency: config.clients,
        max_batch: 64,
        window_seconds: 0.02,
        ..AutotuneConfig::default()
    };
    let mut cluster = ThreadedCluster::new(&config);
    let tuning = cluster.tuning();
    let gauge = cluster.handle();
    let autotune = AutotuneLoop::spawn(
        AutotuneController::new(&tune),
        cluster.tuning(),
        move || gauge.mailbox_depth(),
    );
    let mut driver = ClientDriver::new(&mut cluster, config.clients)
        .tuned(cluster.tuning(), Some(RetryBudgetConfig::default()));
    driver.run_for(config.duration);
    assert!(driver.drain(10.0), "in-flight requests must drain");
    let decisions = autotune.stop();
    let report = driver.report();

    assert!(report.completed > 0, "the tuned plane must serve requests");
    assert_eq!(report.latencies.len() as u64, report.completed);
    assert!(
        !decisions.is_empty(),
        "the autotune loop must have ticked at least once in {}s",
        config.duration
    );
    for decision in &decisions {
        assert!(decision.batch_size >= 1);
        assert!(decision.batch_size <= tune.max_batch);
        assert!(decision.concurrency >= 1);
        assert!(decision.concurrency <= tune.max_concurrency);
        assert!(decision.batch_delay.is_finite() && decision.batch_delay >= 0.0);
    }
    // The shared atomics hold exactly the last published decision — the
    // planes never observe knobs the controller did not actuate.
    let last = decisions.last().expect("non-empty");
    assert_eq!(tuning.batch_size(), last.batch_size);
    assert_eq!(tuning.concurrency(), last.concurrency);
    assert!((tuning.batch_delay() - last.batch_delay).abs() < 1e-12);

    std::thread::sleep(std::time::Duration::from_millis(150));
    let snapshots = cluster.shutdown();
    assert!(
        snapshots_consistent(&snapshots),
        "replica logs diverged under live autotuning"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only autotune sweep (CI autotune-smoke job)"
)]
fn tuned_load_swing_sweep_passes_the_full_oracle_suite() {
    // The CI autotune smoke: 300 seeded chaos runs of the tuned plane
    // under the 10x diurnal swing, each checked by the full fleet oracle
    // suite (agreement/validity/recovery-bound/network accounting per
    // shard, routing, settle liveness, MultiPut atomicity). Violations
    // shrink and publish like the fleet sweep.
    let config = load_swing_config();
    for seed in 0..300u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        if let Some(violation) = &report.violation {
            if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                common::publish_counterexample(
                    &format!("load-swing-seed{seed}"),
                    &counterexample.to_json().expect("serializable"),
                );
            }
            panic!("load-swing seed {seed}: {violation}");
        }
        assert!(
            report
                .autotune
                .iter()
                .any(|decisions| !decisions.is_empty()),
            "load-swing seed {seed}: no shard ever ticked its controller"
        );
        assert!(
            report.outcome.completed > 0,
            "load-swing seed {seed}: no requests completed"
        );
    }
}
