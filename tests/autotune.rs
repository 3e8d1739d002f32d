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
//! - the adaptive-vs-static matrix: under a 10x diurnal swing in simulated
//!   time no static batch × concurrency cell dominates the tuned plane;
//! - the release-only 300-seed chaos sweep of the tuned
//!   `load_swing_config` fleet under the full fleet oracle suite
//!   (the CI `autotune-smoke` job; violations publish replayable
//!   counterexamples to `target/simnet-counterexamples/`).

mod common;

use std::collections::HashMap;

use tolerance::consensus::crypto::Digest;
use tolerance::consensus::metrics::LatencyHistogram;
use tolerance::consensus::minbft::Operation;
use tolerance::consensus::threaded::snapshots_consistent;
use tolerance::consensus::{
    ClientDriver, MinBftCluster, MinBftConfig, NetworkConfig, RetryBudgetConfig, ThreadedCluster,
    ThreadedServiceConfig,
};
use tolerance::core::controlplane::autotune::{
    Admission, AutotuneConfig, AutotuneController, AutotuneLoop, AutotuneObservation,
};
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
    // host-dependent and is not asserted.
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

/// The diurnal swing of the adaptive-vs-static matrix: the offered rate is
/// `SWING_BASE_RATE · (1 + a·sin(2πt / SWING_PERIOD))` req/s with
/// `a = 9/11`, so the peak is 10x the trough.
const SWING_AMPLITUDE: f64 = 9.0 / 11.0;
const SWING_BASE_RATE: f64 = 120.0;
const SWING_PERIOD: f64 = 10.0;
const SWING_HORIZON: f64 = 20.0;
/// Simulated seconds per driver step.
const SWING_STEP: f64 = 0.05;
/// Client pool size, the high concurrency cap.
const SWING_POOL: usize = 32;
/// Undelivered demand kept before arrivals are dropped: small, so overload
/// shows as lost throughput rather than as a queue outside the cluster.
const SWING_BACKLOG_CAP: u64 = 64;

/// One cell of the matrix: the requests it completed and their p99 latency.
#[derive(Debug)]
struct SwingCell {
    label: String,
    completed: u64,
    p99: f64,
    /// Controller windows ticked (0 for a static cell).
    windows: usize,
}

/// Drives one cluster through the swing and a final drain. `tuner = None`
/// is a static cell: `batch_size` and `concurrency` fixed all day, no
/// admission control, no retry budget. `Some` runs the whole loop: windowed
/// p99 and queue observations into AIMD, actuation through
/// `set_batch_config`, concurrency capping, admission and a retry budget.
fn swing_cell(
    label: String,
    batch_size: usize,
    concurrency: usize,
    mut tuner: Option<AutotuneController>,
) -> SwingCell {
    let mut cluster = MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        // A visible signature cost is what adaptive batching amortizes.
        signature_time: 0.003,
        processing_time: 0.0008,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        checkpoint_period: 50,
        request_timeout: 2.0,
        seed: 7,
        ..MinBftConfig::default()
    });
    // Static knobs go through the cluster clamp too, so every cell is a
    // valid configuration.
    let mut cap = match &tuner {
        Some(t) => {
            cluster.set_batch_config(t.batch_size(), t.batch_delay());
            cluster.set_retry_budget(Some(RetryBudgetConfig::default()));
            t.concurrency()
        }
        None => {
            cluster.set_batch_config(batch_size, 0.005);
            concurrency
        }
    };
    let pool: Vec<_> = (0..SWING_POOL).map(|_| cluster.add_client()).collect();
    let mut admission = Admission::Accept;
    let (mut carry, mut backlog, mut value) = (0.0_f64, 0_u64, 0_u64);
    let (mut suppressed_before, mut windows) = (0_u64, 0);
    let mut latencies: Vec<f64> = Vec::new();
    for step in 0..(SWING_HORIZON / SWING_STEP).round() as u32 {
        // The window tick first, as in the sharded executor.
        if let Some(controller) = tuner
            .as_mut()
            .filter(|t| step % t.config().window_steps.max(1) == 0)
        {
            let drained = cluster.take_latencies();
            let mut histogram = LatencyHistogram::new();
            for &sample in &drained {
                histogram.record(sample);
            }
            let (_, suppressed) = cluster.retransmission_stats();
            let decision = controller.observe(AutotuneObservation {
                completed: drained.len() as u64,
                p99: histogram.quantile(0.99),
                queue_depth: cluster.network_in_flight() as u64,
                suppressed: suppressed.saturating_sub(suppressed_before),
            });
            suppressed_before = suppressed;
            cluster.set_batch_config(decision.batch_size, decision.batch_delay);
            cap = decision.concurrency;
            admission = decision.admission;
            latencies.extend(drained);
            windows += 1;
        }
        let t = step as f64 * SWING_STEP;
        let rate = SWING_BASE_RATE
            * (1.0 + SWING_AMPLITUDE * (2.0 * std::f64::consts::PI * t / SWING_PERIOD).sin());
        carry += rate * SWING_STEP;
        let arrivals = carry.floor() as u64;
        carry -= arrivals as f64;
        if admission != Admission::Shed {
            backlog = (backlog + arrivals).min(SWING_BACKLOG_CAP);
        }
        // Delay admits nothing new this step; the backlog keeps it.
        if admission != Admission::Delay {
            for &client in pool.iter().take(cap) {
                if backlog == 0 {
                    break;
                }
                if !cluster.has_outstanding_request(client) {
                    value += 1;
                    let key = (value % 32) as u32;
                    cluster.submit(client, Operation::Put { key, value });
                    backlog -= 1;
                }
            }
        }
        cluster.run_until((step + 1) as f64 * SWING_STEP);
    }
    // Drain the in-flight tail, so a slow cell pays for its queue in p99.
    cluster.run_until_quiet(SWING_HORIZON + 60.0);
    latencies.extend(cluster.take_latencies());
    latencies.sort_by(f64::total_cmp);
    let p99_index = ((latencies.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    SwingCell {
        label,
        completed: latencies.len() as u64,
        p99: latencies.get(p99_index).copied().unwrap_or(0.0),
        windows,
    }
}

#[test]
fn no_static_cell_dominates_the_tuned_plane_across_a_diurnal_swing() {
    // No static point serves both phases: a big batch amortizes the
    // signature at peak but its flush delay ruins trough latency, while
    // batch 1 is quick at the trough and collapses at peak. So no static
    // cell of batch {1, 16, 64, 256} x concurrency {4, 32} may dominate the
    // tuned plane on (completed, p99) beyond a 2 % margin; the tuned plane
    // must dominate at least one (the matrix discriminates); and it must
    // complete at least 80 % of the best static cell (its latency is not
    // bought with drops). Simulated time: the same on every host.
    let mut statics = Vec::new();
    for batch in [1, 16, 64, 256] {
        for cap in [4, 32] {
            statics.push(swing_cell(
                format!("static-b{batch}-c{cap}"),
                batch,
                cap,
                None,
            ));
        }
    }
    let tuner = AutotuneController::new(&AutotuneConfig {
        // A binding SLO: the fragmentation floor of a 14-request batch
        // already reaches it, so the controller keeps shrinking batches
        // whenever load allows instead of riding the operator bound.
        p99_target: 0.05,
        initial_batch: 8,
        max_batch: 32,
        batch_step: 4,
        initial_concurrency: 16,
        max_concurrency: SWING_POOL,
        concurrency_step: 4,
        // One window per 10 driver steps = 0.5 simulated seconds.
        window_steps: 10,
        // Above the tens of messages protocol traffic alone keeps in
        // flight, so backpressure fires on real queue growth.
        delay_watermark: 192,
        shed_watermark: 512,
        // The cluster's cost model, so the actuated pair is the validated
        // pair.
        processing_time: 0.0008,
        signature_time: 0.003,
        base_batch_delay: 0.005,
        ..AutotuneConfig::default()
    });
    let tuned = swing_cell("tuned".into(), 1, SWING_POOL, Some(tuner));
    assert!(tuned.windows > 0, "the tuned cell never ticked: {tuned:?}");
    let dominates = |a: &SwingCell, b: &SwingCell| {
        a.completed as f64 > b.completed as f64 * 1.02 && a.p99 < b.p99 * 0.98
    };
    for cell in &statics {
        assert!(
            !dominates(cell, &tuned),
            "{} dominates: {cell:?} vs {tuned:?}",
            cell.label
        );
    }
    assert!(
        statics.iter().any(|cell| dominates(&tuned, cell)),
        "the tuned plane dominates no static cell: {tuned:?} vs {statics:?}"
    );
    let best = statics.iter().map(|cell| cell.completed).max().unwrap_or(0);
    assert!(
        tuned.completed as f64 >= best as f64 * 0.8,
        "{tuned:?} vs the best static {best}"
    );
}
