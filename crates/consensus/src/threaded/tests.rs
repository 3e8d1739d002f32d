use super::*;
use crate::minbft::{Operation, Request};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::SyncSender;

/// Outcome of a threaded service run.
#[derive(Debug)]
struct ThreadedServiceReport {
    /// Requests completed by an f+1 reply quorum.
    completed_requests: u64,
    /// Completed requests per wall-clock second.
    requests_per_second: f64,
    /// Mean request latency in seconds.
    mean_latency: f64,
    /// Whether every pair of replica logs agreed on their overlapping
    /// positions at shutdown (offset-aware prefix consistency).
    consistent: bool,
    /// Largest retained (post-compaction) executed-log suffix across
    /// replicas at shutdown.
    max_retained_log: usize,
    /// Highest executed sequence across replicas at shutdown.
    max_executed: u64,
    /// Transport counters (sent / dropped-by-backpressure).
    transport: TransportStats,
}

/// Runs a MinBFT cluster as a concurrent service — one thread per replica
/// over bounded channels — under a closed-loop client workload, and reports
/// wall-clock throughput plus the shutdown consistency check.
///
/// # Panics
///
/// Panics if the configuration asks for fewer than 2 replicas or no
/// clients.
fn run_threaded_service(config: &ThreadedServiceConfig) -> ThreadedServiceReport {
    let mut cluster = ThreadedCluster::new(config);
    let mut driver = ClientDriver::new(&mut cluster, config.clients);
    let start = Instant::now();
    driver.run_for(config.duration);
    let duration = start.elapsed().as_secs_f64();
    let report = driver.report();
    let stats = cluster.stats();
    let snapshots = cluster.shutdown();
    ThreadedServiceReport {
        completed_requests: report.completed,
        requests_per_second: report.completed as f64 / duration.max(1e-9),
        mean_latency: report.mean_latency(),
        consistent: snapshots_consistent(&snapshots),
        max_retained_log: snapshots
            .iter()
            .map(|s| s.executed.len())
            .max()
            .unwrap_or(0),
        max_executed: snapshots.iter().map(|s| s.last_executed).max().unwrap_or(0),
        transport: stats,
    }
}

#[test]
fn threaded_cluster_serves_requests_with_consistent_logs() {
    let report = run_threaded_service(&ThreadedServiceConfig {
        replicas: 4,
        clients: 4,
        duration: 0.4,
        ..ThreadedServiceConfig::default()
    });
    assert!(
        report.completed_requests > 0,
        "the threaded service must complete requests: {report:?}"
    );
    assert!(report.consistent, "replica logs diverged: {report:?}");
    assert!(report.requests_per_second > 0.0);
    assert!(report.mean_latency > 0.0);
    assert!(report.transport.sent > 0);
}

#[test]
fn threaded_checkpoints_compact_replica_logs() {
    // A small checkpoint period must bound the retained logs even in
    // the concurrent service (same compaction code as the simulation).
    let report = run_threaded_service(&ThreadedServiceConfig {
        replicas: 4,
        clients: 8,
        batch_size: 8,
        checkpoint_period: 10,
        duration: 0.6,
        ..ThreadedServiceConfig::default()
    });
    assert!(report.completed_requests > 0);
    assert!(report.consistent);
    if report.max_executed > 40 {
        assert!(
            (report.max_retained_log as u64) < report.max_executed,
            "no replica compacted: retained {} of {} executed",
            report.max_retained_log,
            report.max_executed
        );
    }
}

#[test]
#[ignore = "wall-clock; CI socket-smoke runs it by name"]
fn pipeline_windows_serve_consistently_and_window_4_outruns_window_1() {
    // Batch 1 at a 2 ms USIG signing cost, paid by a real sleep on the
    // replica thread: window 1 stacks sign + round trip per sequence, a
    // wider window overlaps them. The speedup needs 4 replica threads and
    // the client driver to run at once, so it is checked only on hosts with
    // at least 4 hardware threads.
    let rate = |pipeline_window| {
        let report = run_threaded_service(&ThreadedServiceConfig {
            replicas: 4,
            clients: 8,
            batch_size: 1,
            pipeline_window,
            signature_time: 0.002,
            checkpoint_period: 100,
            duration: 0.4,
            ..ThreadedServiceConfig::default()
        });
        assert!(report.consistent, "window {pipeline_window}: {report:?}");
        assert!(report.completed_requests > 0, "window {pipeline_window}");
        report.requests_per_second
    };
    let [w1, w4, _] = [1, 4, 8].map(rate);
    if std::thread::available_parallelism().map_or(1, usize::from) >= 4 {
        assert!(w4 >= 1.5 * w1, "window 4 {w4:.1} req/s vs window 1 {w1:.1}");
    }
}

#[test]
fn shutdown_drain_loses_and_duplicates_nothing() {
    // Deterministic drain accounting: stop the driver mid-run, drain
    // the in-flight requests, and require that every *completed*
    // request appears exactly once in every replica log that covers
    // its range — no request lost, none double-executed. Compaction is
    // disabled and batches are singletons so the retained log is the
    // complete per-request execution history.
    let config = ThreadedServiceConfig {
        replicas: 4,
        clients: 6,
        batch_size: 1,
        checkpoint_period: 0,
        duration: 0.3,
        ..ThreadedServiceConfig::default()
    };
    let mut cluster = ThreadedCluster::new(&config);
    let mut driver = ClientDriver::new(&mut cluster, config.clients);
    driver.run_for(config.duration);
    assert!(driver.drain(5.0), "in-flight requests must drain");
    let report = driver.report();
    assert!(report.completed > 0);
    // Let the last commit round settle across all replicas before the
    // snapshot (replies precede peer commits by one message).
    std::thread::sleep(Duration::from_millis(150));
    let snapshots = cluster.shutdown();
    assert!(snapshots_consistent(&snapshots));
    let longest = snapshots
        .iter()
        .max_by_key(|s| s.executed.len())
        .expect("snapshots");
    let mut counts: HashMap<crate::crypto::Digest, usize> = HashMap::new();
    for digest in &longest.executed {
        *counts.entry(*digest).or_default() += 1;
    }
    for digest in &report.completed_digests {
        assert_eq!(
            counts.get(digest).copied().unwrap_or(0),
            1,
            "completed request digest {digest:?} must appear exactly once \
             in the longest replica log"
        );
    }
    // No digest anywhere appears twice (no double execution at all).
    for snapshot in &snapshots {
        let mut seen: HashMap<crate::crypto::Digest, usize> = HashMap::new();
        for digest in &snapshot.executed {
            *seen.entry(*digest).or_default() += 1;
        }
        assert!(
            seen.values().all(|&n| n == 1),
            "replica {} executed a request twice",
            snapshot.id
        );
    }
}

/// One wall-clock run of the silent-replica live-recovery scenario.
/// Safety invariants (service survives, keeps completing, logs stay
/// consistent) are hard asserts; whether the recovered replica caught
/// up to the frontier before shutdown races the OS scheduler (a
/// transfer adopted late leaves a commit gap only ongoing traffic can
/// repair), so that outcome is returned for the caller to retry on.
fn silent_recovery_run() -> Result<(), String> {
    let config = ThreadedServiceConfig {
        replicas: 4,
        clients: 4,
        duration: 0.2,
        ..ThreadedServiceConfig::default()
    };
    let mut cluster = ThreadedCluster::new(&config);
    let mut driver = ClientDriver::new(&mut cluster, config.clients);
    assert!(cluster.compromise(2, ByzantineMode::Silent));
    driver.run_for(0.2);
    let before = driver.report().completed;
    assert!(before > 0, "the service must survive one silent replica");
    assert!(cluster.recover(2));
    driver.run_for(0.3);
    std::thread::sleep(Duration::from_millis(100));
    let after = driver.report().completed;
    assert!(after > before, "the service must keep completing requests");
    let snapshots = cluster.shutdown();
    assert!(snapshots_consistent(&snapshots));
    let recovered = snapshots.iter().find(|s| s.id == 2).expect("replica 2");
    if recovered.needs_state {
        return Err("the recovered replica never adopted a state transfer".into());
    }
    let frontier = snapshots.iter().map(|s| s.last_executed).max().unwrap();
    if recovered.last_executed + 32 < frontier {
        return Err(format!(
            "recovered replica lags the frontier: {} vs {frontier}",
            recovered.last_executed
        ));
    }
    Ok(())
}

#[test]
fn controller_triggered_live_recovery_restores_a_silent_replica() {
    // The live actuation smoke test: compromise a non-leader replica
    // (it goes Silent — the intrusion the IDS stream would flag), let
    // the service keep running on n-1, then actuate the message-driven
    // Recover; the replica must rebuild, pull a state transfer, and be
    // caught up by shutdown. Wall-clock runs race the OS scheduler
    // (same idiom as `live_loop_recovers_compromise_and_restores_n`),
    // so a loaded host gets up to three attempts before the catch-up
    // expectation is treated as a product bug; the deterministic sim
    // twin gates the same recovery semantics seed-exactly.
    let failed: Vec<String> = (0..3).map_while(|_| silent_recovery_run().err()).collect();
    assert!(
        failed.len() < 3,
        "live recovery must catch up within three attempts: {failed:?}"
    );
}

/// Records what each recipient is sent, in order (broadcasts expanded
/// to their recipients), and counts the batches; its clock is whatever
/// the test sets.
#[derive(Default)]
struct Recorder {
    heard: BTreeMap<NodeId, Vec<(NodeId, Message)>>,
    batches: usize,
    clock: f64,
}

impl WallClock for Recorder {
    fn now(&self) -> f64 {
        self.clock
    }
}

impl Transport<Message> for Recorder {
    fn send(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.heard.entry(to).or_default().push((from, message));
    }

    fn send_batch(&mut self, recipients: &[NodeId], batch: Vec<Outgoing<Message>>) {
        self.batches += 1;
        for outgoing in batch {
            match outgoing {
                Outgoing::Broadcast(from, message) => self.broadcast(from, recipients, &message),
                Outgoing::Unicast(from, to, message) => self.send(from, to, message),
            }
        }
    }
}

/// Replica `id` of four, keyed from seed 5.
fn live_replica(id: NodeId) -> Replica {
    let members: Vec<NodeId> = (0..4).collect();
    let mut directory = KeyDirectory::new();
    for &member in &members {
        directory.register(&KeyPair::derive(member, 5));
    }
    Replica::new(id, members, directory, 5)
}

/// `message` from `from` to `to`, sent at t = 0.
fn to(to: NodeId, from: NodeId, message: Message) -> Delivery<Message> {
    Delivery {
        time: 0.0,
        from,
        to,
        message,
    }
}

/// Client `client`'s first request.
fn write(client: NodeId) -> Message {
    Message::Request(Request {
        client,
        id: 0,
        operation: Operation::Write(7),
    })
}

/// One step of `replica`, outside any loop.
fn step(replica: &mut Replica, params: &ProtocolParams, d: Delivery<Message>) -> StepOutput {
    let (mut out, mut trace) = (StepOutput::default(), Vec::new());
    replica_on_message(
        replica, d.from, d.message, d.time, params, &mut trace, &mut out,
    );
    out
}

/// A loop over `replica` on a [`Recorder`], with a request timeout of
/// 0.1 s, and the mailbox and the control channel the test fills.
fn recorded_loop(
    replica: Replica,
    params: ProtocolParams,
) -> (
    ReplicaLoop<Recorder>,
    SyncSender<Delivery<Message>>,
    SyncSender<ControlMessage>,
) {
    let (deliveries, mailbox) = std::sync::mpsc::sync_channel(16);
    let (commands, control_rx) = std::sync::mpsc::sync_channel(16);
    let node = ReplicaLoop {
        replica,
        mailbox,
        control_rx,
        transport: Recorder::default(),
        params,
        request_timeout: 0.1,
        signature_time: 0.0,
        tuning: None,
        progress: Arc::default(),
        trace: Vec::new(),
    };
    (node, deliveries, commands)
}

#[test]
fn a_burst_sends_what_per_step_flushes_send() {
    let params = ThreadedServiceConfig {
        batch_size: 1,
        checkpoint_period: 1,
        ..ThreadedServiceConfig::default()
    }
    .protocol_params();
    let client = CLIENT_ID_BASE;
    // The leader's PREPARE for the request, and two backups' COMMITs.
    let prepare = step(&mut live_replica(0), &params, to(0, client, write(client))).broadcast;
    let commit = |id| {
        step(
            &mut live_replica(id),
            &params,
            to(id, 0, prepare[0].clone()),
        )
        .broadcast
    };
    let reconfigure = ControlMessage::Reconfigure {
        epoch: 1,
        membership: (0..5).collect(),
        frontier: 0,
    };
    let script = [
        // A unicast (StateTransfer to 3).
        to(0, 3, Message::StateRequest { epoch: 0 }),
        // Signs the PREPARE: ends the first burst.
        to(0, client, write(client)),
        to(0, 1, commit(1)[0].clone()),
        // Executes: a Checkpoint broadcast, then the Reply.
        to(0, 2, commit(2)[0].clone()),
        to(0, 3, Message::StateRequest { epoch: 0 }),
        // Node 4 joins: a ViewChange broadcast to the new membership.
        to(0, 3, Message::Control(reconfigure)),
        // A unicast between two broadcasts.
        to(0, 4, Message::StateRequest { epoch: 1 }),
        // A StateRequest broadcast.
        to(0, 3, Message::Control(ControlMessage::Recover)),
    ];
    let signature_time = 1e-4;

    // The loop before bursts: every step flushed on its own.
    let mut per_step = Recorder::default();
    let mut leader = live_replica(0);
    for delivery in script.clone() {
        let out = step(&mut leader, &params, delivery);
        pay_signature_cost(signature_time, out.created_uis);
        out.flush(&mut per_step, 0, &leader.membership);
    }

    let (mut node, deliveries, _commands) = recorded_loop(live_replica(0), params);
    node.signature_time = signature_time;
    for delivery in script {
        deliveries.send(delivery).expect("mailbox open");
    }
    let mut drained = Vec::new();
    while let Ok(first) = node.mailbox.try_recv() {
        drained.push(node.step_burst(first));
    }
    let bursts = node.transport;
    assert_eq!(drained, [2, 6], "the signing step ends the first burst");
    assert_eq!(bursts.heard, per_step.heard);
    assert_eq!(
        bursts.heard[&4].len(),
        3,
        "node 4 hears only what follows its join"
    );
    // Per step: one batch for each of the seven steps with output. In
    // bursts: the step before the signing one, the signing one, the two
    // steps before the membership change, and the rest.
    assert_eq!((bursts.batches, per_step.batches), (4, 7));
}

#[test]
fn a_silent_leader_flushes_nothing() {
    // Batches of 16 flush 2 ms after their oldest request. Leader 0 holds
    // one request, first seen at t = 0, and makes one pass at t = 10 ms.
    let params = ThreadedServiceConfig::default().protocol_params();
    let leader = || {
        let mut leader = live_replica(0);
        step(
            &mut leader,
            &params,
            to(0, CLIENT_ID_BASE, write(CLIENT_ID_BASE)),
        );
        let (mut node, deliveries, commands) = recorded_loop(leader, params);
        node.transport.clock = 0.01;
        (node, deliveries, commands)
    };
    let proposed = |node: &ReplicaLoop<Recorder>| {
        (node.transport.heard.values().flatten())
            .any(|(_, message)| matches!(message, Message::Prepare { .. }))
    };
    let (mut correct, _deliveries, _commands) = leader();
    assert!(
        correct.pass() && proposed(&correct),
        "a correct leader flushes"
    );
    // Compromised to Silent on its control channel, it sends nothing.
    let (mut silent, _deliveries, commands) = leader();
    let mode = ByzantineMode::Silent;
    commands
        .send(ControlMessage::Compromise { mode })
        .expect("control open");
    assert!(silent.pass());
    assert_eq!(
        silent.transport.heard,
        BTreeMap::new(),
        "a Silent leader sent"
    );
    // Awaiting state, it re-announces its pull and proposes nothing.
    let (mut pulling, _deliveries, _commands) = leader();
    pulling.replica.needs_state = true;
    assert!(pulling.pass());
    assert!(!pulling.transport.heard.is_empty() && !proposed(&pulling));
}

#[test]
fn a_stalled_follower_votes_while_deliveries_flow() {
    // Follower 1 sees request A at t = 0 and the leader never prepares
    // it, while COMMITs for request B keep arriving.
    let params = ThreadedServiceConfig {
        batch_size: 1,
        ..ThreadedServiceConfig::default()
    }
    .protocol_params();
    let [a, b] = [CLIENT_ID_BASE, CLIENT_ID_BASE + 1];
    let mut follower = live_replica(1);
    step(&mut follower, &params, to(1, a, write(a)));
    let prepare = step(&mut live_replica(0), &params, to(0, b, write(b))).broadcast;
    let commit = step(&mut live_replica(2), &params, to(2, 0, prepare[0].clone())).broadcast;
    let (mut node, deliveries, _commands) = recorded_loop(follower, params);
    let votes_to_0 = |node: &ReplicaLoop<Recorder>| {
        (node.transport.heard.get(&0).into_iter().flatten())
            .filter(|(_, message)| matches!(message, Message::ViewChange { .. }))
            .count()
    };
    // The stall deadline is 0.1 s, and every pass takes one COMMIT.
    for (clock, votes) in [(0.05, 0), (0.15, 1)] {
        node.transport.clock = clock;
        deliveries
            .send(to(1, 2, commit[0].clone()))
            .expect("mailbox open");
        assert!(node.pass());
        assert!(node.mailbox.try_recv().is_err(), "the pass took the COMMIT");
        assert_eq!(votes_to_0(&node), votes, "at {clock} s");
    }
}

#[test]
fn join_and_evict_reshape_the_running_cluster() {
    let config = ThreadedServiceConfig {
        replicas: 4,
        clients: 4,
        duration: 0.2,
        ..ThreadedServiceConfig::default()
    };
    let mut cluster = ThreadedCluster::new(&config);
    let mut driver = ClientDriver::new(&mut cluster, config.clients);
    driver.run_for(0.2);
    let joined = cluster.join();
    assert_eq!(cluster.num_replicas(), 5);
    driver.run_for(0.3);
    assert!(cluster.evict(0));
    assert!(!cluster.evict(0), "double eviction must be refused");
    assert_eq!(cluster.num_replicas(), 4);
    driver.run_for(0.3);
    let completed = driver.report().completed;
    assert!(
        completed > 0,
        "the service must serve through JOIN and EVICT"
    );
    std::thread::sleep(Duration::from_millis(100));
    let snapshots = cluster.shutdown();
    assert!(snapshots_consistent(&snapshots));
    let newcomer = snapshots.iter().find(|s| s.id == joined).expect("joined");
    assert!(
        !newcomer.needs_state,
        "the joined replica must have adopted a state transfer"
    );
    assert!(snapshots.iter().any(|s| s.id == 0), "evicted snapshot kept");
}

#[test]
fn a_stalled_request_is_retransmitted_while_replies_flow() {
    let (replies, mailbox) = std::sync::mpsc::sync_channel(8);
    let streams = (0..2).map(|seed| OpStream::new(seed, 0, 1.0)).collect();
    let members = MembershipView::fixed((0..4).collect());
    let mut driver =
        ClientDriver::over_transport(Recorder::default(), mailbox, members, streams, 0.1);
    // Both clients submit at t = 0.
    driver.run_for(0.0);
    let reply = |from, to: NodeId| Delivery {
        time: 0.0,
        from,
        to,
        message: Message::Reply {
            request_id: 0,
            value: 1,
            sequence: 1,
        },
    };
    let sent_by = |driver: &ClientDriver<Recorder>, client| -> Vec<u64> {
        (driver.transport.heard[&0].iter())
            .filter_map(|(from, message)| match message {
                Message::Request(request) if *from == client => Some(request.id),
                _ => None,
            })
            .collect()
    };
    let [first, second] = [CLIENT_ID_BASE, CLIENT_ID_BASE + 1];
    // Before the deadline a reply arrives and nothing is retransmitted.
    driver.transport.clock = 0.05;
    replies.send(reply(0, second)).expect("mailbox open");
    driver.pump(true);
    assert_eq!(sent_by(&driver, first), [0]);
    // Past it, a reply for the second client must not hide the first
    // client's stalled request from its timer.
    driver.transport.clock = 0.15;
    replies.send(reply(1, second)).expect("mailbox open");
    driver.pump(true);
    assert_eq!(sent_by(&driver, first), [0, 0], "client 0 retransmits");
    assert_eq!(sent_by(&driver, second), [0, 1], "client 1 completes");
}

#[test]
fn the_progress_gauge_reads_last_executed_and_zero_while_awaiting_state() {
    let params = ThreadedServiceConfig::default().protocol_params();
    let mut replica = live_replica(1);
    replica.last_executed = 9;
    let (mut node, _deliveries, commands) = recorded_loop(replica, params);
    let progress = Arc::clone(&node.progress);
    assert!(node.pass());
    assert_eq!(progress.load(Ordering::Relaxed), 9);
    // Recovered on its control channel, it awaits a transfer: nothing it
    // executed counts towards a reconfiguration's frontier until one lands.
    commands
        .send(ControlMessage::Recover)
        .expect("control open");
    assert!(node.pass());
    assert_eq!(progress.load(Ordering::Relaxed), 0);
}
