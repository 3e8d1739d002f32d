//! Single-layer probes of the traced run: each one calls a layer's public
//! functions in isolation, so a change to that layer has a number that
//! moves with it. A probe runs in the traced run of the workload that
//! exercises its layer, inside a span of its own.

use crate::harness::time_ns_per_call;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tolerance_consensus::crypto::{Digest, KeyDirectory, KeyPair};
use tolerance_consensus::metrics::LatencyHistogram;
use tolerance_consensus::minbft::{Message, Operation, Request, CLIENT_ID_BASE};
use tolerance_consensus::usig::{Usig, UsigVerifier};
use tolerance_consensus::wire::{decode_frame_body, encode_frame};
use tolerance_consensus::workload::{Arrival, WorkloadConfig};
use tolerance_consensus::{
    MinBftCluster, MinBftConfig, NetworkConfig, SocketTransport, ThreadedTransport, Transport,
};
use tolerance_core::controlplane::{ControlPlane, ControlPlaneConfig, NodeReport};
use tolerance_core::node_model::{NodeAction, NodeModel, NodeParameters, NodeState};
use tolerance_core::observation::ObservationModel;
use tolerance_core::simnet::{
    fleet_scale_config, load_swing_config, sharded_fleet_controlled_config, ShardedFaultSchedule,
};
use tolerance_pomdp::solvers::{IncrementalPruning, IncrementalPruningConfig};
use tolerance_pomdp::ValueFunction;

/// Seconds each micro-probe may spend timing.
const PROBE_BUDGET_S: f64 = 0.05;

fn request(client_index: u32, id: u64) -> Request {
    Request {
        client: CLIENT_ID_BASE + client_index,
        id,
        operation: Operation::Put {
            key: (id % 64) as u32,
            value: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        },
    }
}

/// Hand-built messages of the shapes `socket-kv` sends at n = 4, batch 16.
pub fn wire_shapes() -> Vec<(&'static str, Message)> {
    let mut usig = Usig::new(KeyPair::derive(0, 7));
    let batch: Vec<Request> = (0..16).map(|i| request(i, 4_711 + u64::from(i))).collect();
    let batch_digest = tolerance_consensus::minbft::batch_digest(&batch);
    let prepare_ui = usig.create_ui(batch_digest);
    let commit_ui = usig.create_ui(batch_digest);
    vec![
        ("request", Message::Request(request(3, 4_711))),
        (
            "reply",
            Message::Reply {
                request_id: 4_711,
                value: 0xdead_beef,
                sequence: 295,
            },
        ),
        (
            "commit",
            Message::Commit {
                view: 0,
                sequence: 295,
                batch_digest,
                ui: commit_ui,
            },
        ),
        (
            "prepare16",
            Message::Prepare {
                view: 0,
                sequence: 295,
                requests: batch.clone(),
                ui: prepare_ui,
            },
        ),
        (
            // What a lagging replica pulls after a checkpoint: the full
            // 64-key map, a reply per client, the retained digest suffix of
            // 16 batches and two in-flight prepared certificates.
            "state_transfer",
            Message::StateTransfer {
                epoch: 0,
                value: 0,
                kv: (0..64).map(|key| (key, u64::from(key) * 3)).collect(),
                staged: Vec::new(),
                log_start: 4_800,
                last_executed: 316,
                log_chain: Digest(0x1234_5678_9abc_def0),
                stable_sequence: 300,
                executed: (0..256)
                    .map(|i| request(i % 16, u64::from(i)).digest())
                    .collect(),
                view: 0,
                membership: vec![0, 1, 2, 3],
                replies: (0..16)
                    .map(|i| (CLIENT_ID_BASE + i, 300 + u64::from(i), u64::from(i), 316))
                    .collect(),
                prepared: vec![(317, 0, batch.clone()), (318, 0, batch)],
                chain_base: Digest(0x0fed_cba9_8765_4321),
                ui_high: (0..4).map(|replica| (replica, 640)).collect(),
            },
        ),
    ]
}

/// `wire.{encode_ns,decode_ns,frame_bytes}.*`: `encode_frame` and
/// `decode_frame_body` on each shape. Returns `(shape, encode_ns,
/// decode_ns)` for the attribution.
pub fn wire(tracer: &mut Tracer, outcome: &mut Outcome) -> Vec<(&'static str, f64, f64)> {
    let (costs, _) = tracer.span("probe:wire", |_| {
        wire_shapes()
            .into_iter()
            .map(|(shape, message)| {
                let frame = encode_frame(0, 1, &message);
                let decoded = decode_frame_body(&frame[4..]).expect("own frame decodes");
                assert_eq!(decoded, (0, 1, message.clone()), "{shape} round-trips");
                let encode_ns = time_ns_per_call(PROBE_BUDGET_S, || {
                    black_box(encode_frame(0, 1, black_box(&message)));
                });
                let decode_ns = time_ns_per_call(PROBE_BUDGET_S, || {
                    black_box(decode_frame_body(black_box(&frame[4..])).expect("decodes"));
                });
                (shape, frame.len(), encode_ns, decode_ns)
            })
            .collect::<Vec<_>>()
    });
    costs
        .into_iter()
        .map(|(shape, bytes, encode_ns, decode_ns)| {
            outcome.set(&format!("wire.encode_ns.{shape}"), encode_ns);
            outcome.set(&format!("wire.decode_ns.{shape}"), decode_ns);
            outcome.set(&format!("wire.frame_bytes.{shape}"), bytes as f64);
            (shape, encode_ns, decode_ns)
        })
        .collect()
}

/// Round trips a hop probe times after its warm-up.
const HOP_ROUND_TRIPS: usize = 2_000;

/// Median one-way microseconds of a Reply-sized message bounced between two
/// endpoints: `send` hands it to node 1, the echo thread sends it back to
/// node 0, and half the round trip is one hop.
fn ping_pong(
    mut send: impl FnMut(Message),
    inbox: &std::sync::mpsc::Receiver<tolerance_consensus::net::Delivery<Message>>,
) -> f64 {
    let ball = Message::Reply {
        request_id: 1,
        value: 2,
        sequence: 3,
    };
    let mut round_trips = Vec::with_capacity(HOP_ROUND_TRIPS);
    for round in 0..HOP_ROUND_TRIPS + 200 {
        let start = Instant::now();
        send(ball.clone());
        inbox
            .recv_timeout(Duration::from_secs(5))
            .expect("the echo thread answers within 5 s");
        if round >= 200 {
            round_trips.push(start.elapsed().as_secs_f64());
        }
    }
    median(&round_trips) / 2.0 * 1e6
}

/// The echo side of a hop probe: bounces every message back to node 0
/// until the stop message (a `StateRequest`) arrives.
fn echo(
    inbox: std::sync::mpsc::Receiver<tolerance_consensus::net::Delivery<Message>>,
    mut handle: impl Transport<Message>,
) {
    while let Ok(delivery) = inbox.recv() {
        if matches!(delivery.message, Message::StateRequest { .. }) {
            return;
        }
        handle.send(1, 0, delivery.message);
    }
}

/// `socket.hop_us`: one hop between two `SocketTransport`s on loopback
/// (encode, write, kernel, read, decode, mailbox wake-up).
pub fn socket_hop(tracer: &mut Tracer, outcome: &mut Outcome) {
    let (hop_us, _) = tracer.span("probe:socket.hop", |_| {
        let mut a = SocketTransport::bind("127.0.0.1:0", 64).expect("bind loopback");
        let mut b = SocketTransport::bind("127.0.0.1:0", 64).expect("bind loopback");
        let inbox_a = a.register(0);
        let inbox_b = b.register(1);
        a.add_peer(1, b.local_addr());
        b.add_peer(0, a.local_addr());
        let echo_handle = b.handle();
        let echo_thread = std::thread::spawn(move || echo(inbox_b, echo_handle));
        let mut handle = a.handle();
        let hop_us = ping_pong(|ball| handle.send(0, 1, ball), &inbox_a);
        handle.send(0, 1, Message::StateRequest { epoch: 0 });
        echo_thread.join().expect("echo thread panicked");
        hop_us
    });
    outcome.set("socket.hop_us", hop_us);
}

/// `transport.hop_us`: one hop through `ThreadedTransport` (bounded channel
/// plus the receiving thread's wake-up).
pub fn channel_hop(tracer: &mut Tracer, outcome: &mut Outcome) {
    let (hop_us, _) = tracer.span("probe:transport.hop", |_| {
        let mut hub: ThreadedTransport<Message> = ThreadedTransport::new(64);
        let inbox_a = hub.register(0);
        let inbox_b = hub.register(1);
        let echo_handle = hub.handle();
        let echo_thread = std::thread::spawn(move || echo(inbox_b, echo_handle));
        let mut handle = hub.handle();
        let hop_us = ping_pong(|ball| handle.send(0, 1, ball), &inbox_a);
        handle.send(0, 1, Message::StateRequest { epoch: 0 });
        echo_thread.join().expect("echo thread panicked");
        hop_us
    });
    outcome.set("transport.hop_us", hop_us);
}

/// `minbft.*`: the protocol alone, single-threaded, on the simulated
/// cluster with zero network latency and zero signature time, so wall time
/// per completed request is the CPU the replica step functions cost.
pub fn minbft(seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) {
    let ((cpu_us, msgs_per_req, retained, consistent), _) = tracer.span("probe:minbft", |_| {
        let config = MinBftConfig {
            initial_replicas: 4,
            batch_size: 16,
            // Simulated per-message cost; the batch window is its floor.
            processing_time: 0.000_1,
            batch_delay: 0.002,
            pipeline_window: 4,
            checkpoint_period: 100,
            signature_time: 0.0,
            request_timeout: 10.0,
            network: NetworkConfig::ideal(),
            seed,
            ..MinBftConfig::default()
        };
        config
            .validate()
            .expect("the probe's batch window admits full batches");
        let mut cluster = MinBftCluster::new(config);
        let start = Instant::now();
        let report = cluster.run_workload(&WorkloadConfig {
            clients: 16,
            arrival: Arrival::Closed,
            duration: 4.0,
            key_space: 64,
            write_ratio: 0.5,
            seed,
        });
        let wall = start.elapsed().as_secs_f64();
        let completed = report.completed_requests.max(1) as f64;
        let retained = cluster
            .membership()
            .to_vec()
            .into_iter()
            .filter_map(|id| cluster.retained_stats(id))
            .map(|stats| stats.retained_log)
            .max()
            .unwrap_or(0);
        (
            wall * 1e6 / completed,
            cluster.network_stats().sent as f64 / completed,
            retained,
            cluster.logs_are_consistent() && report.completed_requests > 0,
        )
    });
    outcome.set("minbft.cpu_us_per_req", cpu_us);
    outcome.set("minbft.sim_msgs_per_req", msgs_per_req);
    outcome.set("minbft.retained_log_max", retained as f64);
    outcome.gate(
        "minbft probe logs consistent",
        consistent,
        "simulated 4-replica cluster".into(),
    );
}

/// `usig.*` and `metrics.*`: the two per-message primitives under the
/// protocol (one certificate per PREPARE/COMMIT, one histogram record per
/// completed request when autotuning observes).
pub fn usig_and_metrics(tracer: &mut Tracer, outcome: &mut Outcome) {
    let ((create_ns, verify_ns, record_ns, quantile_ns), _) =
        tracer.span("probe:usig+metrics", |_| {
            let keys = KeyPair::derive(0, 7);
            let mut directory = KeyDirectory::new();
            directory.register(&keys);
            let mut usig = Usig::new(keys);
            let verifier = UsigVerifier::new(directory);
            let digest = Digest(0x5eed);
            let create_ns = time_ns_per_call(PROBE_BUDGET_S, || {
                black_box(usig.create_ui(black_box(digest)));
            });
            let ui = usig.create_ui(digest);
            assert!(verifier.verify_certificate(digest, &ui));
            let verify_ns = time_ns_per_call(PROBE_BUDGET_S, || {
                black_box(verifier.verify_certificate(black_box(digest), black_box(&ui)));
            });
            let mut histogram = LatencyHistogram::new();
            let mut latency = 1e-4;
            let record_ns = time_ns_per_call(PROBE_BUDGET_S, || {
                // A cheap walk over four decades, so records land in many
                // buckets like real latencies do.
                latency = if latency > 1.0 { 1e-4 } else { latency * 1.01 };
                histogram.record(black_box(latency));
            });
            let quantile_ns = time_ns_per_call(PROBE_BUDGET_S, || {
                black_box(histogram.quantile(black_box(0.99)));
            });
            (create_ns, verify_ns, record_ns, quantile_ns)
        });
    outcome.set("usig.create_ui_ns", create_ns);
    outcome.set("usig.verify_ns", verify_ns);
    outcome.set("metrics.hist_record_ns", record_ns);
    outcome.set("metrics.hist_quantile_ns", quantile_ns);
}

/// `simnet.schedule_generate_us`: mean microseconds to draw one fleet
/// schedule, over the three families `sim-sweep` runs.
pub fn schedule_generate(seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) {
    let (generate_ns, _) = tracer.span("probe:simnet.schedule", |_| {
        let configs = [
            fleet_scale_config(16),
            sharded_fleet_controlled_config(),
            load_swing_config(),
        ];
        let mut next = seed;
        time_ns_per_call(PROBE_BUDGET_S * 4.0, || {
            for config in &configs {
                black_box(ShardedFaultSchedule::generate(next, config));
            }
            next = next.wrapping_add(1);
        }) / configs.len() as f64
    });
    outcome.set("simnet.schedule_generate_us", generate_ns / 1e3);
}

/// `controlplane.tick_us`: one `ControlPlane::tick` over a healthy
/// 5-replica simulated cluster, three IDS events per replica per tick (the
/// live scenario's observation rate).
pub fn control_tick(seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) {
    let (tick_ns, _) = tracer.span("probe:controlplane.tick", |_| {
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 5,
            seed,
            ..MinBftConfig::default()
        });
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            delta_r: Some(200),
            min_replicas: 4,
            max_replicas: 8,
            fault_threshold: 2,
            availability_target: 0.98,
            ..ControlPlaneConfig::default()
        })
        .expect("the live scenario's control configuration is valid");
        let alerts = ObservationModel::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        time_ns_per_call(PROBE_BUDGET_S * 4.0, || {
            let members = cluster.membership().to_vec();
            let events: Vec<[u64; 3]> = members
                .iter()
                .map(|_| std::array::from_fn(|_| alerts.sample(NodeState::Healthy, &mut rng)))
                .collect();
            let observations: Vec<_> = members
                .iter()
                .zip(&events)
                .map(|(&id, events)| (id, NodeReport::Events(events.as_slice())))
                .collect();
            black_box(plane.tick(&observations, &mut cluster, &mut rng));
        })
    });
    outcome.set("controlplane.tick_us", tick_ns / 1e3);
}

/// `pomdp.*`: the controller's belief update and one exact
/// incremental-pruning backup on the paper's node POMDP.
pub fn pomdp(tracer: &mut Tracer, outcome: &mut Outcome) {
    let ((belief_ns, backup_ns), _) = tracer.span("probe:pomdp", |_| {
        let model = NodeModel::new(NodeParameters::default(), ObservationModel::paper_default())
            .expect("the paper's node model is valid");
        let mut belief = 0.1;
        let mut alerts = 0u64;
        let belief_ns = time_ns_per_call(PROBE_BUDGET_S, || {
            alerts = (alerts + 1) % 11;
            belief = model.belief_update(black_box(belief), NodeAction::Wait, alerts);
            black_box(belief);
        });
        let pomdp = model.to_pomdp(2.0, 0.95).expect("valid POMDP");
        let solver = IncrementalPruning::new(IncrementalPruningConfig {
            max_vectors_per_stage: Some(32),
            ..IncrementalPruningConfig::default()
        });
        // Backups from the zero value function grow the vector set; time
        // the third, which prunes a set of realistic size.
        let mut value = ValueFunction::default();
        for _ in 0..2 {
            value = solver.backup(&pomdp, &value).expect("backup succeeds");
        }
        let backup_ns = time_ns_per_call(PROBE_BUDGET_S * 4.0, || {
            black_box(
                solver
                    .backup(&pomdp, black_box(&value))
                    .expect("backup succeeds"),
            );
        });
        (belief_ns, backup_ns)
    });
    outcome.set("pomdp.belief_update_ns", belief_ns);
    outcome.set("pomdp.ip_backup_ms", backup_ns / 1e6);
}

/// The analytic message mix of one `socket-kv` request at n = 4, batch 16:
/// the client broadcasts 4 Requests and receives 4 Replies; per batch the
/// leader broadcasts 3 PREPAREs and each of the three followers broadcasts
/// its COMMIT to the other three replicas (the leader's PREPARE stands in
/// for its own vote). The measured 8.77 messages per request agree.
const MIX_PER_REQUEST: [(&str, f64); 4] = [
    ("request", 4.0),
    ("reply", 4.0),
    ("prepare16", 3.0 / 16.0),
    ("commit", 9.0 / 16.0),
];

/// `attribution.*`: where a `socket-kv` request's time goes, by
/// difference against the same service on channels. The per-request time is
/// `1e6 / throughput_rps` µs of wall clock. The wire share is the mix's
/// encode + decode time (an upper bound on what a free codec could save,
/// since codec work on different threads overlaps). The hop share is what
/// the socket plane costs beyond the channel plane that the codec does not
/// explain: syscalls, reader/writer hand-offs and wake-ups. The rest is the
/// protocol and the channel plane, which both workloads pay.
pub fn attribute_socket(
    wire_costs: &[(&'static str, f64, f64)],
    socket_rps: f64,
    channel_rps: f64,
    msgs_per_req: f64,
    outcome: &mut Outcome,
) {
    let socket_us = 1e6 / socket_rps.max(1e-9);
    let channel_us = 1e6 / channel_rps.max(1e-9);
    let wire_us: f64 = MIX_PER_REQUEST
        .iter()
        .map(|(shape, count)| {
            let codec_ns = wire_costs
                .iter()
                .find(|(name, _, _)| name == shape)
                .map_or(0.0, |(_, encode_ns, decode_ns)| encode_ns + decode_ns);
            count * codec_ns / 1e3
        })
        .sum();
    let modelled_msgs: f64 = MIX_PER_REQUEST.iter().map(|(_, count)| count).sum();
    let hop_us = socket_us - channel_us - wire_us;
    let wire_pct = wire_us / socket_us * 100.0;
    let hop_pct = hop_us / socket_us * 100.0;
    outcome.set("attribution.wire_pct", wire_pct);
    outcome.set("attribution.hop_pct", hop_pct);
    outcome.set("attribution.mix_residual", msgs_per_req - modelled_msgs);
    let larger = if wire_pct > hop_pct {
        "the codec"
    } else {
        "the hop"
    };
    outcome.notes.push(format!(
        "attribution of one socket-kv request: {socket_us:.1} us (= 1e6 / {socket_rps:.0} req/s) = \
         wire {wire_us:.1} us ({wire_pct:.1} %; encode + decode of 4 Request + 4 Reply + 3/16 PREPARE + \
         9/16 COMMIT) + hop {hop_us:.1} us ({hop_pct:.1} %; socket minus channel minus wire) + protocol \
         and channel plane {channel_us:.1} us (= 1e6 / {channel_rps:.0} req/s on channels); {larger} is \
         larger; measured {msgs_per_req:.2} vs modelled {modelled_msgs:.2} messages per request"
    ));
}
