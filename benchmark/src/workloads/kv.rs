//! `channel-kv` and `socket-kv`: the same replicated key-value service and
//! the same client op streams, once over in-process channels and once over
//! loopback TCP.
//!
//! Closed loop, 16 clients: a MinBFT client has one outstanding request by
//! protocol, so callers wait for replies. The load generator is one thread
//! of this process (the `ClientDriver` pump); the replica, reader and writer
//! threads are the program's.

use crate::harness::{
    process_cpu_seconds, rep_seed, since_process_start, timed_reps, trace_overhead_pct, ColdSetups,
    Repeat, RunOpts,
};
use crate::report::Outcome;
use crate::stats::{highest_supported_percentile, mean, median, percentile_of_sorted};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use tolerance_consensus::minbft::CLIENT_ID_BASE;
use tolerance_consensus::threaded::snapshots_consistent;
use tolerance_consensus::workload::OpStream;
use tolerance_consensus::{
    ClientDriver, ClientReport, MembershipView, NodeId, ReplicaSnapshot, SocketReplicaNode,
    SocketStats, SocketTransport, ThreadedCluster, ThreadedServiceConfig,
};

/// Which transport carries the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// `ThreadedCluster` over `ThreadedTransport` (bounded channels).
    Channel,
    /// `SocketReplicaNode`s over loopback TCP, assembled as
    /// `run_socket_service` assembles them.
    Socket,
}

/// How long the driver may take to collect the replies still in flight
/// when the submission window closes (`run_socket_service` uses the same).
const DRAIN_DEADLINE_S: f64 = 10.0;

/// The service both planes run: 4 replicas, 16 closed-loop clients, batch
/// 16, pipeline window 4, checkpoint every 100 sequences, 64 keys, half
/// writes.
pub fn service_config(seed: u64) -> ThreadedServiceConfig {
    ThreadedServiceConfig {
        replicas: 4,
        clients: 16,
        batch_size: 16,
        pipeline_window: 4,
        checkpoint_period: 100,
        key_space: 64,
        write_ratio: 0.5,
        seed,
        ..ThreadedServiceConfig::default()
    }
}

/// The per-client operation streams `ClientDriver::new` would build, so the
/// socket plane (which has no `ThreadedCluster` to hand to that
/// constructor) replays exactly the channel plane's requests.
fn op_streams(config: &ThreadedServiceConfig) -> Vec<OpStream> {
    (0..config.clients)
        .map(|index| {
            OpStream::new(
                config.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                config.key_space,
                config.write_ratio,
            )
        })
        .collect()
}

/// Transport counters of one repetition, summed over every hub.
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    sent: u64,
    dropped: u64,
    decode_errors: u64,
    reconnects: u64,
}

impl Traffic {
    fn add_socket(&mut self, stats: SocketStats) {
        self.sent += stats.sent;
        self.dropped += stats.dropped;
        self.decode_errors += stats.decode_errors;
        self.reconnects += stats.reconnects;
    }
}

/// One repetition on a fresh cluster.
struct Rep {
    /// Submission window plus drain: the time the completed requests were
    /// served in.
    serve_s: f64,
    drain_s: f64,
    shutdown_s: f64,
    cpu_s: f64,
    drained: bool,
    client: ClientReport,
    traffic: Traffic,
    snapshots: Vec<ReplicaSnapshot>,
}

/// A running socket service: the client hub plus one thread per replica
/// node.
struct SocketService {
    hub: SocketTransport,
    stops: Vec<Arc<AtomicBool>>,
    workers: Vec<JoinHandle<(ReplicaSnapshot, SocketStats)>>,
}

fn start_socket_service(
    config: &ThreadedServiceConfig,
) -> (
    SocketService,
    ClientDriver<tolerance_consensus::SocketHandle>,
) {
    let membership: Vec<NodeId> = (0..config.replicas as NodeId).collect();
    let mut nodes: Vec<SocketReplicaNode> = membership
        .iter()
        .map(|&id| {
            SocketReplicaNode::bind(id, membership.clone(), "127.0.0.1:0", config)
                .expect("bind replica listener on loopback")
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(SocketReplicaNode::local_addr).collect();
    let mut hub = SocketTransport::bind("127.0.0.1:0", config.channel_capacity)
        .expect("bind client hub listener on loopback");
    let client_ids: Vec<NodeId> = (0..config.clients)
        .map(|i| CLIENT_ID_BASE + i as NodeId)
        .collect();
    let mailbox = hub.register_shared(&client_ids);
    let hub_addr = hub.local_addr();
    for (i, node) in nodes.iter_mut().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                node.add_peer(j as NodeId, addr);
            }
        }
        for &client in &client_ids {
            node.add_peer(client, hub_addr);
        }
    }
    for (j, &addr) in addrs.iter().enumerate() {
        hub.add_peer(j as NodeId, addr);
    }
    let stops = nodes.iter().map(SocketReplicaNode::stop_flag).collect();
    // A node's listener closes when its thread ends. Every node waits here
    // for the others to stop sending first, so the counters read below hold
    // what the service dropped while it served, not frames written to a
    // neighbour that had already gone.
    let all_stopped = Arc::new(Barrier::new(nodes.len()));
    let workers = nodes
        .into_iter()
        .map(|mut node| {
            let all_stopped = Arc::clone(&all_stopped);
            std::thread::spawn(move || {
                let snapshot = node.run();
                all_stopped.wait();
                (snapshot, node.stats())
            })
        })
        .collect();
    let driver = ClientDriver::over_transport(
        hub.handle(),
        mailbox,
        MembershipView::fixed(membership),
        op_streams(config),
        config.request_timeout,
    );
    (
        SocketService {
            hub,
            stops,
            workers,
        },
        driver,
    )
}

impl SocketService {
    /// Stops and joins every replica node, then the hub; returns the final
    /// snapshots and the summed counters.
    fn shutdown(self) -> (Vec<ReplicaSnapshot>, Traffic) {
        for stop in &self.stops {
            stop.store(true, Ordering::Relaxed);
        }
        let mut traffic = Traffic::default();
        let mut snapshots = Vec::new();
        for worker in self.workers {
            let (snapshot, stats) = worker.join().expect("replica node thread panicked");
            snapshots.push(snapshot);
            traffic.add_socket(stats);
        }
        traffic.add_socket(self.hub.stats());
        drop(self.hub);
        (snapshots, traffic)
    }
}

/// Builds a fresh service, serves for `rep_s` seconds and tears it down;
/// every phase is a span.
fn run_rep(plane: Plane, config: &ThreadedServiceConfig, rep_s: f64, tracer: &mut Tracer) -> Rep {
    let rep_span = tracer.begin("rep");
    let rep = match plane {
        Plane::Channel => {
            let ((cluster, mut driver), _) = tracer.span("setup", |_| {
                let mut cluster = ThreadedCluster::new(config);
                let driver = ClientDriver::new(&mut cluster, config.clients);
                (cluster, driver)
            });
            let cpu_start = process_cpu_seconds();
            let (run_s, drain_s, drained) = serve(&mut driver, rep_s, tracer);
            let cpu_s = process_cpu_seconds() - cpu_start;
            let stats = cluster.stats();
            let (snapshots, shutdown_s) = tracer.span("shutdown", |_| cluster.shutdown());
            Rep {
                serve_s: run_s + drain_s,
                drain_s,
                shutdown_s,
                cpu_s,
                drained,
                client: driver.report(),
                traffic: Traffic {
                    sent: stats.sent,
                    dropped: stats.dropped,
                    ..Traffic::default()
                },
                snapshots,
            }
        }
        Plane::Socket => {
            let ((service, mut driver), _) = tracer.span("setup", |_| start_socket_service(config));
            let cpu_start = process_cpu_seconds();
            let (run_s, drain_s, drained) = serve(&mut driver, rep_s, tracer);
            let cpu_s = process_cpu_seconds() - cpu_start;
            let client = driver.report();
            // The driver (and with it the clients' mailbox) outlives the
            // shutdown: a late reply must find its mailbox, not count as a
            // drop.
            let ((snapshots, traffic), shutdown_s) =
                tracer.span("shutdown", |_| service.shutdown());
            Rep {
                serve_s: run_s + drain_s,
                drain_s,
                shutdown_s,
                cpu_s,
                drained,
                client,
                traffic,
                snapshots,
            }
        }
    };
    tracer.end(rep_span);
    rep
}

/// The closed loop for `rep_s` seconds, then the drain. Returns
/// `(run_s, drain_s, drained)`.
fn serve<T>(driver: &mut ClientDriver<T>, rep_s: f64, tracer: &mut Tracer) -> (f64, f64, bool)
where
    T: tolerance_consensus::Transport<tolerance_consensus::minbft::Message>
        + tolerance_consensus::transport::WallClock,
{
    let ((), run_s) = tracer.span("run", |_| driver.run_for(rep_s));
    let (drained, drain_s) = tracer.span("drain", |_| driver.drain(DRAIN_DEADLINE_S));
    (run_s, drain_s, drained)
}

/// The set-up child: builds the service exactly as a repetition does and
/// returns the seconds from process start to the point where the driver
/// could submit its first request, then tears the service down.
pub fn setup_once(plane: Plane, seed: u64) -> f64 {
    let config = service_config(seed);
    match plane {
        Plane::Channel => {
            let mut cluster = ThreadedCluster::new(&config);
            let driver = ClientDriver::new(&mut cluster, config.clients);
            let ready = since_process_start();
            drop(driver);
            cluster.shutdown();
            ready
        }
        Plane::Socket => {
            let (service, driver) = start_socket_service(&config);
            let ready = since_process_start();
            service.shutdown();
            drop(driver);
            ready
        }
    }
}

/// Completed requests per second of one short repetition of the same
/// service on channels: the base the socket attribution subtracts.
pub fn channel_baseline_rps(seed: u64, tracer: &mut Tracer) -> f64 {
    let config = service_config(rep_seed(seed, 2_000));
    let (rep, _) = tracer.span("probe:channel-baseline", |tracer| {
        run_rep(Plane::Channel, &config, 1.0, tracer)
    });
    rep.client.completed as f64 / rep.serve_s
}

/// What the timed repetitions of one run add up to.
pub struct KvSummary {
    /// Median completed requests per second over repetitions.
    pub throughput_rps: f64,
    /// Median messages handed to the transport per completed request.
    pub msgs_per_req: f64,
}

/// Runs the workload and fills `outcome`; returns the figures the socket
/// attribution needs.
pub fn run(plane: Plane, opts: &RunOpts, tracer: &mut Tracer, outcome: &mut Outcome) -> KvSummary {
    let rep_s = opts.seconds / opts.repetitions() as f64;
    let mut setups = ColdSetups::new(opts);
    // One untimed warm-up repetition (page cache, allocator arenas, lazily
    // spawned helper threads of the program).
    setups.sample_group();
    let warm = service_config(rep_seed(opts.seed, 999));
    run_rep(plane, &warm, rep_s.min(1.0), tracer);

    let repeat = Repeat::Times(opts.repetitions());
    let reps = timed_reps(repeat, opts, tracer, &mut setups, |rep, tracer| {
        let config = service_config(rep_seed(opts.seed, rep as u64));
        (config, run_rep(plane, &config, rep_s, tracer))
    });

    let mut throughput = Vec::new();
    let mut latency_mean = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu_per_op = Vec::new();
    let mut msgs_per_req = Vec::new();
    let mut samples_min = usize::MAX;
    let mut suspects = 0u64;
    let mut traffic = Traffic::default();
    let mut undrained = 0u64;
    let mut duplicates = 0usize;
    let mut inconsistent = 0usize;
    let mut stranded = 0usize;
    for (config, rep) in &reps {
        let completed = rep.client.completed.max(1) as f64;
        throughput.push(rep.client.completed as f64 / rep.serve_s);
        latency_mean.push(rep.client.mean_latency() * 1e3);
        cpu_per_op.push(rep.cpu_s * 1e6 / completed);
        msgs_per_req.push(rep.traffic.sent as f64 / completed);
        let mut sorted = rep.client.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        p50.push(percentile_of_sorted(&sorted, 50.0) * 1e3);
        p99.push(percentile_of_sorted(&sorted, 99.0) * 1e3);
        samples_min = samples_min.min(sorted.len());
        // The driver restarts a request's clock when it retransmits, so a
        // sample at or beyond the timeout would be understated.
        suspects += sorted
            .iter()
            .filter(|&&latency| latency >= config.request_timeout)
            .count() as u64;
        traffic.sent += rep.traffic.sent;
        traffic.dropped += rep.traffic.dropped;
        traffic.decode_errors += rep.traffic.decode_errors;
        traffic.reconnects += rep.traffic.reconnects;
        if !rep.drained {
            // The public report does not say how many requests were still
            // out; every client may have had one.
            undrained += config.clients as u64;
        }
        let mut digests: Vec<u64> = rep.client.completed_digests.iter().map(|d| d.0).collect();
        digests.sort_unstable();
        duplicates += digests.windows(2).filter(|pair| pair[0] == pair[1]).count();
        inconsistent += usize::from(!snapshots_consistent(&rep.snapshots));
        stranded += rep.snapshots.iter().filter(|s| s.needs_state).count();
    }
    let completed_total: u64 = reps.iter().map(|(_, rep)| rep.client.completed).sum();

    outcome.set("setup_s", setups.median());
    outcome.set("throughput_per_s", median(&throughput));
    outcome.set("client.latency_mean_ms", median(&latency_mean));
    outcome.set("process.cpu_us_per_op", median(&cpu_per_op));
    if opts.trace {
        outcome.set("trace.overhead_pct", trace_overhead_pct(&throughput));
    }
    outcome.set("client.latency_p50_ms", median(&p50));
    outcome.set("client.latency_p99_ms", median(&p99));
    outcome.set("client.latency_samples", samples_min as f64);
    outcome.set("client.retransmit_suspects", suspects as f64);
    let drain_s = median(&reps.iter().map(|(_, rep)| rep.drain_s).collect::<Vec<_>>());
    let shutdown_s = median(
        &reps
            .iter()
            .map(|(_, rep)| rep.shutdown_s)
            .collect::<Vec<_>>(),
    );
    match plane {
        Plane::Channel => {
            outcome.set("transport.msgs_per_req", median(&msgs_per_req));
            outcome.set("transport.dropped", traffic.dropped as f64);
            outcome.set("threaded.shutdown_s", shutdown_s);
        }
        Plane::Socket => {
            outcome.set("socket.msgs_per_req", median(&msgs_per_req));
            outcome.set("socket.dropped", traffic.dropped as f64);
            outcome.set("socket.decode_errors", traffic.decode_errors as f64);
            outcome.set("socket.reconnects", traffic.reconnects as f64);
            outcome.set("socket.drain_s", drain_s);
            outcome.set("socket.shutdown_s", shutdown_s);
        }
    }
    outcome.notes.push(format!(
        "{} timed repetitions of {rep_s:.2} s, {} cold set-ups; latency percentiles over >= {samples_min} \
         samples per repetition (highest supported percentile: p{}), mean of per-repetition means \
         {:.4} ms; requests/s per repetition {:.0?}",
        reps.len(),
        setups.len(),
        highest_supported_percentile(samples_min).unwrap_or(0.0),
        mean(&latency_mean),
        throughput,
    ));

    outcome.attempted += completed_total + undrained;
    outcome.failed += undrained + suspects;
    outcome.gate(
        "requests drained",
        undrained == 0,
        format!("<= {undrained} requests still outstanding after {DRAIN_DEADLINE_S} s"),
    );
    outcome.gate(
        "snapshots_consistent",
        inconsistent == 0 && stranded == 0,
        format!("{inconsistent} repetitions diverged, {stranded} replicas ended awaiting state"),
    );
    // Drops are reported, not gated. The protocol tolerates a dropped
    // message (the gates above prove every request still completed exactly
    // once on consistent logs), and on a shared host a replica thread that
    // loses its processor overflows its 4096-slot mailbox about once in
    // twenty runs — from two thousand messages up to 1.7 % of a run's
    // traffic. A malformed frame is never the host's doing.
    outcome.notes.push(format!(
        "{} of {} messages dropped by full mailboxes or queues",
        traffic.dropped, traffic.sent
    ));
    outcome.gate(
        "no decode error",
        traffic.decode_errors == 0,
        format!("{} frames failed to decode", traffic.decode_errors),
    );
    outcome.gate(
        "completed digests unique",
        duplicates == 0,
        format!("{duplicates} duplicate digests among {completed_total} completed"),
    );
    outcome.gate(
        "no latency at or beyond the request timeout",
        suspects == 0,
        format!("{suspects} retransmit suspects"),
    );
    outcome.gate(
        "p99 supported by the sample",
        samples_min >= 1_000,
        format!("{samples_min} samples in the smallest repetition"),
    );
    KvSummary {
        throughput_rps: median(&throughput),
        msgs_per_req: median(&msgs_per_req),
    }
}
