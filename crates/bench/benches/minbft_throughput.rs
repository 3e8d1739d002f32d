//! Throughput bench of the MinBFT service data plane.
//!
//! Measures requests/sec of the batched pipeline at batch sizes
//! {1, 16, 64, 256} under one fixed closed-loop workload (the batching
//! speedup comes from amortizing one USIG signature + one quorum round per
//! batch), verifies that checkpoint compaction bounds retained log memory
//! across a 10k-request run, and measures the threaded (one OS thread per
//! replica) service for a wall-clock data point. Also keeps the Fig. 10
//! cluster-size sweep of the paper.
//!
//! Besides the console report, the bench writes
//! `BENCH_minbft_throughput.json` to the working directory — the artifact
//! the CI bench-smoke job uploads so the performance trajectory
//! accumulates. Set `BENCH_SMOKE=1` to run a reduced configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use tolerance_consensus::socket::run_socket_service;
use tolerance_consensus::threaded::{run_threaded_service, ThreadedServiceConfig};
use tolerance_consensus::workload::{Arrival, WorkloadConfig};
use tolerance_consensus::{MinBftCluster, MinBftConfig, NetworkConfig};

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn bench_cluster(batch_size: usize, checkpoint_period: u64) -> MinBftCluster {
    MinBftCluster::new(MinBftConfig {
        initial_replicas: 4,
        batch_size,
        // Must exceed batch_size * per-message cost, or the age-based flush
        // fragments every batch before it fills.
        batch_delay: 0.1,
        checkpoint_period,
        // The cost batching amortizes: one USIG signature per PREPARE/COMMIT
        // (the paper's testbed signs with RSA-1024).
        signature_time: 0.002,
        // Saturated closed loops push latency past the protocol timeout;
        // the bench measures the data plane, not view-change churn.
        request_timeout: 10.0,
        network: NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        },
        seed: 7,
        ..MinBftConfig::default()
    })
}

#[derive(Serialize)]
struct BatchMeasurement {
    batch_size: usize,
    completed_requests: u64,
    requests_per_second: f64,
    mean_latency: f64,
}

#[derive(Serialize)]
struct BoundedMemoryMeasurement {
    requests_executed: u64,
    checkpoint_period: u64,
    batch_size: usize,
    /// `2 * checkpoint_period`: the regression bound on every retained
    /// structure below.
    bound: u64,
    max_retained_log: usize,
    max_prepared: usize,
    max_commit_votes: usize,
    max_checkpoint_votes: usize,
    min_log_start: u64,
}

#[derive(Serialize)]
struct ThreadedMeasurement {
    replicas: usize,
    clients: usize,
    batch_size: usize,
    wall_seconds: f64,
    completed_requests: u64,
    requests_per_second: f64,
    consistent: bool,
    transport_sent: u64,
    transport_dropped: u64,
}

#[derive(Serialize)]
struct PipelineMeasurement {
    pipeline_window: usize,
    completed_requests: u64,
    wall_seconds: f64,
    requests_per_second: f64,
    mean_latency: f64,
    consistent: bool,
}

#[derive(Serialize)]
struct PipelineAxis {
    /// Per-UI USIG signing cost the pipeline overlaps with network RTT.
    signature_time: f64,
    batch_size: usize,
    windows: Vec<PipelineMeasurement>,
    speedup_window4_over_window1: f64,
    /// Whether the ≥ 1.5x assertion was armed (enough hardware threads to
    /// actually run 4 replicas + clients concurrently) — `false` means the
    /// numbers are report-only.
    speedup_asserted: bool,
}

#[derive(Serialize)]
struct SocketMeasurement {
    transport: String,
    completed_requests: u64,
    wall_seconds: f64,
    requests_per_second: f64,
    mean_latency: f64,
    consistent: bool,
    transport_sent: u64,
    transport_dropped: u64,
}

#[derive(Serialize)]
struct Fig10Row {
    replicas: usize,
    clients: usize,
    requests_per_second: f64,
}

#[derive(Serialize)]
struct ThroughputBenchReport {
    benchmark: String,
    replicas: usize,
    clients: usize,
    duration: f64,
    signature_time: f64,
    batches: Vec<BatchMeasurement>,
    speedup_batch64_over_batch1: f64,
    bounded_memory: BoundedMemoryMeasurement,
    threaded: ThreadedMeasurement,
    pipeline: PipelineAxis,
    socket_vs_channel: Vec<SocketMeasurement>,
    fig10: Vec<Fig10Row>,
}

/// One closed-loop workload, identical across batch sizes.
fn batch_sweep(clients: usize, duration: f64) -> Vec<BatchMeasurement> {
    [1usize, 16, 64, 256]
        .into_iter()
        .map(|batch_size| {
            let mut cluster = bench_cluster(batch_size, 0);
            let report = cluster.run_workload(&WorkloadConfig {
                clients,
                arrival: Arrival::Closed,
                duration,
                key_space: 64,
                write_ratio: 0.5,
                seed: 7,
            });
            assert!(
                cluster.logs_are_consistent(),
                "batch {batch_size}: logs diverged"
            );
            BatchMeasurement {
                batch_size,
                completed_requests: report.completed_requests,
                requests_per_second: report.requests_per_second,
                mean_latency: report.mean_latency,
            }
        })
        .collect()
}

/// Drives a compacting cluster until `target` requests executed and reports
/// the retained-structure high-water marks.
fn bounded_memory_run(clients: usize, target: u64) -> BoundedMemoryMeasurement {
    let batch_size = 64;
    let checkpoint_period = 50;
    let mut cluster = bench_cluster(batch_size, checkpoint_period);
    let workload = WorkloadConfig {
        clients,
        arrival: Arrival::Closed,
        duration: 2.0,
        key_space: 256,
        write_ratio: 0.5,
        seed: 11,
    };
    let executed_frontier = |cluster: &MinBftCluster| {
        cluster
            .membership()
            .to_vec()
            .into_iter()
            .filter_map(|id| cluster.executed_len(id))
            .max()
            .unwrap_or(0)
    };
    cluster.run_workload(&workload);
    let mut executed = executed_frontier(&cluster);
    // The workload's clients stay closed-loop: extending the run in slices
    // keeps the request stream flowing until the target count is reached.
    let mut slices = 0;
    while executed < target && slices < 200 {
        let now = cluster.now();
        cluster.run_until(now + 2.0);
        executed = executed_frontier(&cluster);
        slices += 1;
    }
    let members = cluster.membership().to_vec();
    let stats: Vec<_> = members
        .iter()
        .filter_map(|&id| cluster.retained_stats(id))
        .collect();
    assert!(cluster.logs_are_consistent(), "bounded-memory run diverged");
    let bound = 2 * checkpoint_period * batch_size as u64;
    let measurement = BoundedMemoryMeasurement {
        requests_executed: executed,
        checkpoint_period,
        batch_size,
        bound,
        max_retained_log: stats.iter().map(|s| s.retained_log).max().unwrap_or(0),
        max_prepared: stats.iter().map(|s| s.prepared).max().unwrap_or(0),
        max_commit_votes: stats.iter().map(|s| s.commit_votes).max().unwrap_or(0),
        max_checkpoint_votes: stats.iter().map(|s| s.checkpoint_votes).max().unwrap_or(0),
        min_log_start: stats.iter().map(|s| s.log_start).min().unwrap_or(0),
    };
    assert!(
        (measurement.max_retained_log as u64) < bound,
        "retained log {} exceeds bound {bound} after {executed} requests",
        measurement.max_retained_log
    );
    assert!(
        measurement.min_log_start > 0,
        "no compaction happened across {executed} requests"
    );
    measurement
}

/// The pipelined-vs-serial axis: the threaded service at nonzero USIG
/// signing cost, pipeline_window 1 (strictly serial: one in-flight
/// sequence) against wider windows. Signing is paid by a real sleep on the
/// replica thread, so a serial window stacks sign + round trip per
/// sequence while a wide window overlaps them.
fn pipeline_sweep(duration: f64) -> PipelineAxis {
    let signature_time = 0.002;
    let batch_size = 1;
    let windows: Vec<PipelineMeasurement> = [1usize, 4, 8]
        .into_iter()
        .map(|pipeline_window| {
            let report = run_threaded_service(&ThreadedServiceConfig {
                replicas: 4,
                clients: 8,
                batch_size,
                pipeline_window,
                signature_time,
                checkpoint_period: 100,
                duration,
                ..ThreadedServiceConfig::default()
            });
            assert!(report.consistent, "window {pipeline_window}: logs diverged");
            assert!(
                report.completed_requests > 0,
                "window {pipeline_window}: nothing completed"
            );
            PipelineMeasurement {
                pipeline_window,
                completed_requests: report.completed_requests,
                wall_seconds: report.duration,
                requests_per_second: report.requests_per_second,
                mean_latency: report.mean_latency,
                consistent: report.consistent,
            }
        })
        .collect();
    let rps = |window: usize| {
        windows
            .iter()
            .find(|m| m.pipeline_window == window)
            .map(|m| m.requests_per_second)
            .unwrap_or(0.0)
    };
    let speedup = rps(4) / rps(1).max(1e-9);
    // 4 replica threads + the client driver: on smaller hosts the replicas
    // time-share a core and the overlap the window buys is scheduled away,
    // so the gate becomes report-only (same policy as the sharded scaling
    // bench).
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let speedup_asserted = host_parallelism >= 4;
    if speedup_asserted {
        assert!(
            speedup >= 1.5,
            "pipeline_window=4 must beat window=1 by ≥ 1.5x at \
             signature_time={signature_time}s, got {speedup:.2}x"
        );
    }
    PipelineAxis {
        signature_time,
        batch_size,
        windows,
        speedup_window4_over_window1: speedup,
        speedup_asserted,
    }
}

/// The socket-vs-channel axis: the identical pipelined workload over the
/// in-process channel hub and over real loopback TCP (wire codec + kernel
/// round trips). Report-only — the point is recording what the real
/// serialization and syscalls cost.
fn socket_vs_channel(duration: f64) -> Vec<SocketMeasurement> {
    let config = ThreadedServiceConfig {
        replicas: 4,
        clients: 8,
        batch_size: 4,
        pipeline_window: 4,
        checkpoint_period: 100,
        duration,
        ..ThreadedServiceConfig::default()
    };
    let channel = run_threaded_service(&config);
    let socket = run_socket_service(&config);
    assert!(channel.consistent, "channel transport: logs diverged");
    assert!(socket.consistent, "socket transport: logs diverged");
    assert!(
        socket.completed_requests > 0,
        "the socket service must complete requests"
    );
    [("channel", channel), ("socket", socket)]
        .into_iter()
        .map(|(transport, report)| SocketMeasurement {
            transport: transport.to_string(),
            completed_requests: report.completed_requests,
            wall_seconds: report.duration,
            requests_per_second: report.requests_per_second,
            mean_latency: report.mean_latency,
            consistent: report.consistent,
            transport_sent: report.transport.sent,
            transport_dropped: report.transport.dropped,
        })
        .collect()
}

fn bench_data_plane(_c: &mut Criterion) {
    let (clients, duration, mem_target, threaded_secs) = if smoke() {
        (64usize, 1.0, 2_000u64, 0.3)
    } else {
        (256usize, 3.0, 10_000u64, 0.6)
    };

    let batches = batch_sweep(clients, duration);
    let rps = |batch: usize| {
        batches
            .iter()
            .find(|m| m.batch_size == batch)
            .map(|m| m.requests_per_second)
            .unwrap_or(0.0)
    };
    let speedup = rps(64) / rps(1).max(1e-9);
    assert!(
        speedup >= 5.0,
        "batch=64 must be ≥ 5x batch=1 on the same workload, got {speedup:.2}x"
    );

    let bounded_memory = bounded_memory_run(clients, mem_target);

    let pipeline = pipeline_sweep(if smoke() { 0.4 } else { 1.0 });
    let socket_rows = socket_vs_channel(if smoke() { 0.4 } else { 1.0 });

    let threaded_report = run_threaded_service(&ThreadedServiceConfig {
        replicas: 4,
        clients: 16,
        batch_size: 16,
        checkpoint_period: 100,
        duration: threaded_secs,
        ..ThreadedServiceConfig::default()
    });
    assert!(threaded_report.consistent, "threaded logs diverged");

    // Fig. 10 shape: throughput vs cluster size at 20 closed-loop clients.
    let fig10: Vec<Fig10Row> = [3usize, 5, 7, 10]
        .into_iter()
        .map(|n| {
            let mut cluster = MinBftCluster::new(MinBftConfig {
                initial_replicas: n,
                seed: 7,
                ..MinBftConfig::default()
            });
            let report = cluster.run_workload(&WorkloadConfig {
                clients: 20,
                arrival: Arrival::Closed,
                duration: if smoke() { 2.0 } else { 5.0 },
                key_space: 0,
                write_ratio: 1.0,
                ..WorkloadConfig::default()
            });
            Fig10Row {
                replicas: n,
                clients: 20,
                requests_per_second: report.requests_per_second,
            }
        })
        .collect();

    let report = ThroughputBenchReport {
        benchmark: "minbft_throughput_data_plane".into(),
        replicas: 4,
        clients,
        duration,
        signature_time: 0.002,
        batches,
        speedup_batch64_over_batch1: speedup,
        bounded_memory,
        threaded: ThreadedMeasurement {
            replicas: threaded_report.replicas,
            clients: threaded_report.clients,
            batch_size: 16,
            wall_seconds: threaded_report.duration,
            completed_requests: threaded_report.completed_requests,
            requests_per_second: threaded_report.requests_per_second,
            consistent: threaded_report.consistent,
            transport_sent: threaded_report.transport.sent,
            transport_dropped: threaded_report.transport.dropped,
        },
        pipeline,
        socket_vs_channel: socket_rows,
        fig10,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    // Anchor the artifact at the workspace root regardless of the bench's
    // working directory.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_minbft_throughput.json");
    std::fs::write(&path, &json).expect("write bench artifact");
    for m in &report.batches {
        println!(
            "batch {:>3}: {:8.1} req/s ({} completed, mean latency {:.4}s)",
            m.batch_size, m.requests_per_second, m.completed_requests, m.mean_latency
        );
    }
    println!(
        "speedup batch64/batch1: {speedup:.2}x; bounded memory: retained {} (bound {}) across \
         {} requests; threaded: {:.1} req/s over {} threads",
        report.bounded_memory.max_retained_log,
        report.bounded_memory.bound,
        report.bounded_memory.requests_executed,
        report.threaded.requests_per_second,
        report.threaded.replicas,
    );
    for m in &report.pipeline.windows {
        println!(
            "pipeline window {:>2}: {:8.1} req/s ({} completed, mean latency {:.4}s)",
            m.pipeline_window, m.requests_per_second, m.completed_requests, m.mean_latency
        );
    }
    println!(
        "speedup window4/window1 at signature_time={}s: {:.2}x ({})",
        report.pipeline.signature_time,
        report.pipeline.speedup_window4_over_window1,
        if report.pipeline.speedup_asserted {
            "asserted ≥ 1.5x"
        } else {
            "report-only: < 4 hardware threads"
        }
    );
    for m in &report.socket_vs_channel {
        println!(
            "{:>7} transport: {:8.1} req/s ({} completed, mean latency {:.4}s, \
             {} sent / {} dropped)",
            m.transport,
            m.requests_per_second,
            m.completed_requests,
            m.mean_latency,
            m.transport_sent,
            m.transport_dropped
        );
    }
}

fn bench_single_batch_commit(c: &mut Criterion) {
    c.bench_function("minbft_batched_commit_round", |b| {
        b.iter(|| {
            let mut cluster = bench_cluster(16, 0);
            let report = cluster.run_workload(&WorkloadConfig {
                clients: 16,
                arrival: Arrival::Closed,
                duration: 0.25,
                ..WorkloadConfig::default()
            });
            assert!(report.completed_requests > 0);
            report.requests_per_second
        });
    });
}

criterion_group!(benches, bench_data_plane, bench_single_batch_commit);
criterion_main!(benches);
