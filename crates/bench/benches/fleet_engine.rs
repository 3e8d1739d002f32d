//! Benchmark of the fleet harness's scheduler: shard-steps/sec at
//! S ∈ {4, 16, 64} shards on the default worker count, plus the
//! worker-scaling axis {1, 2, 4, 8} at S = 64.
//!
//! Every timed run executes under the **full oracle suite** (a violation
//! fails the bench), so the steps/sec numbers cannot be bought by skipping
//! checks, and every worker count is asserted byte-identical to the
//! one-worker run before it is timed — the bench measures the same
//! computation, scheduled differently. The throughput unit is
//! **shard-steps/sec** (simulated steps × shards), the work unit that
//! actually parallelizes.
//!
//! The "best worker count ≥ 2× one worker at S = 64" assertion arms only
//! outside smoke mode on hosts with ≥ 4 hardware threads — a 1-CPU CI
//! runner records the numbers without judging them (`scaling_asserted:
//! false` in the artifact). Non-smoke cells accumulate ≥ 2s of measurement
//! each.
//!
//! Besides the console report, the bench writes `BENCH_fleet_engine.json`
//! to the workspace root — uploaded by the CI `fleet-smoke` job so the
//! scheduler's scaling trajectory accumulates.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::time::Instant;
use tolerance_core::simnet::{
    fleet_scale_config, run_sharded_schedule_on, ShardedFaultSchedule, ShardedScheduleConfig,
};

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn seeds() -> u64 {
    if smoke() {
        1
    } else {
        2
    }
}

fn min_seconds_per_cell() -> f64 {
    if smoke() {
        0.0
    } else {
        2.0
    }
}

#[derive(Serialize)]
struct Cell {
    shards: usize,
    workers: usize,
    sweeps: usize,
    shard_steps_per_sweep: u64,
    seconds_best: f64,
    shard_steps_per_second: f64,
}

#[derive(Serialize)]
struct FleetBenchReport {
    benchmark: String,
    host_parallelism: usize,
    smoke: bool,
    seeds: u64,
    min_seconds_per_cell: f64,
    /// The default worker count (`host_parallelism`) at each fleet size.
    cells: Vec<Cell>,
    /// The worker grid at S = 64.
    worker_scaling: Vec<Cell>,
    speedup_best_over_one_worker_s64: f64,
    /// Whether the ≥ 2× assertion was armed (≥ 4 hardware threads, full
    /// mode) — `false` means the numbers are report-only.
    scaling_asserted: bool,
}

/// Times `workers` over the seed sweep of `config`, repeating until the
/// cell accumulated its minimum measurement window. The first seed must
/// replay byte-identically to the one-worker run, and every run must stay
/// oracle-green.
fn time_cell(config: &ShardedScheduleConfig, workers: usize) -> Cell {
    let schedules: Vec<ShardedFaultSchedule> = (0..seeds())
        .map(|seed| ShardedFaultSchedule::generate(seed, config))
        .collect();
    let run = |schedule, workers| {
        run_sharded_schedule_on(schedule, config, workers).expect("harness constructs")
    };
    assert_eq!(
        serde_json::to_string(&run(&schedules[0], 1).trace).expect("serializable"),
        serde_json::to_string(&run(&schedules[0], workers).trace).expect("serializable"),
        "S={}: {workers} workers diverged from one worker",
        config.shards
    );
    let mut samples: Vec<f64> = Vec::new();
    let mut accumulated = 0.0;
    let mut shard_steps = 0u64;
    while samples.is_empty() || (accumulated < min_seconds_per_cell() && samples.len() < 64) {
        let start = Instant::now();
        shard_steps = 0;
        for schedule in &schedules {
            let report = run(schedule, workers);
            assert!(
                report.violation.is_none(),
                "S={} workers={workers}: oracle violation in bench: {:?}",
                config.shards,
                report.violation
            );
            shard_steps += report.outcome.steps * config.shards as u64;
        }
        let elapsed = start.elapsed().as_secs_f64();
        accumulated += elapsed;
        samples.push(elapsed);
    }
    let seconds_best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    Cell {
        shards: config.shards,
        workers,
        sweeps: samples.len(),
        shard_steps_per_sweep: shard_steps,
        seconds_best,
        shard_steps_per_second: shard_steps as f64 / seconds_best.max(f64::MIN_POSITIVE),
    }
}

fn bench_fleet_engine(_c: &mut Criterion) {
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let cells: Vec<Cell> = [4usize, 16, 64]
        .into_iter()
        .map(|shards| time_cell(&fleet_scale_config(shards), host_parallelism))
        .collect();
    let scaling_config = fleet_scale_config(64);
    let worker_scaling: Vec<Cell> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| time_cell(&scaling_config, workers))
        .collect();

    let best = worker_scaling
        .iter()
        .map(|cell| cell.shard_steps_per_second)
        .fold(0.0, f64::max);
    let speedup = best
        / worker_scaling[0]
            .shard_steps_per_second
            .max(f64::MIN_POSITIVE);
    let scaling_asserted = !smoke() && host_parallelism >= 4;
    if scaling_asserted {
        assert!(
            speedup >= 2.0,
            "the scheduler must reach ≥ 2x one worker at S=64 on a ≥ 4-core host, got \
             {speedup:.2}x"
        );
    }

    let report = FleetBenchReport {
        benchmark: "fleet_engine".into(),
        host_parallelism,
        smoke: smoke(),
        seeds: seeds(),
        min_seconds_per_cell: min_seconds_per_cell(),
        cells,
        worker_scaling,
        speedup_best_over_one_worker_s64: speedup,
        scaling_asserted,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_fleet_engine.json");
    std::fs::write(&path, &json).expect("write bench artifact");
    for cell in report.cells.iter().chain(&report.worker_scaling) {
        println!(
            "S={:>3} {:>2} workers: {:>10.0} shard-steps/s over {} sweeps",
            cell.shards, cell.workers, cell.shard_steps_per_second, cell.sweeps
        );
    }
    println!(
        "best/one-worker at S=64: {speedup:.2}x on {host_parallelism} hardware threads \
         (assertion {})",
        if scaling_asserted {
            "armed"
        } else {
            "report-only"
        },
    );
}

criterion_group!(benches, bench_fleet_engine);
criterion_main!(benches);
