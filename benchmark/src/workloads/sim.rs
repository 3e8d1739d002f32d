//! `sim-sweep`: the deterministic fleet simulator under the full oracle
//! suite.
//!
//! One pass runs seeds `N..N+32` of `fleet_scale_config(16)`, `N..N+100` of
//! `sharded_fleet_controlled_config()` and `N..N+100` of
//! `load_swing_config()` through `run_sharded_schedule` (the default
//! engine), where `N` is `--seed`. Every pass of one run replays the same
//! seeds, so every count repeats exactly from pass to pass, and the passes
//! differ only in wall time.

use crate::harness::{
    process_cpu_seconds, since_process_start, timed_reps, trace_overhead_pct, ColdSetups, Repeat,
    RunOpts,
};
use crate::probes;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;
use tolerance_core::simnet::{
    fleet_scale_config, load_swing_config, run_sharded_schedule, sharded_fleet_controlled_config,
    ShardedFaultSchedule, ShardedScheduleConfig,
};

/// One configuration family of the sweep.
struct Family {
    key: &'static str,
    config: ShardedScheduleConfig,
    seeds: u64,
}

fn families() -> [Family; 3] {
    [
        Family {
            key: "fleet16",
            config: fleet_scale_config(16),
            seeds: 32,
        },
        Family {
            key: "controlled",
            config: sharded_fleet_controlled_config(),
            seeds: 100,
        },
        Family {
            key: "swing",
            config: load_swing_config(),
            seeds: 100,
        },
    ]
}

/// What one family added up to in one pass. Everything but `wall_s` must be
/// identical in every pass.
#[derive(Debug, Clone, PartialEq, Default)]
struct FamilyCounts {
    shard_steps: u64,
    issued: u64,
    completed: u64,
    recoveries: u64,
    committed_sequences: u64,
    recovery_steps_sum: f64,
    multiputs_committed: u64,
    violations: u64,
}

struct Pass {
    run_s: f64,
    cpu_s: f64,
    family_wall_s: Vec<f64>,
    counts: Vec<FamilyCounts>,
    /// Bytes of the JSON-rendered event traces of each family's first seed
    /// and the shard-steps they cover (the warm-up pass only: rendering is
    /// the benchmark's work, not the simulator's).
    trace_bytes: (u64, u64),
}

/// Every schedule of one pass: per family, seeds `seed..seed + seeds`.
fn draw_schedules(seed: u64, families: &[Family]) -> Vec<Vec<ShardedFaultSchedule>> {
    families
        .iter()
        .map(|family| {
            (0..family.seeds)
                .map(|offset| {
                    ShardedFaultSchedule::generate(seed.wrapping_add(offset), &family.config)
                })
                .collect()
        })
        .collect()
}

/// The set-up child: builds the configurations and draws the pass's
/// schedules; returns the seconds from process start to the point where
/// the first simulated run could start.
pub fn setup_once(seed: u64) -> f64 {
    let schedules = draw_schedules(seed, &families());
    let ready = since_process_start();
    std::hint::black_box(schedules);
    ready
}

fn run_pass(seed: u64, families: &[Family], render_traces: bool, tracer: &mut Tracer) -> Pass {
    let pass_span = tracer.begin("rep");
    let (schedules, _) = tracer.span("setup", |_| draw_schedules(seed, families));
    let cpu_start = process_cpu_seconds();
    let mut trace_bytes = (0u64, 0u64);
    let ((family_wall_s, counts), run_s) = tracer.span("run", |_| {
        let mut walls = Vec::new();
        let mut all_counts = Vec::new();
        for (family, schedules) in families.iter().zip(&schedules) {
            let start = Instant::now();
            let mut counts = FamilyCounts::default();
            for (index, schedule) in schedules.iter().enumerate() {
                let report = run_sharded_schedule(schedule, &family.config)
                    .expect("the fleet harness constructs");
                let shard_steps = report.outcome.steps * family.config.shards as u64;
                counts.shard_steps += shard_steps;
                counts.issued += report.outcome.issued;
                counts.completed += report.outcome.completed;
                counts.recoveries += report.outcome.recoveries;
                counts.committed_sequences += report.outcome.committed_sequences;
                counts.recovery_steps_sum += report.outcome.mean_recovery_steps;
                counts.multiputs_committed += report.multi_puts.1;
                counts.violations += u64::from(report.violation.is_some());
                if render_traces && index == 0 {
                    let rendered = serde_json::to_string(&report.trace).expect("traces render");
                    trace_bytes.0 += rendered.len() as u64;
                    trace_bytes.1 += shard_steps;
                }
            }
            walls.push(start.elapsed().as_secs_f64());
            all_counts.push(counts);
        }
        (walls, all_counts)
    });
    let cpu_s = process_cpu_seconds() - cpu_start;
    tracer.end(pass_span);
    Pass {
        run_s,
        cpu_s,
        family_wall_s,
        counts,
        trace_bytes,
    }
}

/// Runs the workload and fills `outcome`.
pub fn run(opts: &RunOpts, tracer: &mut Tracer, outcome: &mut Outcome) {
    let families = families();
    let runs_per_pass: u64 = families.iter().map(|family| family.seeds).sum();
    // One untimed warm-up pass (allocator, worker pool start-up).
    let mut setups = ColdSetups::new(opts);
    setups.sample_group();
    let warm = run_pass(opts.seed, &families, true, tracer);
    let reference = warm.counts.clone();

    let passes = timed_reps(
        Repeat::WhileTheyFit,
        opts,
        tracer,
        &mut setups,
        |_, tracer| run_pass(opts.seed, &families, false, tracer),
    );

    let shard_steps: u64 = reference.iter().map(|counts| counts.shard_steps).sum();
    let rate: Vec<f64> = passes
        .iter()
        .map(|pass| shard_steps as f64 / pass.run_s)
        .collect();
    outcome.set("setup_s", setups.median());
    outcome.set("throughput_per_s", median(&rate));
    outcome.set(
        "process.cpu_us_per_op",
        median(
            &passes
                .iter()
                .map(|pass| pass.cpu_s * 1e6 / shard_steps.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    if opts.trace {
        outcome.set("trace.overhead_pct", trace_overhead_pct(&rate));
        probes::schedule_generate(opts.seed, tracer, outcome);
    }

    let total = |field: fn(&FamilyCounts) -> u64| reference.iter().map(field).sum::<u64>();
    for (index, (family, counts)) in families.iter().zip(&reference).enumerate() {
        let key = family.key;
        let wall: Vec<f64> = passes
            .iter()
            .map(|pass| pass.family_wall_s[index])
            .collect();
        outcome.set(
            &format!("simnet.run_us_per_shard_step.{key}"),
            median(&wall) * 1e6 / counts.shard_steps.max(1) as f64,
        );
        outcome.set(&format!("simnet.issued.{key}"), counts.issued as f64);
        outcome.set(&format!("simnet.completed.{key}"), counts.completed as f64);
        outcome.set(
            &format!("simnet.recoveries.{key}"),
            counts.recoveries as f64,
        );
    }
    outcome.set(
        "simnet.trace_bytes_per_step",
        warm.trace_bytes.0 as f64 / warm.trace_bytes.1.max(1) as f64,
    );
    outcome.set(
        "simnet.committed_sequences",
        total(|c| c.committed_sequences) as f64,
    );
    outcome.set(
        "simnet.mean_recovery_steps",
        reference.iter().map(|c| c.recovery_steps_sum).sum::<f64>() / runs_per_pass as f64,
    );
    outcome.set(
        "simnet.availability",
        total(|c| c.completed) as f64 / total(|c| c.issued).max(1) as f64,
    );
    outcome.set(
        "simnet.multiputs_committed",
        total(|c| c.multiputs_committed) as f64,
    );
    outcome.notes.push(format!(
        "{} timed passes of {runs_per_pass} simulated runs ({shard_steps} shard-steps) each, seeds \
         {}.., {} cold set-ups; an operation is one simulated run",
        passes.len(),
        opts.seed,
        setups.len(),
    ));

    let violations: u64 = std::iter::once(&warm)
        .chain(&passes)
        .flat_map(|pass| &pass.counts)
        .map(|counts| counts.violations)
        .sum();
    let diverged = passes
        .iter()
        .filter(|pass| pass.counts != reference)
        .count();
    outcome.attempted += runs_per_pass * (passes.len() as u64 + 1);
    outcome.failed += violations;
    outcome.gate(
        "no oracle violation",
        violations == 0,
        format!("{violations} simulated runs ended in a violation"),
    );
    outcome.gate(
        "back-to-back passes produce identical counts",
        diverged == 0,
        format!(
            "{diverged} of {} passes differ from the first",
            passes.len()
        ),
    );
}
