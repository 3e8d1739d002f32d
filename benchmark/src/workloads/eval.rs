//! `paper-eval`: the paper's algorithms and its evaluation table.
//!
//! One pass = Algorithm 1 with CEM, DE, BO and SPSA (`Alg1Config::default()`
//! seeded from `--seed`), the incremental-pruning baseline, the Algorithm 2
//! LP at `s_max` 16, 64 and 128, and the full Table-7 grid on
//! `Runner::parallel()`. A pass is the operation.

use crate::harness::{
    process_cpu_seconds, since_process_start, timed_reps, trace_overhead_pct, ColdSetups, Repeat,
    RunOpts,
};
use crate::probes;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tolerance_core::algorithms::{Alg1, Alg1Config, OptimizerKind};
use tolerance_core::node_model::{NodeModel, NodeParameters};
use tolerance_core::observation::ObservationModel;
use tolerance_core::recovery::{RecoveryConfig, RecoveryProblem};
use tolerance_core::replication::{ReplicationConfig, ReplicationProblem};
use tolerance_core::runtime::Runner;
use tolerance_emulation::eval::EvaluationGrid;

const OPTIMIZERS: [OptimizerKind; 4] = [
    OptimizerKind::Cem,
    OptimizerKind::De,
    OptimizerKind::Bo,
    OptimizerKind::Spsa,
];

const LP_SIZES: [usize; 3] = [16, 64, 128];

/// The problem instances of one pass, built before the first solve.
struct Problems {
    recovery: RecoveryProblem,
    alg1: Alg1,
    replication: Vec<ReplicationProblem>,
    grid: EvaluationGrid,
}

fn build_problems(seed: u64) -> Problems {
    let model = NodeModel::new(NodeParameters::default(), ObservationModel::paper_default())
        .expect("the paper's node model is valid");
    Problems {
        recovery: RecoveryProblem::new(model, RecoveryConfig::default())
            .expect("the paper's recovery problem is valid"),
        alg1: Alg1::new(Alg1Config {
            seed,
            ..Alg1Config::default()
        }),
        replication: LP_SIZES
            .iter()
            .map(|&s_max| {
                ReplicationProblem::new(ReplicationConfig {
                    s_max,
                    ..ReplicationConfig::default()
                })
                .expect("the replication problem is valid")
            })
            .collect(),
        grid: EvaluationGrid::default(),
    }
}

/// The set-up child: builds the problem instances; returns the seconds
/// from process start to the point where the first solve could start.
pub fn setup_once(seed: u64) -> f64 {
    let problems = build_problems(seed);
    let ready = since_process_start();
    std::hint::black_box(&problems.recovery);
    std::hint::black_box(&problems.replication);
    std::hint::black_box((&problems.alg1, &problems.grid));
    ready
}

/// Times and results of one pass. Everything but the times must be
/// identical in every pass of one run.
struct Pass {
    eval_s: f64,
    cpu_s: f64,
    optimizer_s: [f64; 4],
    objectives: [f64; 4],
    ip_s: f64,
    ip_objective: f64,
    lp_s: [f64; 3],
    lp_availability: [f64; 3],
    grid_s: f64,
    grid_steps: u64,
    grid_rows: usize,
    first_row_availability: f64,
    failures: Vec<String>,
}

/// A solve's figure of merit, or NaN with a line in `failures` when the
/// solve failed (an infeasible LP is an `Err`) or the figure is not finite.
fn finite_or_failure<E: std::fmt::Display>(
    what: &str,
    value: Result<f64, E>,
    failures: &mut Vec<String>,
) -> f64 {
    match value {
        Ok(value) if value.is_finite() => value,
        Ok(value) => {
            failures.push(format!("{what}: not finite ({value})"));
            f64::NAN
        }
        Err(error) => {
            failures.push(format!("{what}: {error}"));
            f64::NAN
        }
    }
}

fn run_pass(seed: u64, tracer: &mut Tracer) -> Pass {
    let pass_span = tracer.begin("rep");
    let (problems, _) = tracer.span("setup", |_| build_problems(seed));
    let cpu_start = process_cpu_seconds();
    let eval_start = Instant::now();
    let mut failures = Vec::new();
    let mut optimizer_s = [0.0; 4];
    let mut objectives = [f64::NAN; 4];
    for (index, kind) in OPTIMIZERS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (index as u64 + 1));
        let (result, seconds) = tracer.span(&format!("alg1.{}", kind.name()), |_| {
            problems.alg1.solve(&problems.recovery, kind, &mut rng)
        });
        optimizer_s[index] = seconds;
        objectives[index] = finite_or_failure(
            kind.name(),
            result.map(|outcome| outcome.objective),
            &mut failures,
        );
    }
    let (ip, ip_s) = tracer.span("alg1.ip", |_| {
        problems
            .alg1
            .solve_with_incremental_pruning(&problems.recovery, 0.95, Some(10))
    });
    let ip_objective = finite_or_failure("ip", ip.map(|outcome| outcome.objective), &mut failures);
    let mut lp_s = [0.0; 3];
    let mut lp_availability = [f64::NAN; 3];
    for (index, problem) in problems.replication.iter().enumerate() {
        let (strategy, seconds) = tracer.span(&format!("alg2.lp.smax{}", LP_SIZES[index]), |_| {
            problem.solve()
        });
        lp_s[index] = seconds;
        lp_availability[index] = finite_or_failure(
            &format!("lp smax{}", LP_SIZES[index]),
            strategy.map(|strategy| strategy.availability()),
            &mut failures,
        );
    }
    let (rows, grid_s) = tracer.span("emulation.grid", |_| {
        problems.grid.run_with(&Runner::parallel())
    });
    let (grid_rows, first_row_availability) = match rows {
        Ok(rows) => {
            let finite = rows.iter().all(|row| {
                row.availability.0.is_finite()
                    && row.time_to_recovery.0.is_finite()
                    && row.recovery_frequency.0.is_finite()
            });
            if !finite {
                failures.push("grid: a Table-7 row is not finite".into());
            }
            (
                rows.len(),
                rows.first().map_or(f64::NAN, |row| row.availability.0),
            )
        }
        Err(error) => {
            failures.push(format!("grid: {error}"));
            (0, f64::NAN)
        }
    };
    let eval_s = eval_start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu_start;
    tracer.end(pass_span);
    let grid = &problems.grid;
    Pass {
        eval_s,
        cpu_s,
        optimizer_s,
        objectives,
        ip_s,
        ip_objective,
        lp_s,
        lp_availability,
        grid_s,
        grid_steps: (grid.cells().len() * grid.seeds) as u64 * u64::from(grid.horizon),
        grid_rows,
        first_row_availability,
        failures,
    }
}

/// Runs the workload and fills `outcome`.
pub fn run(opts: &RunOpts, tracer: &mut Tracer, outcome: &mut Outcome) {
    let mut setups = ColdSetups::new(opts);
    setups.sample_group();
    let warm = run_pass(opts.seed, tracer);
    let passes = timed_reps(
        Repeat::WhileTheyFit,
        opts,
        tracer,
        &mut setups,
        |_, tracer| run_pass(opts.seed, tracer),
    );

    let per_pass = |value: &dyn Fn(&Pass) -> f64| passes.iter().map(value).collect::<Vec<f64>>();
    let rate = per_pass(&|pass| 1.0 / pass.eval_s);
    outcome.set("setup_s", setups.median());
    outcome.set("throughput_per_s", median(&rate));
    outcome.set(
        "process.cpu_us_per_op",
        median(&per_pass(&|pass| pass.cpu_s * 1e6)),
    );
    for (index, kind) in OPTIMIZERS.into_iter().enumerate() {
        let name = kind.name();
        outcome.set(
            &format!("alg1.{name}_s"),
            median(&per_pass(&|pass| pass.optimizer_s[index])),
        );
        outcome.set(&format!("alg1.objective.{name}"), warm.objectives[index]);
    }
    outcome.set("alg1.ip_s", median(&per_pass(&|pass| pass.ip_s)));
    for (index, s_max) in LP_SIZES.into_iter().enumerate() {
        outcome.set(
            &format!("alg2.lp_s.smax{s_max}"),
            median(&per_pass(&|pass| pass.lp_s[index])),
        );
    }
    let grid_s = median(&per_pass(&|pass| pass.grid_s));
    outcome.set("emulation.grid_s", grid_s);
    outcome.set("emulation.steps_per_s", warm.grid_steps as f64 / grid_s);
    outcome.set(
        "emulation.availability.tolerance",
        warm.first_row_availability,
    );
    if opts.trace {
        outcome.set("trace.overhead_pct", trace_overhead_pct(&rate));
        probes::pomdp(tracer, outcome);
        // Serial against parallel on the same grid: what the runtime's
        // worker pool buys on this host (1 on a one-thread host).
        let grid = EvaluationGrid::default();
        let (serial, serial_s) = tracer.span("probe:runtime.grid_serial", |_| {
            grid.run_with(&Runner::serial())
        });
        outcome.set("runtime.grid_parallel_speedup", serial_s / grid_s);
        outcome.gate(
            "serial grid run succeeds",
            serial.is_ok(),
            "Runner::serial() on the Table-7 grid".into(),
        );
    }
    outcome.notes.push(format!(
        "{} timed passes, {} cold set-ups; a pass is the operation; Table-7 grid of {} rows, {} emulated steps; \
         incremental-pruning objective {:.6}; LP availabilities {:?}",
        passes.len(),
        setups.len(),
        warm.grid_rows,
        warm.grid_steps,
        warm.ip_objective,
        warm.lp_availability,
    ));

    let all = || std::iter::once(&warm).chain(&passes);
    let failures: Vec<&String> = all().flat_map(|pass| &pass.failures).collect();
    // 4 optimizers + IP + 3 LPs + the grid.
    outcome.attempted += 9 * (passes.len() as u64 + 1);
    outcome.failed += failures.len() as u64;
    outcome.gate(
        "finite objectives and feasible LPs",
        failures.is_empty(),
        failures
            .first()
            .map_or_else(|| "every solve succeeded".into(), |first| (*first).clone()),
    );
    let same_bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    let diverged = passes
        .iter()
        .filter(|pass| {
            !(same_bits(&pass.objectives, &warm.objectives)
                && same_bits(&pass.lp_availability, &warm.lp_availability)
                && pass.ip_objective.to_bits() == warm.ip_objective.to_bits()
                && pass.first_row_availability.to_bits() == warm.first_row_availability.to_bits())
        })
        .count();
    outcome.gate(
        "back-to-back passes produce identical results",
        diverged == 0,
        format!(
            "{diverged} of {} passes differ from the first",
            passes.len()
        ),
    );
}
