//! The whole suite in one command.
//!
//! `all` runs every workload twice — untraced for the end-to-end metrics,
//! traced for the per-layer ones — each in a re-executed child process, so
//! one workload's memory high-water mark and leftover threads cannot leak
//! into the next, and writes `out/results.json` stamped with the git
//! revision, the host's thread count, the compiler and the seed.
//!
//! `repeat` runs the suite twice on the same code and compares, per
//! end-to-end metric and workload, the two medians against the metric's
//! bound, and every exact per-layer count for equality: the check behind
//! the acceptance of this benchmark and behind every later baseline.

use crate::harness::host_threads;
use crate::report::{
    metrics_object, parse_result_line, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use crate::stats::{median, relative_spread};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Seconds a quick run measures (two repetitions of one second).
const QUICK_SECONDS: u64 = 2;

/// With at least this many runs per set, `repeat` also holds each set's
/// run-to-run spread against the bound, as the acceptance check does.
const RUNS_FOR_SPREAD: usize = 4;

/// One child run read back from its result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process, echoes what it printed, and reads
/// its result line.
fn run_child(workload: &str, seed: u64, trace: bool, quick: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seconds = if quick { QUICK_SECONDS } else { RUN_SECONDS };
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let (correct, attempted, failed, metrics) = parse_result_line(last).ok_or_else(|| {
        format!(
            "the {workload} run printed no result line (exit {})",
            output.status
        )
    })?;
    Ok(RunResult {
        correct: correct && output.status.success(),
        attempted,
        failed,
        metrics,
    })
}

/// A command's standard output, when it ran and succeeded.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// What every output carries: revision, host, compiler, seed, quick.
fn stamp(seed: u64, quick: bool) -> Vec<(String, Value)> {
    let rev = match stdout_of("git", &["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = stdout_of("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{rev}{}", if dirty { "-dirty" } else { "" })
        }
        // A driver checkout is not a git repository.
        None => "unknown".into(),
    };
    vec![
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::U64(seed)),
        ("git.rev".into(), Value::Str(rev)),
        ("host.threads".into(), Value::U64(host_threads() as u64)),
        (
            "rustc.version".into(),
            Value::Str(stdout_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
    ]
}

fn print_stamp(stamp: &[(String, Value)]) {
    let rendered: Vec<String> = stamp
        .iter()
        .map(|(key, value)| format!("{key}={}", serde_json::to_string(value).unwrap_or_default()))
        .collect();
    println!("{}", rendered.join(" "));
}

fn metrics_value(defs: &[MetricDef], run: &RunResult) -> Value {
    metrics_object(defs, |name| run.metrics.get(name).copied())
}

/// `all`: every workload, untraced then traced; results to
/// `<out_dir>/results.json`.
pub fn all(seed: u64, quick: bool, out_dir: &str) -> ExitCode {
    let stamp = stamp(seed, quick);
    print_stamp(&stamp);
    let mut ok = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let runs = run_child(workload, seed, false, quick)
            .and_then(|untraced| Ok((untraced, run_child(workload, seed, true, quick)?)));
        let (untraced, traced) = match runs {
            Ok(runs) => runs,
            Err(error) => {
                eprintln!("{error}");
                ok = false;
                continue;
            }
        };
        ok &= untraced.correct && traced.correct;
        workloads.push((
            workload.to_string(),
            Value::Object(vec![
                (
                    "correct".into(),
                    Value::Bool(untraced.correct && traced.correct),
                ),
                ("attempted".into(), Value::U64(untraced.attempted)),
                ("failed".into(), Value::U64(untraced.failed + traced.failed)),
                ("end_to_end".into(), metrics_value(END_TO_END, &untraced)),
                ("per_layer".into(), metrics_value(PER_LAYER, &traced)),
            ]),
        ));
    }
    let mut document = stamp;
    document.push(("workloads".into(), Value::Object(workloads)));
    let path = format!("{out_dir}/results.json");
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        let rendered =
            serde_json::to_string_pretty(&Value::Object(document)).expect("results render");
        std::fs::write(&path, rendered)
    });
    match written {
        Ok(()) => println!("results written to {path}"),
        Err(error) => {
            eprintln!("cannot write {path}: {error}");
            ok = false;
        }
    }
    if ok {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: a run was incorrect or did not finish");
        ExitCode::FAILURE
    }
}

/// One set of `repeat`: per workload, `runs` untraced runs on seeds
/// `seed..seed+runs` and one traced run on `seed`.
struct SuiteSet {
    untraced: BTreeMap<&'static str, Vec<RunResult>>,
    traced: BTreeMap<&'static str, RunResult>,
}

fn run_set(seed: u64, runs: usize) -> Result<SuiteSet, String> {
    let mut set = SuiteSet {
        untraced: BTreeMap::new(),
        traced: BTreeMap::new(),
    };
    for (workload, _) in WORKLOADS {
        let untraced = (0..runs as u64)
            .map(|offset| run_child(workload, seed + offset, false, false))
            .collect::<Result<Vec<_>, _>>()?;
        set.untraced.insert(workload, untraced);
        set.traced
            .insert(workload, run_child(workload, seed, true, false)?);
    }
    Ok(set)
}

/// `repeat`: the suite twice, compared.
pub fn repeat(seed: u64, runs: usize) -> ExitCode {
    print_stamp(&stamp(seed, false));
    let sets = match run_set(seed, runs).and_then(|first| Ok([first, run_set(seed, runs)?])) {
        Ok(sets) => sets,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures: Vec<String> = Vec::new();
    println!(
        "\n{:<18} {:<16} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "metric", "workload", "median 1", "median 2", "diff %", "bound %", "iqr1 %", "iqr2 %"
    );
    for def in END_TO_END {
        let bound = def.bound.unwrap_or(0.0);
        for (workload, _) in WORKLOADS {
            let values = |set: &SuiteSet| -> Vec<f64> {
                set.untraced[workload]
                    .iter()
                    .map(|run| run.metrics.get(def.name).copied().unwrap_or(0.0))
                    .collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            let (m1, m2) = (median(&first), median(&second));
            let diff = def.better.worsening(m1, m2);
            let spreads = [relative_spread(&first), relative_spread(&second)];
            let mut verdict = "ok";
            if diff.abs() > bound {
                verdict = "DISAGREE";
                failures.push(format!(
                    "{} on {workload}: medians {m1} and {m2} differ by {:.1} % (bound {:.0} %)",
                    def.name,
                    diff * 100.0,
                    bound * 100.0
                ));
            }
            // Set-up time is exempt from the spread rule (but not from the
            // agreement of its medians).
            if runs >= RUNS_FOR_SPREAD && def.name != "setup_s" {
                for spread in spreads.into_iter().flatten() {
                    if spread > bound {
                        verdict = "UNSTEADY";
                        failures.push(format!(
                            "{} on {workload}: spread {:.1} % over {runs} runs exceeds the bound {:.0} %",
                            def.name,
                            spread * 100.0,
                            bound * 100.0
                        ));
                    }
                }
            }
            let pct =
                |spread: Option<f64>| spread.map_or("-".into(), |s| format!("{:.2}", s * 100.0));
            println!(
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>8.2} {:>7.0} {:>8} {:>8}  {verdict}",
                def.name,
                workload,
                m1,
                m2,
                diff * 100.0,
                bound * 100.0,
                pct(spreads[0]),
                pct(spreads[1]),
            );
        }
    }
    println!("\nexact per-layer counts (same seed, both sets):");
    for def in PER_LAYER.iter().filter(|def| def.exact) {
        for (workload, _) in WORKLOADS {
            let value = |set: &SuiteSet| set.traced[workload].metrics.get(def.name).copied();
            let (a, b) = (value(&sets[0]), value(&sets[1]));
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                failures.push(format!("{} on {workload}: {a:?} then {b:?}", def.name));
            }
            if a.is_some_and(|a| a != 0.0) {
                println!("  {:<36} {:<16} {:?} {:?}", def.name, workload, a, b);
            }
        }
    }
    for set in &sets {
        for (workload, _) in WORKLOADS {
            let incorrect = set.untraced[workload]
                .iter()
                .filter(|run| !run.correct)
                .count()
                + usize::from(!set.traced[workload].correct);
            if incorrect > 0 {
                failures.push(format!("{incorrect} incorrect runs of {workload}"));
            }
        }
    }
    if failures.is_empty() {
        println!("\nrepeat: both sets agree within every bound; exact counts identical");
        ExitCode::SUCCESS
    } else {
        println!("\nrepeat FAILED:");
        for failure in &failures {
            println!("  {failure}");
        }
        ExitCode::FAILURE
    }
}
