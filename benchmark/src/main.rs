//! The benchmark of the TOLERANCE reproduction.
//!
//! One run of one workload (the form the driver invokes):
//!
//! ```text
//! tolerance-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric of that mode by name with its unit, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` records spans, runs the layer probes and reports the per-layer
//! metrics. The exit code is 0 only when every correctness gate held.
//!
//! The whole suite: `all [--seed N] [--quick]`, `repeat [--seed N] [--runs K]`
//! (see `suite.rs`), and `manifest` prints `BENCHMARK.json`.

mod harness;
mod probes;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use harness::RunOpts;
use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage:
  tolerance-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  tolerance-benchmark all [--seed N] [--quick]
  tolerance-benchmark repeat [--seed N] [--runs K]
  tolerance-benchmark manifest
workloads: channel-kv, socket-kv, sim-sweep, live-intrusion, paper-eval";

/// Where the traced run writes its spans and `all` its results.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// `--flag value` pairs and bare `--flag`s after the optional subcommand.
struct Args {
    subcommand: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut raw = raw.peekable();
        let subcommand = raw.next_if(|first| !first.starts_with("--"));
        let mut flags = Vec::new();
        while let Some(flag) = raw.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let value = raw.next_if(|next| !next.starts_with("--"));
            flags.push((name.to_string(), value));
        }
        Ok(Args { subcommand, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| flag == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(flag, _)| flag == name) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{name} needs a value")),
            Some((_, Some(value))) => value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {value:?}")),
        }
    }
}

fn run_opts(args: &Args) -> Result<RunOpts, String> {
    let workload: String = args.value("workload")?.ok_or("--workload is required")?;
    if !report::is_workload(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = args.value("seconds")?.unwrap_or(RUN_SECONDS as f64);
    if !(seconds.is_finite() && (1.0..=60.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let trace = match args.value::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    Ok(RunOpts {
        workload,
        seed: args.value("seed")?.unwrap_or(0),
        seconds,
        trace,
        quick: args.has("quick"),
    })
}

/// Prints the metrics of the run's mode by name with value and unit, the
/// notes, and the gates.
fn print_outcome(opts: &RunOpts, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick { " quick" } else { "" }
    );
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        if let Some(value) = outcome.metrics.get(def.name) {
            println!("  {:<42} {:>16.6} {}", def.name, value, def.unit);
        }
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for gate in &outcome.gates {
        println!(
            "  gate: {} {} ({})",
            if gate.ok { "ok  " } else { "FAIL" },
            gate.name,
            gate.detail
        );
    }
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.correct()
    );
}

fn run_one(opts: &RunOpts) -> ExitCode {
    let mut tracer = Tracer::new();
    let Some(mut outcome) = workloads::run(opts, &mut tracer) else {
        eprintln!("unknown workload {:?}\n{USAGE}", opts.workload);
        return ExitCode::from(2);
    };
    outcome.set("process.peak_rss_mb", harness::peak_rss_mb());
    outcome.set("host.threads", harness::host_threads() as f64);
    if opts.trace {
        let path = format!("{OUT_DIR}/trace-{}.json", opts.workload);
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
            let document = serde_json::to_string(&tracer.to_value()).expect("spans render");
            std::fs::write(&path, document)
        });
        match written {
            Ok(()) => outcome
                .notes
                .push(format!("{} spans written to {path}", tracer.spans().len())),
            Err(error) => outcome.gate("span file written", false, format!("{path}: {error}")),
        }
    }
    print_outcome(opts, &outcome);
    println!(
        "{}",
        serde_json::to_string(&outcome.result_value(opts.trace)).expect("the result renders")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    harness::mark_process_start();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.subcommand.as_deref() {
        None => run_opts(&args).map(|opts| run_one(&opts)),
        // The child `ColdSetups` starts: one set-up, timed from the first
        // statement of `main`, printed as seconds.
        Some("setup-probe") => args.value::<String>("workload").and_then(|workload| {
            let seed = args.value("seed")?.unwrap_or(0);
            let seconds = workloads::setup_probe(&workload.unwrap_or_default(), seed)
                .ok_or("setup-probe needs a --workload")?;
            println!("{seconds}");
            Ok(ExitCode::SUCCESS)
        }),
        Some("manifest") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&report::manifest()).expect("the manifest renders")
            );
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => args
            .value("seed")
            .map(|seed| suite::all(seed.unwrap_or(0), args.has("quick"), OUT_DIR)),
        Some("repeat") => {
            if args.has("quick") {
                Err("repeat refuses --quick: a quick run is not a baseline".to_string())
            } else {
                args.value("seed").and_then(|seed| {
                    let runs = args.value("runs")?.unwrap_or(1usize);
                    Ok(suite::repeat(seed.unwrap_or(0), runs.max(1)))
                })
            }
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("{error}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_form_parses() {
        let args = parse("--workload socket-kv --seed 7 --seconds 15 --trace 1").unwrap();
        assert!(args.subcommand.is_none());
        let opts = run_opts(&args).unwrap();
        assert_eq!(
            opts,
            RunOpts {
                workload: "socket-kv".into(),
                seed: 7,
                seconds: 15.0,
                trace: true,
                quick: false,
            }
        );
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(run_opts(&parse("--seed 1").unwrap()).is_err());
        assert!(run_opts(&parse("--workload nope").unwrap()).is_err());
        assert!(run_opts(&parse("--workload sim-sweep --trace 2").unwrap()).is_err());
        assert!(run_opts(&parse("--workload sim-sweep --seconds 0").unwrap()).is_err());
        assert!(run_opts(&parse("--workload sim-sweep --seed x").unwrap()).is_err());
        assert!(parse("all stray").is_err());
    }

    #[test]
    fn subcommands_and_bare_flags_parse() {
        let args = parse("all --seed 3 --quick").unwrap();
        assert_eq!(args.subcommand.as_deref(), Some("all"));
        assert_eq!(args.value::<u64>("seed").unwrap(), Some(3));
        assert!(args.has("quick"));
    }
}
