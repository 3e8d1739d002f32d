//! What every workload shares: the run options, per-repetition seeds, the
//! process's own CPU and memory readings, and a timing loop for the probes.

use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Marks the start of the process; `main` calls it first.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// Seconds since [`mark_process_start`].
pub fn since_process_start() -> f64 {
    PROCESS_START
        .get_or_init(Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// Cold set-up samples of one workload, each taken in a fresh child
/// process: from the first statement of `main` to the point where the
/// first operation can be handed to the program.
///
/// Why a child per sample: warm set-up in a long-lived process is bimodal.
/// Whether the allocator kept or returned the megabytes of mailbox buffers
/// the previous tear-down freed decides if a set-up pays ~1500 page faults,
/// and which of the two a process settles in is layout luck that persists
/// for the process's life — medians of ten runs land on either side. A
/// fresh process always starts from the same empty heap, and it is also
/// what a user starting the service pays. Samples are taken in small groups
/// spread over the run, so one host hiccup cannot shift them all.
pub struct ColdSetups {
    workload: String,
    seed: u64,
    samples: Vec<f64>,
}

/// Children per group (one group before the warm-up, one before every
/// repetition or pass).
const COLD_SETUPS_PER_GROUP: usize = 3;

impl ColdSetups {
    /// A collector for `opts.workload`.
    pub fn new(opts: &RunOpts) -> Self {
        ColdSetups {
            workload: opts.workload.clone(),
            seed: opts.seed,
            samples: Vec::new(),
        }
    }

    /// Runs one group of set-up children. A child that fails contributes a
    /// NaN, which makes the run incorrect.
    pub fn sample_group(&mut self) {
        for _ in 0..COLD_SETUPS_PER_GROUP {
            let seed = rep_seed(self.seed, 1_000 + self.samples.len() as u64);
            self.samples
                .push(cold_setup_seconds(&self.workload, seed).unwrap_or(f64::NAN));
        }
    }

    /// How many samples were taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The median sample (NaN if any child failed).
    pub fn median(&self) -> f64 {
        if self.samples.iter().any(|sample| sample.is_nan()) {
            f64::NAN
        } else {
            crate::stats::median(&self.samples)
        }
    }
}

fn cold_setup_seconds(workload: &str, seed: u64) -> Option<f64> {
    let output = Command::new(std::env::current_exe().ok()?)
        .args(["setup-probe", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    String::from_utf8_lossy(&output.stdout).trim().parse().ok()
}

/// Options of one run of one workload (the driver's four flags).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Which workload to run.
    pub workload: String,
    /// Every input (key streams, intrusion draws, solver seeds, simulated
    /// schedules) derives from this.
    pub seed: u64,
    /// How long the run measures, in seconds, warm-up excluded.
    pub seconds: f64,
    /// Whether this is the traced run: spans recorded, probes run, per-layer
    /// metrics reported.
    pub trace: bool,
    /// Local-iteration mode: two repetitions, no baseline value.
    pub quick: bool,
}

impl RunOpts {
    /// Timed repetitions of a wall-clock workload, each on a fresh cluster.
    /// A repetition is `seconds / repetitions` long: when the time cap
    /// binds, repetitions get shorter, not fewer.
    pub fn repetitions(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }

    /// Fewest timed passes a fixed-work workload makes, however slow the
    /// host; it makes more while they fit into `seconds`.
    pub fn min_passes(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }
}

/// How many timed repetitions [`timed_reps`] makes.
pub enum Repeat {
    /// Exactly this many (wall-clock workloads).
    Times(usize),
    /// Fixed-work passes while they fit into `opts.seconds`, and at least
    /// `opts.min_passes()`.
    WhileTheyFit,
}

/// The timed repetitions of a run. Before each one a group of cold set-ups
/// is sampled; in the traced run every other repetition records its spans
/// (see [`traced_rep`]). On return the tracer records iff this is the
/// traced run, ready for the probes.
pub fn timed_reps<R>(
    repeat: Repeat,
    opts: &RunOpts,
    tracer: &mut crate::trace::Tracer,
    setups: &mut ColdSetups,
    mut body: impl FnMut(usize, &mut crate::trace::Tracer) -> R,
) -> Vec<R> {
    let mut reps = Vec::new();
    let started = Instant::now();
    loop {
        setups.sample_group();
        tracer.set_recording(opts.trace && traced_rep(reps.len()));
        let rep_start = Instant::now();
        reps.push(body(reps.len(), tracer));
        tracer.set_recording(false);
        let last = rep_start.elapsed().as_secs_f64();
        let done = match repeat {
            Repeat::Times(count) => reps.len() >= count,
            Repeat::WhileTheyFit => {
                reps.len() >= opts.min_passes()
                    && started.elapsed().as_secs_f64() + last > opts.seconds
            }
        };
        if done {
            tracer.set_recording(opts.trace);
            return reps;
        }
    }
}

/// The seed of repetition `rep` of a run seeded `seed` (splitmix64 of the
/// pair, so neighbouring seeds do not share repetitions).
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(rep.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// In the traced run every other repetition records its spans, so one
/// process yields both halves of the traced-versus-untraced comparison.
pub fn traced_rep(rep: usize) -> bool {
    rep % 2 == 1
}

/// Tracing overhead: how much lower the median rate of the span-recording
/// repetitions is than that of the others, in percent of the latter.
/// `rate_per_rep[i]` is the work per second of repetition `i`.
pub fn trace_overhead_pct(rate_per_rep: &[f64]) -> f64 {
    let half = |traced: bool| -> Vec<f64> {
        rate_per_rep
            .iter()
            .enumerate()
            .filter(|(rep, _)| traced_rep(*rep) == traced)
            .map(|(_, rate)| *rate)
            .collect()
    };
    let base = crate::stats::median(&half(false));
    if base == 0.0 {
        0.0
    } else {
        (base - crate::stats::median(&half(true))) / base * 100.0
    }
}

/// CPU seconds (user + system) this process has consumed so far, over all
/// its threads, live or joined. Read from `/proc/self/stat`, whose tick is
/// `USER_HZ` = 100 on every Linux this repository targets. 0 when procfs is
/// unavailable.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// The process's resident-set high-water mark in MB (`VmHWM` of
/// `/proc/self/status`). 0 when procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to the process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Mean nanoseconds per call of `body`, timed in batches until `budget`
/// seconds are spent: the batch size doubles until one batch takes at least
/// a millisecond, and the reported figure is the median over batches.
pub fn time_ns_per_call(budget: f64, mut body: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let batch_start = Instant::now();
        for _ in 0..batch {
            body();
        }
        let elapsed = batch_start.elapsed().as_secs_f64();
        if elapsed < 1e-3 && samples.is_empty() {
            batch *= 2;
        } else {
            samples.push(elapsed * 1e9 / batch as f64);
        }
        if started.elapsed().as_secs_f64() >= budget && !samples.is_empty() {
            return crate::stats::median(&samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_seeds_differ_across_seeds_and_repetitions() {
        let seeds: std::collections::BTreeSet<u64> = (0..8)
            .flat_map(|seed| (0..8).map(move |rep| rep_seed(seed, rep)))
            .collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(rep_seed(3, 4), rep_seed(3, 4));
    }

    #[test]
    fn trace_overhead_compares_odd_against_even_repetitions() {
        // Even repetitions (untraced) run at 100, odd ones (traced) at 98.
        assert_eq!(trace_overhead_pct(&[100.0, 98.0, 100.0, 98.0, 100.0]), 2.0);
        assert_eq!(trace_overhead_pct(&[]), 0.0);
    }

    #[test]
    fn procfs_readings_are_plausible_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let spin = Instant::now();
        while spin.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
        assert!(host_threads() >= 1);
    }

    #[test]
    fn the_probe_timer_reports_time_that_grows_with_the_work() {
        let short = time_ns_per_call(0.01, || {
            std::hint::black_box(
                (0..10u64).fold(0u64, |a, b| a.wrapping_add(std::hint::black_box(b))),
            );
        });
        let long = time_ns_per_call(0.01, || {
            std::hint::black_box(
                (0..1_000u64).fold(0u64, |a, b| a.wrapping_add(std::hint::black_box(b))),
            );
        });
        assert!(short > 0.0 && long > short, "short {short} long {long}");
    }
}
