//! `live-intrusion`: the paper's headline scenario on the live plane.
//!
//! `run_controlled_service` with the controller on and the default service
//! (5 replicas, 8 closed-loop clients, batch 16 — fewer clients than the
//! batch size, so every batch waits out the batch delay and the workload is
//! timer-paced, not CPU-bound), under a scripted schedule: a compromise
//! every 0.6 s from 0.5 s (replica index cycling 1, 2, 3) and one crash at
//! 2.0 s, while both control levels recover, evict and join. A request is
//! the operation.

use crate::harness::{
    process_cpu_seconds, rep_seed, since_process_start, timed_reps, trace_overhead_pct, ColdSetups,
    Repeat, RunOpts,
};
use crate::probes;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use tolerance_consensus::{ClientDriver, ThreadedCluster};
use tolerance_core::controlplane::{
    run_controlled_service, ControlPlane, ControlledServiceConfig, ControlledServiceReport,
    IntrusionEvent, IntrusionMode,
};

/// Timed repetitions outside quick mode; each is `seconds / 3` long,
/// because a repetition must be long enough to hold the crash, its eviction
/// and the JOIN that restores the cluster.
const REPETITIONS: usize = 3;

/// The shortest repetition that still holds an intrusion and its recovery.
const MIN_REP_S: f64 = 2.5;

/// Client retransmission and view-change timeout. A request that is in
/// flight at a replica the moment it is compromised or rebuilt is lost and
/// waits out this timeout, which happens a handful of times per repetition.
/// At the service default of 2 s (sized for CPU-saturated hosts) those few
/// waits decide the throughput of a 5 s repetition and it swings fourfold
/// from run to run; at 0.1 s — still forty request latencies of this
/// timer-paced, nearly idle service — each wait costs what it would cost a
/// LAN deployment, and the throughput is steady while still falling when
/// recoveries get slower or more frequent.
const REQUEST_TIMEOUT_S: f64 = 0.1;

/// The last compromise lands this long before the window closes, so its
/// recovery can finish inside the run.
const RECOVERY_MARGIN_S: f64 = 1.7;

/// The scripted schedule of a `duration`-second repetition (nine
/// compromises and the crash at 7 s).
pub fn scripted_intrusions(duration: f64) -> Vec<IntrusionEvent> {
    let mut events: Vec<IntrusionEvent> = (0..)
        .map(|i| (i, 0.5 + 0.6 * i as f64))
        .take_while(|&(_, at)| at <= duration - RECOVERY_MARGIN_S)
        .map(|(i, at)| IntrusionEvent {
            at,
            replica_index: 1 + i % 3,
            mode: IntrusionMode::Compromise,
        })
        .collect();
    if duration - RECOVERY_MARGIN_S >= 2.0 {
        events.push(IntrusionEvent {
            at: 2.0,
            replica_index: 2,
            mode: IntrusionMode::Crash,
        });
    }
    events
}

fn scenario(duration: f64) -> ControlledServiceConfig {
    let default = ControlledServiceConfig::default();
    ControlledServiceConfig {
        service: tolerance_consensus::ThreadedServiceConfig {
            duration,
            request_timeout: REQUEST_TIMEOUT_S,
            ..default.service
        },
        intrusions: scripted_intrusions(duration),
        ..default
    }
}

/// The set-up child: set-up as `run_controlled_service` does it — the
/// cluster's replica threads, the client driver and the control plane —
/// through the same public constructors, because the scenario function
/// itself returns only after the whole run. Returns the seconds from
/// process start to the point where the driver could submit.
pub fn setup_once(seed: u64) -> f64 {
    let config = scenario(MIN_REP_S);
    let service = tolerance_consensus::ThreadedServiceConfig {
        seed,
        ..config.service
    };
    let mut cluster = ThreadedCluster::new(&service);
    let driver = ClientDriver::new(&mut cluster, service.clients);
    let plane = ControlPlane::new(config.control.clone());
    let ready = since_process_start();
    plane.expect("the default control configuration is valid");
    drop(driver);
    cluster.shutdown();
    ready
}

struct Rep {
    report: ControlledServiceReport,
    cpu_s: f64,
    scripted: usize,
}

fn run_rep(duration: f64, seed: u64, tracer: &mut Tracer) -> Rep {
    let config = scenario(duration);
    let cpu_start = process_cpu_seconds();
    let (report, _) = tracer.span("rep", |tracer| {
        tracer
            .span("run", |_| run_controlled_service(&config, seed))
            .0
            .expect("the controlled service runs")
    });
    Rep {
        report,
        cpu_s: process_cpu_seconds() - cpu_start,
        scripted: config.intrusions.len(),
    }
}

/// Runs the workload and fills `outcome`.
pub fn run(opts: &RunOpts, tracer: &mut Tracer, outcome: &mut Outcome) {
    let repetitions = REPETITIONS.min(opts.repetitions());
    let rep_s = (opts.seconds / repetitions as f64).max(MIN_REP_S);
    let mut setups = ColdSetups::new(opts);
    // Untimed warm-up: a short run with one compromise.
    setups.sample_group();
    run_rep(MIN_REP_S, rep_seed(opts.seed, 999), tracer);

    let repeat = Repeat::Times(repetitions);
    let reps = timed_reps(repeat, opts, tracer, &mut setups, |rep, tracer| {
        run_rep(rep_s, rep_seed(opts.seed, rep as u64), tracer)
    });

    let per_rep = |value: fn(&Rep) -> f64| reps.iter().map(value).collect::<Vec<f64>>();
    let rate = per_rep(|rep| rep.report.requests_per_second);
    outcome.set("setup_s", setups.median());
    outcome.set("throughput_per_s", median(&rate));
    // The driver restarts a request's clock when it retransmits, so this is
    // the steady-state latency: stalls cost throughput, not latency.
    outcome.set(
        "client.latency_mean_ms",
        median(&per_rep(|rep| rep.report.mean_latency * 1e3)),
    );
    outcome.set(
        "process.cpu_us_per_op",
        median(&per_rep(|rep| {
            rep.cpu_s * 1e6 / rep.report.completed_requests.max(1) as f64
        })),
    );
    let recovery_ms: Vec<f64> = reps
        .iter()
        .filter_map(|rep| rep.report.mean_recovery_latency)
        .map(|seconds| seconds * 1e3)
        .collect();
    outcome.set("controlplane.recovery_mean_ms", median(&recovery_ms));
    let sum = |value: fn(&ControlledServiceReport) -> u64| {
        reps.iter().map(|rep| value(&rep.report)).sum::<u64>() as f64
    };
    outcome.set("controlplane.recoveries", sum(|r| r.recoveries));
    outcome.set("controlplane.evictions", sum(|r| r.evictions));
    outcome.set("controlplane.joins", sum(|r| r.joins));
    outcome.set("controlplane.unrecovered", sum(|r| r.unrecovered as u64));
    outcome.set(
        "controlplane.final_replicas",
        reps.iter()
            .map(|rep| rep.report.final_replicas)
            .min()
            .unwrap_or(0) as f64,
    );
    if opts.trace {
        outcome.set("trace.overhead_pct", trace_overhead_pct(&rate));
        probes::control_tick(opts.seed, tracer, outcome);
    }

    let completed: u64 = reps.iter().map(|rep| rep.report.completed_requests).sum();
    let scripted: usize = reps.iter().map(|rep| rep.scripted).sum();
    let injected: usize = reps.iter().map(|rep| rep.report.intrusions).sum();
    let unrecovered: usize = reps.iter().map(|rep| rep.report.unrecovered).sum();
    let inconsistent = reps.iter().filter(|rep| !rep.report.consistent).count();
    outcome.notes.push(format!(
        "{} timed repetitions of {rep_s:.2} s, {scripted} scripted intrusions ({injected} landed), \
         {} cold set-ups; an operation is one client request; requests/s per repetition {:.0?}, \
         recoveries/evictions/joins per repetition {:?}",
        reps.len(),
        setups.len(),
        rate,
        reps.iter()
            .map(|rep| (rep.report.recoveries, rep.report.evictions, rep.report.joins))
            .collect::<Vec<_>>(),
    ));
    outcome.attempted += completed + injected as u64;
    outcome.failed += unrecovered as u64;
    outcome.gate(
        "snapshots_consistent",
        inconsistent == 0,
        format!("{inconsistent} repetitions ended with diverged replica logs"),
    );
    outcome.gate(
        "service kept serving",
        reps.iter().all(|rep| rep.report.completed_requests > 0),
        format!("{completed} requests completed"),
    );
    outcome.gate(
        "every compromise recovered",
        unrecovered == 0,
        format!("{unrecovered} of {injected} intrusions still standing at the end of their run"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_seconds_hold_nine_compromises_and_the_crash() {
        let events = scripted_intrusions(7.0);
        let compromises: Vec<&IntrusionEvent> = events
            .iter()
            .filter(|e| e.mode == IntrusionMode::Compromise)
            .collect();
        assert_eq!(compromises.len(), 9);
        assert_eq!(
            compromises
                .iter()
                .map(|e| e.replica_index)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 1, 2, 3, 1, 2, 3]
        );
        assert!((compromises[8].at - 5.3).abs() < 1e-9);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.mode == IntrusionMode::Crash)
                .count(),
            1
        );
    }

    #[test]
    fn short_runs_keep_the_density_and_drop_what_cannot_finish() {
        // 2.5 s: compromises at 0.5 only (1.1 > 0.8), no room for the crash.
        let events = scripted_intrusions(2.5);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].mode, IntrusionMode::Compromise);
        // 5 s: 0.5, 1.1, 1.7, 2.3, 2.9 and the crash.
        assert_eq!(scripted_intrusions(5.0).len(), 6);
        assert!(scripted_intrusions(1.0).is_empty());
    }
}
